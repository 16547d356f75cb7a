import csv
import os
import subprocess
import sys

import pytest

import evoscm
from evoscm import cli, load_hfs, load_makeorbuy, gen_makeorbuy
from evoscm.cli import main
from evoscm.flowshop import LT7_FAMILY


def run_cli(argv):
    return main(argv)


class TestDatagenCommand:
    def test_makeorbuy_dataset(self, tmp_path, capsys):
        out = tmp_path / "orders.csv"
        code = run_cli(["datagen", "--problem", "makeorbuy", "--n", "5",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == f"wrote {out}"
        assert load_makeorbuy(out) == gen_makeorbuy(5, seed=3)

    def test_hfs_dataset(self, tmp_path):
        out = tmp_path / "jobs.csv"
        code = run_cli(["datagen", "--problem", "hfs", "--variant", "d2",
                        "--n", "7", "--seed", "0", "--out", str(out)])
        assert code == 0
        inst = load_hfs(out)
        assert len(inst.jobs) == 7
        assert {j.machine_type for j in inst.jobs} <= set(LT7_FAMILY)

    def test_hfs_requires_variant(self, tmp_path, capsys):
        code = run_cli(["datagen", "--problem", "hfs", "--n", "5",
                        "--seed", "0", "--out", str(tmp_path / "j.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--variant" in err

    def test_variant_rejected_for_makeorbuy(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(["datagen", "--problem", "makeorbuy", "--variant", "d4",
                        "--n", "5", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --variant applies to --problem hfs only\n"
        assert not out.exists()

    def test_creates_parent_directories(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "orders.csv"
        code = run_cli(["datagen", "--problem", "makeorbuy", "--n", "2",
                        "--seed", "0", "--out", str(out)])
        assert code == 0 and out.exists()

    def test_invalid_n(self, tmp_path, capsys):
        code = run_cli(["datagen", "--problem", "makeorbuy", "--n", "0",
                        "--seed", "0", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed(self, tmp_path):
        out = tmp_path / "o.csv"
        done = run_cli_bounded(["datagen", "--problem", "makeorbuy", "--n", "5",
                                "--seed", "-1", "--out", str(out)])
        assert done.returncode == 1
        assert done.stderr.startswith("error: --seed must be >= 0")
        assert "Traceback" not in done.stderr and not out.exists()

    def test_unknown_variant_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["datagen", "--problem", "hfs", "--variant", "d9",
                     "--n", "5", "--seed", "0", "--out", str(tmp_path / "j.csv")])
        assert exc.value.code == 2


@pytest.fixture()
def mob_dataset(tmp_path):
    out = tmp_path / "orders.csv"
    run_cli(["datagen", "--problem", "makeorbuy", "--n", "8", "--seed", "0",
             "--out", str(out)])
    return str(out)


@pytest.fixture()
def hfs_dataset(tmp_path):
    out = tmp_path / "jobs.csv"
    run_cli(["datagen", "--problem", "hfs", "--variant", "d1", "--n", "6",
             "--seed", "0", "--out", str(out)])
    return str(out)


class TestRunCommand:
    def test_random_search_campaign(self, mob_dataset, tmp_path, capsys):
        out = tmp_path / "rs"
        code = run_cli(["run", "--problem", "makeorbuy", "--algo", "rs",
                        "--dataset", mob_dataset, "--budget", "20",
                        "--runs", "2", "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("rs on makeorbuy")
        assert f"artifacts in {out}" in line
        for name in ("history.csv", "finals.csv", "summary.csv", "trend.csv"):
            assert (out / name).exists()

    def test_hfs_reports_minimum(self, hfs_dataset, tmp_path, capsys):
        out = tmp_path / "ga"
        code = run_cli(["run", "--problem", "hfs", "--algo", "ga",
                        "--dataset", hfs_dataset, "--budget", "30",
                        "--runs", "3", "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        with open(out / "finals.csv") as fh:
            body = [ln for ln in fh if not ln.startswith("#")]
        finals = [float(r["final_objective"]) for r in csv.DictReader(body)]
        assert f"best {min(finals)}" in line

    def test_params_file(self, mob_dataset, tmp_path):
        params = tmp_path / "ga.params"
        params.write_text("population_size = 6\nswap_prob = 0.5\n")
        out = tmp_path / "ga"
        code = run_cli(["run", "--problem", "makeorbuy", "--algo", "ga",
                        "--dataset", mob_dataset, "--budget", "15",
                        "--runs", "1", "--out", str(out),
                        "--params", str(params)])
        assert code == 0
        head = [ln for ln in (out / "summary.csv").read_text().splitlines()
                if ln.startswith("#")]
        assert "# param population_size = 6" in head
        assert "# param swap_prob = 0.5" in head

    def test_sim_params_file(self, hfs_dataset, tmp_path):
        sim = tmp_path / "sim.params"
        sim.write_text("transport_days = 0.0\n")
        out = tmp_path / "greedy"
        code = run_cli(["run", "--problem", "hfs", "--algo", "greedy",
                        "--dataset", hfs_dataset, "--budget", "1",
                        "--runs", "1", "--out", str(out),
                        "--sim-params", str(sim)])
        assert code == 0
        head = (out / "summary.csv").read_text()
        assert "# sim_param transport_days = 0.0" in head

    def test_greedy_header_says_what_ran(self, hfs_dataset, tmp_path):
        # greedy makes one evaluation in one run, whatever --budget and --runs say
        out = tmp_path / "greedy"
        code = run_cli(["run", "--problem", "hfs", "--algo", "greedy",
                        "--dataset", hfs_dataset, "--budget", "75", "--runs", "2",
                        "--out", str(out)])
        assert code == 0
        for name in ("history.csv", "finals.csv", "summary.csv", "trend.csv"):
            first = (out / name).read_text().splitlines()[0]
            assert first == (f"# problem=hfs algo=greedy dataset={hfs_dataset} "
                             "budget=1 runs=1 base_seed=0")
        with open(out / "summary.csv", encoding="utf-8") as fh:
            row = next(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert (row["runs"], row["budget"]) == ("1", "1")

    def test_greedy_records_the_seed_it_was_given(self, hfs_dataset, tmp_path):
        out = tmp_path / "greedy"
        code = run_cli(["run", "--problem", "hfs", "--algo", "greedy",
                        "--dataset", hfs_dataset, "--seed", "5", "--out", str(out)])
        assert code == 0
        for name in ("finals.csv", "history.csv"):
            with open(out / name, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert lines[0].endswith(" base_seed=5")
            rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
            assert rows and [r["seed"] for r in rows] == ["5"] * len(rows)

    def test_grammar_file(self, mob_dataset, tmp_path):
        from evoscm import MakeOrBuyEnv, default_policy_grammar, load_makeorbuy

        spec = MakeOrBuyEnv(load_makeorbuy(mob_dataset)).spec
        grammar_path = tmp_path / "policy.bnf"
        grammar_path.write_text(default_policy_grammar(spec).to_bnf())
        out = tmp_path / "eldt"
        params = tmp_path / "eldt.params"
        params.write_text("population_size = 5\nepisodes_per_eval = 2\n")
        code = run_cli(["run", "--problem", "makeorbuy", "--algo", "eldt",
                        "--dataset", mob_dataset, "--budget", "20",
                        "--runs", "1", "--out", str(out),
                        "--grammar", str(grammar_path),
                        "--params", str(params)])
        assert code == 0
        assert (out / "best_tree.txt").exists()

    def test_missing_dataset(self, tmp_path, capsys):
        code = run_cli(["run", "--problem", "makeorbuy", "--algo", "rs",
                        "--dataset", str(tmp_path / "nope.csv"),
                        "--budget", "5", "--runs", "1",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_algo_is_usage_error(self, mob_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "makeorbuy", "--algo", "anneal",
                     "--dataset", mob_dataset, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_workers_flag_keeps_results_identical(self, mob_dataset, tmp_path):
        snaps = {}
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            run_cli(["run", "--problem", "makeorbuy", "--algo", "rs",
                     "--dataset", mob_dataset, "--budget", "20", "--runs", "4",
                     "--out", str(out), "--workers", workers])
            snaps[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert snaps["1"] == snaps["4"]


class TestBestTreeReadsBack:
    """``parse_text`` reads back the ``best_tree.txt`` of a session, with the
    campaign's EnvSpec: category splits, action labels and the header."""

    # (problem, algo, orders or jobs, words the best tree holds)
    CASES = [("hfs", "gp", 12, "if machine_type == "), ("hfs", "eldt", 12, "if machine_type == "),
             ("makeorbuy", "eldt", 100, "action BUY")]

    @pytest.mark.parametrize("problem, algo, n, words", CASES,
                             ids=[f"{p}-{a}" for p, a, _, _ in CASES])
    def test_parse_text_inverts_to_text(self, tmp_path, monkeypatch, problem, algo, n, words):
        dataset = str(tmp_path / "data.csv")
        run_cli(["datagen", "--problem", problem, "--n", str(n), "--seed", "0", "--out", dataset]
                + (["--variant", "d1"] if problem == "hfs" else []))
        runs, run_experiment = [], cli.run_experiment

        def recording(cfg):
            runs.append(run_experiment(cfg))
            return runs[-1]

        monkeypatch.setattr(cli, "run_experiment", recording)
        out = tmp_path / "out"
        assert run_cli(["run", "--problem", problem, "--algo", algo, "--dataset", dataset,
                        "--budget", "100", "--runs", "2", "--seed", "1",
                        "--out", str(out)]) == 0
        header, _, body = (out / "best_tree.txt").read_text().partition("\n")
        assert words in body
        seed = int(header.split()[3].removeprefix("seed="))
        best = next(rec for rec in runs[0] if rec.seed == seed)
        if problem == "hfs":
            spec = evoscm.HfsEnv(load_hfs(dataset)).spec
        else:
            spec = evoscm.MakeOrBuyEnv(load_makeorbuy(dataset)).spec

        parsed = evoscm.parse_text(header + "\n" + body, spec)
        assert evoscm.structurally_equal(parsed, best.artifacts["pruned_tree"])
        assert all(len(leaf.q) == spec.action_count for leaf in parsed.leaves())
        assert evoscm.to_text(parsed, spec) == body


def run_cli_bounded(argv, timeout=60):
    """The CLI in a child interpreter, killed after ``timeout`` seconds, so
    a hang fails the test instead of stalling the suite."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(evoscm.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "evoscm.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestBadHyperparameters:
    """Each bad --params value exits 1 with one error line, before any run."""

    def run_with(self, dataset, tmp_path, algo, text):
        params = tmp_path / f"{algo}.params"
        params.write_text(text)
        out = tmp_path / algo
        done = run_cli_bounded(["run", "--problem", "makeorbuy", "--algo", algo,
                                "--dataset", dataset, "--budget", "20",
                                "--runs", "2", "--workers", "2",
                                "--out", str(out), "--params", str(params)])
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr
        assert not out.exists()
        return done.stderr

    @pytest.mark.parametrize("algo", ["ga", "gp"])
    def test_zero_population_size(self, mob_dataset, tmp_path, algo):
        err = self.run_with(mob_dataset, tmp_path, algo, "population_size = 0\n")
        assert "population_size" in err

    def test_zero_colony_size(self, mob_dataset, tmp_path):
        err = self.run_with(mob_dataset, tmp_path, "aco", "colony_size = 0\n")
        assert "colony_size" in err

    @pytest.mark.parametrize("algo", ["rs", "ga", "aco", "gp"])
    def test_unknown_key(self, mob_dataset, tmp_path, algo):
        err = self.run_with(mob_dataset, tmp_path, algo, "temperature = 3\n")
        assert "unknown" in err and "temperature" in err

    @pytest.mark.parametrize("algo, text", [
        ("eldt", "alpha = abc"),
        ("eldt", "gamma = true"),
        ("eldt", "population_size = 2.5"),
        ("eldt", "episodes_per_eval = 1.5"),
        ("eldt", "tournament_size = 1.5"),
        ("eldt", "genotype_length = 2.5"),
        ("eldt", "g_max = 2.5"),
        ("eldt", "q_init_low = abc"),
        ("eldt", "q_init_low = nan"),
        ("eldt", "q_init_high = inf"),
        ("eldt", "penalty_fitness = abc"),
        ("eldt", "penalty_fitness = nan"),
        ("eldt", "mutation_prob = true"),
        ("ga", "crossover_prob = true"),
        ("aco", "tau_max = true"),
        ("gp", "max_depth = abc"),
        ("gp", "max_depth = 0"),
        ("gp", "max_depth = -3"),
    ])
    def test_mistyped_value(self, mob_dataset, tmp_path, algo, text):
        err = self.run_with(mob_dataset, tmp_path, algo, text + "\n")
        assert text.split(" = ")[0] in err


class TestBadSettings:
    """Bad --sim-params, or --params for greedy, exit 1 with one error line
    before any run."""

    def run_with(self, argv, flag, text, tmp_path):
        settings = tmp_path / "settings.kv"
        settings.write_text(text)
        out = tmp_path / "out"
        done = run_cli_bounded(["run", *argv, "--budget", "20", "--runs", "2",
                                "--out", str(out), flag, str(settings)])
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr
        assert not out.exists()
        return done.stderr

    def test_unknown_makeorbuy_sim_param(self, mob_dataset, tmp_path):
        err = self.run_with(["--problem", "makeorbuy", "--algo", "rs",
                             "--dataset", mob_dataset],
                            "--sim-params", "gravity = 9.8\n", tmp_path)
        assert "unknown" in err and "gravity" in err

    def test_scalar_makeorbuy_range(self, mob_dataset, tmp_path):
        err = self.run_with(["--problem", "makeorbuy", "--algo", "eldt",
                             "--dataset", mob_dataset],
                            "--sim-params", "travel = 0.2\n", tmp_path)
        assert "travel" in err and "pair" in err

    @pytest.mark.parametrize("text, words", [
        ("gravity = 9.8\n", ("unknown", "gravity")),
        ("transport_days = 1, 2\n", ("transport_days", "number")),
        ("capacity_m = lots\n", ("capacity_m", "number")),
        ("capacity_e = 0\n", ("capacity_e", ">= 1")),
        ("assembly_areas = 0\n", ("assembly_areas", ">= 1")),
        ("transport_days = -1\n", ("transport_days", ">= 0")),
    ], ids=["unknown-key", "tuple", "non-numeric", "capacity-below-1", "areas-below-1",
            "negative-transport"])
    def test_bad_hfs_sim_param(self, hfs_dataset, tmp_path, text, words):
        err = self.run_with(["--problem", "hfs", "--algo", "gp", "--workers", "2",
                             "--dataset", hfs_dataset],
                            "--sim-params", text, tmp_path)
        assert all(word in err for word in words), err

    def test_unknown_eldt_param(self, hfs_dataset, tmp_path):
        err = self.run_with(["--problem", "hfs", "--algo", "eldt", "--workers", "2",
                             "--dataset", hfs_dataset],
                            "--params", "temperature = 3\n", tmp_path)
        assert "unknown run_eldt params" in err and "temperature" in err

    def test_start_date_is_an_unknown_makeorbuy_sim_param(self, mob_dataset, tmp_path):
        err = self.run_with(["--problem", "makeorbuy", "--algo", "eldt",
                             "--dataset", mob_dataset],
                            "--sim-params", "start_date = 2024-06-19\n", tmp_path)
        assert "unknown" in err and "start_date" in err

    def test_greedy_rejects_params(self, hfs_dataset, tmp_path):
        err = self.run_with(["--problem", "hfs", "--algo", "greedy",
                             "--dataset", hfs_dataset],
                            "--params", "temperature = 3\n", tmp_path)
        assert "greedy" in err and "temperature" in err


class TestTinyTravelTime:
    def test_run_exits_instead_of_hanging(self, mob_dataset, tmp_path):
        settings = tmp_path / "sim.kv"
        settings.write_text("travel = 1e-300, 1e-300\n")
        done = run_cli_bounded(["run", "--problem", "makeorbuy", "--algo", "rs",
                                "--dataset", mob_dataset, "--budget", "5", "--runs", "1",
                                "--out", str(tmp_path / "out"), "--sim-params", str(settings)],
                               timeout=30)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: travel lo 1e-300 is too small")
        assert "Traceback" not in done.stderr and not (tmp_path / "out").exists()


class TestNegativeSeed:
    def test_run_rejects_a_negative_seed(self, mob_dataset, tmp_path):
        out = tmp_path / "out"
        done = run_cli_bounded(["run", "--problem", "makeorbuy", "--algo", "eldt",
                                "--dataset", mob_dataset, "--budget", "5", "--runs", "1",
                                "--seed", "-1", "--out", str(out)])
        assert done.returncode == 1
        assert done.stderr.startswith("error: seed must be an integer >= 0, got -1")
        assert "Traceback" not in done.stderr and not out.exists()


class TestNonFinitePhaseDurations:
    """A NaN or infinite phase duration in a machine_types file exits 1,
    naming the file, the machine type and the phase, before any run."""

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_rejected(self, hfs_dataset, tmp_path, duration):
        types = tmp_path / "types.csv"
        types.write_text("machine_type,phase_index,category,duration_days\n"
                         f"LT7,0,M,{duration}\nLT7,1,R,2\n")
        settings = tmp_path / "sim.kv"
        settings.write_text(f"machine_types = {types}\n")
        out = tmp_path / "out"
        done = run_cli_bounded(["run", "--problem", "hfs", "--algo", "greedy",
                                "--dataset", hfs_dataset, "--sim-params", str(settings),
                                "--out", str(out)])
        assert done.returncode == 1, done.stdout
        assert done.stderr.startswith(f"error: {types}: machine type 'LT7' phase 0:")
        assert "finite" in done.stderr and "Traceback" not in done.stderr
        assert not out.exists()


class TestShortMachineTypeRow:
    def test_rejected_with_file_and_line(self, hfs_dataset, tmp_path):
        types = tmp_path / "types.csv"
        types.write_text("machine_type,phase_index,category,duration_days\n"
                         "LT7,0,M,2\nLT7,1\n")
        settings = tmp_path / "sim.kv"
        settings.write_text(f"machine_types = {types}\n")
        out = tmp_path / "out"
        done = run_cli_bounded(["run", "--problem", "hfs", "--algo", "greedy",
                                "--dataset", hfs_dataset, "--sim-params", str(settings),
                                "--out", str(out)])
        assert done.returncode == 1, done.stdout
        assert done.stderr.startswith(f"error: {types}, line 3:")
        assert "Traceback" not in done.stderr and not out.exists()


class TestLongDatasetRow:
    def test_rejected_with_file_and_line(self, tmp_path):
        dataset = tmp_path / "orders.csv"
        dataset.write_text("id,qty_a,qty_b,qty_c,deadline_day\n0,1,2,3,900,77\n")
        out = tmp_path / "out"
        done = run_cli_bounded(["run", "--problem", "makeorbuy", "--algo", "rs",
                                "--dataset", str(dataset), "--budget", "5",
                                "--runs", "1", "--out", str(out)])
        assert done.returncode == 1, done.stdout
        assert done.stderr.startswith(f"error: {dataset}, line 2: 1 more value")
        assert "Traceback" not in done.stderr and not out.exists()


class TestNonFiniteDays:
    """A NaN or infinite day in a dataset exits 1 with the file and line,
    before any run."""

    @pytest.mark.parametrize("problem, algo, row", [
        ("hfs", "eldt", "0,LT7,nan,1,2"),
        ("hfs", "greedy", "0,LT7,30,1,inf"),
        ("hfs", "gp", "0,LT7,30,1,inf"),
        ("makeorbuy", "rs", "0,1,2,1,nan"),
        ("makeorbuy", "eldt", "0,1,2,1,inf"),
    ])
    def test_rejected_with_file_and_line(self, tmp_path, problem, algo, row):
        header = ("id,machine_type,due_day,basement_day,panel_day" if problem == "hfs"
                  else "id,qty_a,qty_b,qty_c,deadline_day")
        dataset = tmp_path / "data.csv"
        dataset.write_text(f"{header}\n{row}\n")
        out = tmp_path / "out"
        done = run_cli_bounded(["run", "--problem", problem, "--algo", algo,
                                "--dataset", str(dataset), "--budget", "5",
                                "--runs", "1", "--out", str(out)])
        assert done.returncode == 1, done.stdout
        assert done.stderr.startswith(f"error: {dataset}, line 2:")
        assert "finite" in done.stderr and "Traceback" not in done.stderr
        assert not out.exists()


class TestInputFiles:
    """The dataset, the machine_types file and the --grammar file are read
    once per campaign, before any run: a bad one exits 1 with one error line
    and no run starts."""

    @pytest.fixture()
    def runs_started(self, monkeypatch):
        started = []

        def run(*args, **kwargs):
            started.append(args)
            raise AssertionError("a run started")

        monkeypatch.setattr(evoscm.bench, "run_eldt", run)
        monkeypatch.setattr(evoscm.bench, "gp_evolve", run)
        return started

    def run_bad(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", *argv, "--budget", "20", "--runs", "3",
                        "--workers", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()
        return err

    def test_malformed_grammar(self, mob_dataset, tmp_path, capsys, runs_started):
        grammar = tmp_path / "policy.bnf"
        grammar.write_text("<policy> ::= <policy>\n<leaf> ::=\n")
        err = self.run_bad(["--problem", "makeorbuy", "--algo", "eldt",
                            "--dataset", mob_dataset, "--grammar", str(grammar)],
                           tmp_path, capsys)
        assert "<leaf>" in err
        assert runs_started == []

    @pytest.mark.parametrize("exists", [False, True])
    def test_grammar_with_another_algo(self, hfs_dataset, tmp_path, capsys, runs_started,
                                       exists):
        grammar = tmp_path / "policy.bnf"
        if exists:
            spec = evoscm.HfsEnv(load_hfs(hfs_dataset)).spec
            grammar.write_text(evoscm.default_policy_grammar(spec).to_bnf())
        err = self.run_bad(["--problem", "hfs", "--algo", "gp", "--dataset", hfs_dataset,
                            "--grammar", str(grammar)], tmp_path, capsys)
        assert "eldt only" in err
        assert runs_started == []

    @pytest.mark.parametrize("algo", ["eldt", "gp"])
    def test_malformed_dataset(self, tmp_path, capsys, runs_started, algo):
        dataset = tmp_path / "jobs.csv"
        dataset.write_text("id,machine_type\n0,LT7\n")
        err = self.run_bad(["--problem", "hfs", "--algo", algo, "--dataset", str(dataset)],
                           tmp_path, capsys)
        assert "missing columns" in err
        assert runs_started == []

    def test_malformed_machine_types(self, hfs_dataset, tmp_path, capsys, runs_started):
        types = tmp_path / "types.csv"
        types.write_text("machine_type,phase_index\nLT7,0\n")
        settings = tmp_path / "sim.kv"
        settings.write_text(f"machine_types = {types}\n")
        err = self.run_bad(["--problem", "hfs", "--algo", "gp", "--dataset", hfs_dataset,
                            "--sim-params", str(settings)], tmp_path, capsys)
        assert "missing columns" in err
        assert runs_started == []

    def test_campaign_loads_the_dataset_once(self, hfs_dataset, tmp_path, monkeypatch):
        loads = []
        load_hfs = evoscm.datagen.load_hfs

        def counted(*args, **kwargs):
            loads.append(args)
            return load_hfs(*args, **kwargs)

        monkeypatch.setattr(evoscm.datagen, "load_hfs", counted)
        code = run_cli(["run", "--problem", "hfs", "--algo", "gp", "--dataset", hfs_dataset,
                        "--budget", "6", "--runs", "3", "--workers", "2",
                        "--out", str(tmp_path / "out")])
        assert code == 0
        assert len(loads) == 1


class TestWorkerFailures:
    """A run that fails on a worker thread ends the campaign with exit 1
    and one error line, and writes no artifacts."""

    def test_error_raised_in_a_worker(self, mob_dataset, tmp_path):
        # the grammar parses, but only a run's decode finds the unknown feature
        grammar = tmp_path / "policy.bnf"
        grammar.write_text("<dt> ::= if gravity > 1 then leaf else leaf\n")
        out = tmp_path / "out"
        done = run_cli_bounded(["run", "--problem", "makeorbuy", "--algo", "eldt",
                                "--dataset", mob_dataset, "--grammar", str(grammar),
                                "--budget", "20", "--runs", "3", "--workers", "2",
                                "--out", str(out)])
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error:") and "gravity" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_grammar_that_never_yields_a_policy(self, mob_dataset, tmp_path):
        # every derivation recurses on <dt> until the genotype runs out of codons
        grammar = tmp_path / "policy.bnf"
        grammar.write_text("<dt> ::= if <cond> then <dt> else <dt>\n"
                           "<cond> ::= qty_a > 1\n")
        out = tmp_path / "out"
        done = run_cli_bounded(["run", "--problem", "makeorbuy", "--algo", "eldt",
                                "--dataset", mob_dataset, "--grammar", str(grammar),
                                "--budget", "20", "--runs", "1", "--out", str(out)])
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error:") and "decode failures" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()


class TestBadOutDir:
    """An output path that cannot become a directory exits 1, naming the
    path, before any run starts."""

    @pytest.mark.parametrize("below", [True, False], ids=["under-a-file", "a-file"])
    def test_rejected_before_any_run(self, mob_dataset, tmp_path, capsys, monkeypatch,
                                     below):
        def run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(evoscm.bench, "_run_one", run)
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "x" if below else afile
        code = run_cli(["run", "--problem", "makeorbuy", "--algo", "ga", "--dataset",
                        mob_dataset, "--budget", "20", "--runs", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error:") and str(out) in err and "Traceback" not in err
        assert afile.read_text() == ""


class TestCompareCommand:
    def test_compare_two_dirs(self, mob_dataset, tmp_path, capsys):
        dirs = []
        for algo in ("rs", "aco"):
            out = tmp_path / algo
            run_cli(["run", "--problem", "makeorbuy", "--algo", algo,
                     "--dataset", mob_dataset, "--budget", "15",
                     "--runs", "3", "--out", str(out)])
            dirs.append(str(out))
        capsys.readouterr()
        matrix = tmp_path / "compare.csv"
        code = run_cli(["compare", "--in", *dirs, "--out", str(matrix)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "algo_a,algo_b,n_a,n_b,u_statistic,p_value,significant"
        assert len(lines) == 2
        assert lines[1].split(",")[-1] in ("yes", "no")
        assert matrix.exists()

    def test_alpha_flips_significance(self, mob_dataset, tmp_path, capsys):
        dirs = []
        for algo in ("rs", "ga"):
            out = tmp_path / algo
            run_cli(["run", "--problem", "makeorbuy", "--algo", algo,
                     "--dataset", mob_dataset, "--budget", "10",
                     "--runs", "2", "--out", str(out)])
            dirs.append(str(out))
        capsys.readouterr()
        run_cli(["compare", "--in", *dirs, "--alpha", "1.5"])
        lines = capsys.readouterr().out.strip().splitlines()
        # every p-value is below an alpha of 1.5
        assert all(ln.endswith(",yes") for ln in lines[1:])

    def run_compare(self, mob_dataset, tmp_path, extra):
        dirs = []
        for algo in ("rs", "ga"):
            out = tmp_path / algo
            assert run_cli(["run", "--problem", "makeorbuy", "--algo", algo,
                            "--dataset", mob_dataset, "--budget", "10",
                            "--runs", "2", "--out", str(out)]) == 0
            dirs.append(str(out))
        return run_cli_bounded(["compare", "--in", *dirs, *extra(dirs)])

    @pytest.mark.parametrize("again", [
        lambda dirs: dirs[0],
        lambda dirs: os.path.join(dirs[0], "..", os.path.basename(dirs[0])),
        lambda dirs: dirs[0] + os.sep,
    ], ids=["same-path", "dot-dot", "trailing-separator"])
    def test_directory_given_twice(self, mob_dataset, tmp_path, again):
        done = self.run_compare(mob_dataset, tmp_path, lambda dirs: [again(dirs)])
        assert done.returncode == 1, done.stdout
        assert done.stderr.startswith("error:") and "more than once" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "-0.5"])
    def test_alpha_must_be_finite_and_positive(self, mob_dataset, tmp_path, alpha):
        done = self.run_compare(mob_dataset, tmp_path, lambda dirs: [f"--alpha={alpha}"])
        assert done.returncode == 1, done.stdout
        assert done.stderr.startswith("error: --alpha must be a finite number > 0")
        assert "Traceback" not in done.stderr and done.stdout == ""

    def test_missing_dir(self, tmp_path, capsys):
        code = run_cli(["compare", "--in", str(tmp_path / "missing")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_finals_without_objective_column(self, tmp_path):
        dirs = []
        for algo in ("rs", "ga"):
            d = tmp_path / algo
            d.mkdir()
            (d / "finals.csv").write_text(f"# header\nalgo,run,seed\n{algo},0,0\n")
            dirs.append(str(d))
        done = run_cli_bounded(["compare", "--in", *dirs])
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {dirs[0]}")
        assert "finals.csv" in done.stderr and "final_objective" in done.stderr
        assert "Traceback" not in done.stderr


    @pytest.mark.parametrize("value", ["abc", "nan"])
    def test_non_finite_objective(self, tmp_path, value):
        dirs = []
        for algo in ("rs", "ga"):
            d = tmp_path / algo
            d.mkdir()
            (d / "finals.csv").write_text(f"# header\nalgo,final_objective\n{algo},1.5\n"
                                          f"{algo},{value if algo == 'ga' else 2.5}\n")
            dirs.append(str(d))
        done = run_cli_bounded(["compare", "--in", *dirs])
        assert done.returncode == 1, done.stdout
        assert done.stderr.startswith(f"error: {dirs[1]}")
        assert f"finals.csv, line 4: final_objective must be a finite number, " \
               f"got '{value}'" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2

    def test_run_requires_dataset(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "hfs", "--algo", "rs",
                     "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
