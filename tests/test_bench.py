import inspect
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from evoscm import (
    Condition,
    DecisionTree,
    ExperimentConfig,
    HfsEnv,
    Leaf,
    MakeOrBuyEnv,
    RunRecord,
    aggregate,
    compare_dirs,
    emit_trend_csv,
    gen_hfs,
    gen_makeorbuy,
    run_experiment,
    save_hfs,
    Split,
    save_makeorbuy,
    wilcoxon_rank_sum,
    write_artifacts,
)
from evoscm.bench import RUNNERS, load_inputs
from evoscm.datagen import DataError, default_machine_types
from evoscm.evolve import _PROBABILITIES, _REALS, _SIZES

from oracles import ranksum_p_oracle


def make_record(algo, seed, trace, solution="s"):
    return RunRecord(algo=algo, seed=seed, trace=list(trace),
                     final_objective=trace[-1], solution=solution,
                     episodes=len(trace))


class TestAggregate:
    def test_mean_and_sample_std(self):
        assert aggregate([1, 2, 3]) == (2.0, 1.0)

    def test_single_value(self):
        assert aggregate([5]) == (5.0, 0.0)

    def test_constant_values(self):
        mean, std = aggregate([4.0] * 7)
        assert (mean, std) == (4.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_matches_numpy_ddof1(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.normal(size=int(rng.integers(2, 30))).tolist()
            mean, std = aggregate(vals)
            assert math.isclose(mean, np.mean(vals), rel_tol=1e-12)
            assert math.isclose(std, np.std(vals, ddof=1), rel_tol=1e-12)


class TestWilcoxonRankSum:
    def test_separated_triples(self):
        u, p = wilcoxon_rank_sum([1, 2, 3], [10, 20, 30])
        assert u == 0.0
        assert abs(p - 0.1) <= 1e-12

    def test_separated_pairs(self):
        u, p = wilcoxon_rank_sum([1, 2], [3, 4])
        assert u == 0.0
        assert abs(p - 1 / 3) <= 1e-12

    def test_identical_samples(self):
        u, p = wilcoxon_rank_sum([2, 2, 2], [2, 2, 2])
        assert abs(p - 1.0) <= 1e-12

    def test_symmetry(self):
        a, b = [3.0, 1.0, 4.0, 1.5], [2.0, 2.5, 0.5]
        _, p_ab = wilcoxon_rank_sum(a, b)
        _, p_ba = wilcoxon_rank_sum(b, a)
        assert abs(p_ab - p_ba) <= 1e-12

    def test_exact_branch_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_a = int(rng.integers(1, 7))
            n_b = int(rng.integers(1, 13 - n_a))
            a = [float(v) for v in rng.integers(0, 6, size=n_a)]
            b = [float(v) for v in rng.integers(0, 6, size=n_b)]
            u, p = wilcoxon_rank_sum(a, b)
            u_ref, p_ref = ranksum_p_oracle(a, b)
            assert abs(u - u_ref) <= 1e-12
            assert abs(p - float(p_ref)) <= 1e-12

    def test_normal_branch_matches_scipy_without_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=12).tolist()
            b = rng.normal(size=9).tolist()
            _, p = wilcoxon_rank_sum(a, b)
            assert math.isclose(p, stats.ranksums(a, b).pvalue, rel_tol=1e-9)

    def test_normal_branch_tie_correction_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(0, 4, size=11).astype(float).tolist()
            b = rng.integers(0, 4, size=10).astype(float).tolist()
            u, p = wilcoxon_rank_sum(a, b)
            ref = stats.mannwhitneyu(a, b, use_continuity=False,
                                     alternative="two-sided",
                                     method="asymptotic")
            assert math.isclose(u, float(ref.statistic), rel_tol=1e-12)
            assert math.isclose(p, float(ref.pvalue), rel_tol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])


class TestEmitTrend:
    def test_mean_and_std_rows(self, tmp_path):
        recs = [make_record("rs", 0, [1.0, 2.0, 3.0]),
                make_record("rs", 1, [3.0, 4.0, 5.0])]
        path = tmp_path / "trend.csv"
        emit_trend_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algo,eval_index,mean_best,std_best"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[1] for r in rows] == ["1", "2", "3"]
        means = [float(r[2]) for r in rows]
        stds = [float(r[3]) for r in rows]
        assert means == [2.0, 3.0, 4.0]
        assert all(math.isclose(s, math.sqrt(2)) for s in stds)

    def test_single_run_std_zero(self, tmp_path):
        path = tmp_path / "trend.csv"
        emit_trend_csv([make_record("ga", 0, [7.0, 8.0])], path)
        rows = path.read_text().splitlines()[1:]
        assert all(row.endswith(",0.0") for row in rows)

    def test_algorithms_may_differ_in_length(self, tmp_path):
        recs = [make_record("greedy", 0, [9.0]),
                make_record("rs", 0, [1.0, 2.0]),
                make_record("rs", 1, [2.0, 2.0])]
        path = tmp_path / "trend.csv"
        emit_trend_csv(recs, path)
        rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("greedy", "1"), ("rs", "1"), ("rs", "2")]

    def test_mixed_lengths_within_algo_rejected(self, tmp_path):
        recs = [make_record("rs", 0, [1.0]), make_record("rs", 1, [1.0, 2.0])]
        with pytest.raises(ValueError, match="trace lengths"):
            emit_trend_csv(recs, tmp_path / "trend.csv")

    def test_header_lines_prefixed(self, tmp_path):
        path = tmp_path / "trend.csv"
        emit_trend_csv([make_record("rs", 0, [1.0])], path,
                       header_lines=["# hello", "# world"])
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# hello", "# world"]
        assert lines[2] == "algo,eval_index,mean_best,std_best"


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(problem="hfs", algo="rs", dataset="x.csv")
        assert cfg.budget == 5000 and cfg.runs == 10 and cfg.workers == 1

    @pytest.mark.parametrize("kwargs", [
        {"problem": "tsp", "algo": "rs"},
        {"problem": "hfs", "algo": "sa"},
        {"problem": "hfs", "algo": "rs", "budget": 0},
        {"problem": "hfs", "algo": "rs", "runs": 0},
        {"problem": "hfs", "algo": "rs", "workers": 0},
        {"problem": "makeorbuy", "algo": "greedy"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x.csv", **kwargs)

    @pytest.mark.parametrize("name, value", [
        ("budget", 2.5), ("budget", True), ("budget", "5"), ("budget", -3),
        ("runs", 2.5), ("runs", True), ("runs", None),
        ("workers", 1.5), ("workers", True), ("workers", 0),
    ])
    def test_counts_are_integers_of_at_least_one(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got "):
            ExperimentConfig(problem="hfs", algo="rs", dataset="x.csv", **{name: value})

    def test_integer_like_counts_are_accepted(self):
        cfg = ExperimentConfig(problem="hfs", algo="rs", dataset="x.csv",
                               budget=np.int64(7), runs=2, workers=np.int32(1))
        assert (cfg.budget, cfg.runs, cfg.workers) == (7, 2, 1)

    @pytest.mark.parametrize("algo", sorted(RUNNERS))
    def test_every_runner_hyperparameter_is_range_checked(self, algo):
        # check_values passes a name it does not know, so a runner keyword
        # missing from these tables would reach the run unchecked
        keywords = [name for name, p in inspect.signature(RUNNERS[algo]).parameters.items()
                    if p.kind is p.KEYWORD_ONLY]
        unchecked = set(keywords) - set(_SIZES + _PROBABILITIES + _REALS)
        assert not unchecked, f"{algo}: {sorted(unchecked)}"


@pytest.fixture(scope="module")
def mob_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "orders.csv"
    save_makeorbuy(gen_makeorbuy(10, seed=0), path)
    return str(path)


@pytest.fixture(scope="module")
def hfs_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "jobs.csv"
    save_hfs(gen_hfs("d1", 8, seed=0), path)
    return str(path)


class TestRunExperiment:
    def test_seeds_and_artifacts(self, mob_dataset, tmp_path):
        cfg = ExperimentConfig(problem="makeorbuy", algo="rs",
                               dataset=mob_dataset, budget=30, runs=3,
                               seed=5, out_dir=str(tmp_path / "rs"))
        records = run_experiment(cfg)
        assert [r.seed for r in records] == [5, 6, 7]
        assert all(r.episodes == 30 and len(r.trace) == 30 for r in records)
        assert all(r.problem == "makeorbuy" and r.dataset == mob_dataset
                   for r in records)
        for name in ("history.csv", "finals.csv", "summary.csv", "trend.csv"):
            assert (tmp_path / "rs" / name).exists()

    def test_greedy_runs_once(self, hfs_dataset, tmp_path):
        cfg = ExperimentConfig(problem="hfs", algo="greedy",
                               dataset=hfs_dataset, budget=100, runs=10,
                               out_dir=str(tmp_path / "g"))
        records = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].episodes == 1

    def test_worker_count_never_changes_artifacts(self, hfs_dataset, tmp_path):
        outs = {}
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            cfg = ExperimentConfig(problem="hfs", algo="ga",
                                   dataset=hfs_dataset, budget=60, runs=4,
                                   seed=2, out_dir=str(out), workers=workers)
            run_experiment(cfg)
            outs[workers] = {p.name: p.read_bytes()
                             for p in sorted(out.iterdir())}
        assert outs[1] == outs[3]

    @pytest.mark.parametrize("algo, params", [("gp", {"population_size": 5}),
                                              ("eldt", {"population_size": 6})])
    def test_worker_count_never_changes_policy_artifacts(self, hfs_dataset, tmp_path,
                                                          algo, params):
        outs = {}
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            run_experiment(ExperimentConfig(problem="hfs", algo=algo, dataset=hfs_dataset,
                                            budget=30, runs=4, seed=3, out_dir=str(out),
                                            workers=workers, params=params))
            outs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert "best_tree.txt" in outs[1]
        assert outs[1] == outs[2] == outs[4]

    def test_more_workers_than_runs(self, hfs_dataset, tmp_path):
        def records(workers):
            return run_experiment(ExperimentConfig(
                problem="hfs", algo="ga", dataset=hfs_dataset, budget=20, runs=2,
                out_dir=str(tmp_path / f"w{workers}"), workers=workers))

        assert records(5) == records(1)

    def test_rerun_is_byte_identical(self, mob_dataset, tmp_path):
        def snap(out):
            cfg = ExperimentConfig(problem="makeorbuy", algo="aco",
                                   dataset=mob_dataset, budget=40, runs=2,
                                   seed=1, out_dir=str(out))
            run_experiment(cfg)
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        assert snap(tmp_path / "a") == snap(tmp_path / "b")

    def test_policy_algo_writes_tree_files(self, mob_dataset, tmp_path):
        out = tmp_path / "eldt"
        cfg = ExperimentConfig(problem="makeorbuy", algo="eldt",
                               dataset=mob_dataset, budget=40, runs=2,
                               out_dir=str(out),
                               params={"population_size": 6,
                                       "episodes_per_eval": 2})
        records = run_experiment(cfg)
        assert (out / "best_tree.txt").exists()
        assert (out / "best_tree.dot").exists()
        assert (out / "best_tree.txt").read_text().startswith("# best run seed=")
        # revenue units: every trace entry is a plausible revenue value
        for rec in records:
            assert all(v <= 10 * 100 * 10 for v in rec.trace)

    def test_hfs_policy_traces_are_makespans(self, hfs_dataset, tmp_path):
        cfg = ExperimentConfig(problem="hfs", algo="gp", dataset=hfs_dataset,
                               budget=30, runs=2, out_dir=str(tmp_path / "gp"),
                               params={"population_size": 5})
        records = run_experiment(cfg)
        for rec in records:
            assert all(v > 0 for v in rec.trace)
            assert all(a >= b for a, b in zip(rec.trace, rec.trace[1:]))
            assert rec.final_objective == rec.trace[-1]

    def test_history_rows_match_traces(self, mob_dataset, tmp_path):
        out = tmp_path / "h"
        cfg = ExperimentConfig(problem="makeorbuy", algo="rs",
                               dataset=mob_dataset, budget=12, runs=2,
                               out_dir=str(out))
        records = run_experiment(cfg)
        lines = [ln for ln in (out / "history.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "algo,run,seed,eval_index,best"
        assert len(lines) == 1 + 2 * 12
        first = lines[1].split(",")
        assert first == ["rs", "0", "0", "1", repr(records[0].trace[0])]

    def test_header_records_config(self, mob_dataset, tmp_path):
        out = tmp_path / "hdr"
        cfg = ExperimentConfig(problem="makeorbuy", algo="rs",
                               dataset=mob_dataset, budget=5, runs=1, seed=9,
                               out_dir=str(out))
        run_experiment(cfg)
        head = (out / "summary.csv").read_text().splitlines()[0]
        assert head.startswith("#")
        for token in ("problem=makeorbuy", "algo=rs", "budget=5", "runs=1",
                      "base_seed=9"):
            assert token in head

    def test_unknown_sim_param_rejected(self, hfs_dataset, tmp_path):
        with pytest.raises(ValueError, match="gravity"):
            ExperimentConfig(problem="hfs", algo="rs", dataset=hfs_dataset,
                             budget=5, runs=1, out_dir=str(tmp_path / "x"),
                             sim_params={"gravity": 9.8})


class TestLoadInputs:
    @pytest.mark.parametrize("problem", ["hfs", "makeorbuy"])
    def test_inputs_survive_pickling(self, problem, hfs_dataset, mob_dataset, tmp_path):
        dataset = hfs_dataset if problem == "hfs" else mob_dataset
        cfg = ExperimentConfig(problem=problem, algo="eldt", dataset=dataset,
                               budget=3, runs=1, out_dir=str(tmp_path))
        inputs = load_inputs(cfg)
        assert pickle.loads(pickle.dumps(inputs)) == inputs
        assert inputs.grammar is not None

    @pytest.mark.parametrize("problem, algo, env_class",
                             [("makeorbuy", "eldt", MakeOrBuyEnv), ("hfs", "gp", HfsEnv)])
    def test_one_environment_per_run(self, problem, algo, env_class, hfs_dataset,
                                     mob_dataset, tmp_path, monkeypatch):
        built = []
        init = env_class.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(env_class, "__init__", counting_init)
        dataset = hfs_dataset if problem == "hfs" else mob_dataset
        run_experiment(ExperimentConfig(problem=problem, algo=algo, dataset=dataset,
                                        budget=12, runs=3, out_dir=str(tmp_path)))
        # One per run, and the one load_inputs builds for the campaign's spec.
        assert len(built) == 4


class TestWriteArtifacts:
    def test_tree_labels_come_from_the_campaign_machine_types(self, hfs_dataset, tmp_path):
        # "AA" sorts before every default type, so it takes category code 0
        types = tmp_path / "types.csv"
        rows = ["machine_type,phase_index,category,duration_days"]
        for name, phases in [*default_machine_types().items(), ("AA", [("M", 1.0)])]:
            rows += [f"{name},{i},{cat},{days}" for i, (cat, days) in enumerate(phases)]
        types.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(problem="hfs", algo="gp", dataset=hfs_dataset, budget=1,
                               runs=1, out_dir=str(tmp_path / "out"),
                               sim_params={"machine_types": str(types)})
        tree = DecisionTree(Split(Condition(0, "==", 0.0), Leaf([1.0, 0.0]), Leaf([0.0, 1.0])))
        rec = make_record("gp", 0, [1.0])
        rec.artifacts = {"pruned_tree": tree}
        write_artifacts(cfg, [rec], load_inputs(cfg).spec)
        assert "if machine_type == AA:" in (tmp_path / "out" / "best_tree.txt").read_text()

    @pytest.mark.parametrize("problem", ["makeorbuy", "hfs"])
    def test_tied_best_runs_name_the_first(self, problem, tmp_path):
        spec = (MakeOrBuyEnv(gen_makeorbuy(3, seed=0)) if problem == "makeorbuy"
                else HfsEnv(gen_hfs("d1", 3, seed=0))).spec
        cfg = ExperimentConfig(problem=problem, algo="gp", dataset="data.csv", budget=1,
                               runs=3, out_dir=str(tmp_path))
        worse, best = (1.0, 2.0) if cfg.maximize else (2.0, 1.0)
        recs = [make_record("gp", seed, [value])
                for seed, value in [(10, worse), (11, best), (12, best)]]
        for rec in recs:
            rec.artifacts = {"pruned_tree": DecisionTree(Leaf([0.0, 1.0]))}
        write_artifacts(cfg, recs, spec)
        note = (tmp_path / "best_tree.txt").read_text().splitlines()[0]
        assert note == f"# best run seed=11 final_objective={best!r}"

    def test_summary_contents(self, tmp_path):
        cfg = ExperimentConfig(problem="hfs", algo="rs", dataset="jobs.csv",
                               budget=3, runs=2, out_dir=str(tmp_path))
        recs = [make_record("rs", 0, [30.0, 28.0, 28.0]),
                make_record("rs", 1, [26.0, 26.0, 24.0])]
        write_artifacts(cfg, recs)
        lines = [ln for ln in (tmp_path / "summary.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "algo,problem,dataset,runs,budget,mean_final,std_final"
        row = lines[1].split(",")
        assert row[:5] == ["rs", "hfs", "jobs.csv", "2", "3"]
        assert float(row[5]) == 26.0


class TestCompareDirs:
    def run_two(self, mob_dataset, tmp_path):
        dirs = []
        for algo in ("rs", "ga"):
            out = tmp_path / algo
            cfg = ExperimentConfig(problem="makeorbuy", algo=algo,
                                   dataset=mob_dataset, budget=25, runs=4,
                                   out_dir=str(out))
            run_experiment(cfg)
            dirs.append(str(out))
        return dirs

    def test_pairwise_rows(self, mob_dataset, tmp_path):
        dirs = self.run_two(mob_dataset, tmp_path)
        rows = compare_dirs(dirs)
        assert len(rows) == 1
        a, b, n_a, n_b, u, p = rows[0]
        assert (a, b) == ("ga", "rs")
        assert (n_a, n_b) == (4, 4)
        assert 0 <= p <= 1

    def test_matches_direct_ranksum(self, mob_dataset, tmp_path):
        dirs = self.run_two(mob_dataset, tmp_path)
        finals = {}
        for d in dirs:
            import csv as _csv
            with open(f"{d}/finals.csv") as fh:
                body = [ln for ln in fh if not ln.startswith("#")]
            for row in _csv.DictReader(body):
                finals.setdefault(row["algo"], []).append(
                    float(row["final_objective"]))
        rows = compare_dirs(dirs)
        u_ref, p_ref = wilcoxon_rank_sum(finals["ga"], finals["rs"])
        assert rows[0][4] == u_ref and rows[0][5] == p_ref

    def test_out_csv_written(self, mob_dataset, tmp_path):
        dirs = self.run_two(mob_dataset, tmp_path)
        out = tmp_path / "compare.csv"
        compare_dirs(dirs, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "algo_a,algo_b,n_a,n_b,u_statistic,p_value"
        assert len(lines) == 2

    def test_missing_finals(self, tmp_path):
        with pytest.raises(DataError, match="finals.csv"):
            compare_dirs([str(tmp_path)])

    def test_finals_not_utf8(self, tmp_path):
        (tmp_path / "finals.csv").write_bytes(b"algo,final_objective\nga,1\nrs,\xff2\n")
        with pytest.raises(DataError, match=r"finals\.csv, line 3: byte 0xff is not UTF-8"):
            compare_dirs([str(tmp_path)])

    def test_single_algo_rejected(self, mob_dataset, tmp_path):
        out = tmp_path / "one"
        cfg = ExperimentConfig(problem="makeorbuy", algo="rs",
                               dataset=mob_dataset, budget=5, runs=2,
                               out_dir=str(out))
        run_experiment(cfg)
        with pytest.raises(ValueError, match="at least two"):
            compare_dirs([str(out)])
