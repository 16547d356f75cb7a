"""Seeded fuzz of ``bench run``, called in process through ``cli.main``.

Each random case runs one algorithm at a budget of at most 30 on a small
dataset, after mutating up to two dataset cells, one ``--params`` key and one
``--sim-params`` key. Whatever the inputs, ``main`` must return 0 or 1, let
no exception escape, and print an ``error:`` line when it returns 1. A case
is bounded by ``signal.alarm``, and size hyperparameters only take small
values, so no case runs long or allocates much memory. The fixed cases are
huge but finite inputs, and a truck travel time far below the production
times, that once ended in a traceback, an absurd answer or a long run.
"""

import inspect
import signal
from dataclasses import fields

import numpy as np
import pytest

from evoscm import gen_hfs, gen_makeorbuy
from evoscm.bench import RUNNERS
from evoscm.cli import main
from evoscm.datagen import default_machine_types
from evoscm.flowshop import HFS_SIM_PARAMS
from evoscm.makeorbuy import MakeOrBuyParams

CASES = 300
CASE_SECONDS = 20
VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e6", "1e-300", "-0.0", "", "abc",
          "1, 2", "0", "1", "3", "0.5", "-1", "1e-300, 1e6", "1e6, 1e6", "1e308, 1e308")
ALGOS = {"hfs": ("eldt", "rs", "ga", "aco", "greedy", "gp"),
         "makeorbuy": ("eldt", "rs", "ga", "aco", "gp")}
SIM_KEYS = {"hfs": HFS_SIM_PARAMS,
            "makeorbuy": tuple(f.name for f in fields(MakeOrBuyParams))}


class CaseTimeout(BaseException):
    """Not an ``OSError`` like ``TimeoutError``, which ``main`` would report
    as an input error."""


def _on_alarm(signum, frame):
    raise CaseTimeout(f"case ran over {CASE_SECONDS} s")


@pytest.fixture()
def alarm():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def write_table(path, rows):
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    return str(path)


def dataset_rows(problem):
    if problem == "hfs":
        jobs = gen_hfs("d1", 6, seed=0).jobs
        return [["id", "machine_type", "due_day", "basement_day", "panel_day"]] + [
            [j.id, j.machine_type, j.due_day, j.basement_day, j.panel_day] for j in jobs]
    return [["id", "qty_a", "qty_b", "qty_c", "deadline_day"]] + [
        [o.id, o.qty_a, o.qty_b, o.qty_c, o.deadline_day] for o in gen_makeorbuy(6, seed=0)]


def machine_type_rows():
    return [["machine_type", "phase_index", "category", "duration_days"]] + [
        [name, k, category, duration]
        for name, phases in default_machine_types().items()
        for k, (category, duration) in enumerate(phases)]


def mutate(rows, rng, cells):
    for _ in range(cells):
        row = rows[int(rng.integers(1, len(rows)))]
        row[int(rng.integers(len(row)))] = VALUES[int(rng.integers(len(VALUES)))]
    return rows


def random_case(rng, tmp):
    """The argv of one random ``bench run``: problem, algorithm, budget and
    runs, with each mutation applied or not at random."""
    problem = ("hfs", "makeorbuy")[int(rng.integers(2))]
    algo = ALGOS[problem][int(rng.integers(len(ALGOS[problem])))]
    rows = mutate(dataset_rows(problem), rng, int(rng.integers(3)))
    argv = ["run", "--problem", problem, "--algo", algo,
            "--dataset", write_table(tmp / "data.csv", rows),
            "--budget", str(int(rng.integers(1, 31))), "--runs", str(int(rng.integers(1, 3))),
            "--seed", str(int(rng.integers(100))), "--out", str(tmp / "out")]
    if rng.random() < 0.5:
        keys = [name for name, p in inspect.signature(RUNNERS[algo]).parameters.items()
                if p.kind is p.KEYWORD_ONLY] or ["temperature"]  # rs, greedy: any key is unknown
        key, value = keys[int(rng.integers(len(keys)))], VALUES[int(rng.integers(len(VALUES)))]
        (tmp / "params.kv").write_text(f"{key} = {value}\n")
        argv += ["--params", str(tmp / "params.kv")]
    if rng.random() < 0.5:
        key = SIM_KEYS[problem][int(rng.integers(len(SIM_KEYS[problem])))]
        value = VALUES[int(rng.integers(len(VALUES)))]
        if key == "machine_types":
            value = write_table(tmp / "types.csv", mutate(machine_type_rows(), rng, 1))
        (tmp / "sim.kv").write_text(f"{key} = {value}\n")
        argv += ["--sim-params", str(tmp / "sim.kv")]
    return argv


def run_case(argv, capsys) -> tuple:
    """(exit code, stderr) of ``main(argv)`` under the alarm."""
    signal.alarm(CASE_SECONDS)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
    err = capsys.readouterr().err
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        assert err.startswith("error: "), (argv, err)
    return code, err


def test_random_cases_exit_cleanly(tmp_path, capsys, alarm):
    rng = np.random.default_rng(20240619)
    codes = []
    for i in range(CASES):
        case_dir = tmp_path / f"case{i}"
        case_dir.mkdir()
        argv = random_case(rng, case_dir)
        codes.append(run_case(argv, capsys)[0])
        params = case_dir / "params.kv"
        if params.exists() and params.read_text().startswith("temperature "):
            assert codes[-1] == 1, argv  # a key the runner does not take
    assert 0 in codes and 1 in codes


# (problem, algo, dataset column set to 1e308, --sim-params line, error words)
HUGE_INPUTS = [
    ("hfs", "ga", "panel_day", None, "panel_day must be"),
    ("hfs", "greedy", "panel_day", None, "panel_day must be"),
    ("hfs", "eldt", "due_day", None, "due_day must be"),
    ("makeorbuy", "eldt", "deadline_day", None, "deadline_day must be"),
    ("hfs", "ga", None, "transport_days = 1e308", "transport_days must be"),
    ("hfs", "ga", None, "machine_types = {types}", "phase 0: duration must be"),
    ("makeorbuy", "ga", None, "production_a = 1e308, 1e308", "production_a range must"),
    ("makeorbuy", "rs", None, "travel = 1e308, 1e308", "travel range must"),
    ("makeorbuy", "gp", None, "outsource_cost = 1e308", "outsource_cost must be"),
]


@pytest.mark.parametrize("problem, algo, column, setting, words", HUGE_INPUTS, ids=[
    f"{problem}-{algo}-{column or setting.split(' =')[0]}"
    for problem, algo, column, setting, _ in HUGE_INPUTS])
def test_huge_finite_input_is_refused(tmp_path, capsys, alarm, problem, algo, column,
                                      setting, words):
    rows = dataset_rows(problem)
    if column is not None:
        rows[1][rows[0].index(column)] = 1e308
    argv = ["run", "--problem", problem, "--algo", algo,
            "--dataset", write_table(tmp_path / "data.csv", rows),
            "--budget", "30", "--runs", "2", "--out", str(tmp_path / "out")]
    if setting is not None:
        types = machine_type_rows()
        types[1][3] = 1e308
        types = write_table(tmp_path / "types.csv", types)
        (tmp_path / "sim.kv").write_text(setting.format(types=types) + "\n")
        argv += ["--sim-params", str(tmp_path / "sim.kv")]
    code, err = run_case(argv, capsys)
    assert code == 1 and words in err, err
    assert not (tmp_path / "out").exists()


# (--params lines for eldt on the flow shop, error words); each once ended in
# a MemoryError or a numpy error that did not name the key.
HUGE_SIZES = [
    ("genotype_length = 1000000000000", "genotype_length must be an integer in [1, "),
    ("population_size = 4\ntournament_size = 1000000000000",
     "tournament_size must be an integer in [1, "),
    ("population_size = 100000000000", "population_size must be an integer in [1, "),
    (f"g_max = {10**29}", "g_max must be an integer in [1, "),
    ("population_size = 100000\ngenotype_length = 100000",
     "population_size * genotype_length must be at most"),
]


@pytest.mark.parametrize("params, words", HUGE_SIZES, ids=[
    "genotype_length", "tournament_size", "population_size", "g_max", "codons"])
def test_huge_size_is_refused(tmp_path, capsys, alarm, params, words):
    (tmp_path / "params.kv").write_text(params + "\n")
    code, err = run_case(["run", "--problem", "hfs", "--algo", "eldt",
                          "--dataset", write_table(tmp_path / "data.csv", dataset_rows("hfs")),
                          "--budget", "20", "--runs", "1", "--params", str(tmp_path / "params.kv"),
                          "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and words in err, err
    assert not (tmp_path / "out").exists()


def test_huge_datagen_size_is_refused(tmp_path, capsys, alarm):
    out = tmp_path / "orders.csv"
    code, err = run_case(["datagen", "--problem", "makeorbuy", "--n", "1000000000",
                          "--seed", "0", "--out", str(out)], capsys)
    assert code == 1 and "n must be in [1, " in err, err
    assert not out.exists()


def test_slow_travel_is_refused_before_it_runs_long(tmp_path, capsys, alarm):
    # the truck would need ~2.7 million cycles to ship this dataset's 146
    # units; one simulation of that took over a second
    rows = [["id", "qty_a", "qty_b", "qty_c", "deadline_day"]] + [
        [o.id, o.qty_a, o.qty_b, o.qty_c, o.deadline_day] for o in gen_makeorbuy(5, seed=0)]
    (tmp_path / "sim.kv").write_text("travel = 1e-5, 1e-5\n")
    code, err = run_case(["run", "--problem", "makeorbuy", "--algo", "eldt",
                          "--dataset", write_table(tmp_path / "data.csv", rows),
                          "--budget", "30", "--runs", "2",
                          "--sim-params", str(tmp_path / "sim.kv"),
                          "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and err.startswith("error: travel lo 1e-05 is too small"), err
