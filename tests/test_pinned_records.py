"""Exact runner records at fixed seeds, pinned against RNG drift.

Each case runs one optimizer on a small problem whose score draws from the
run's own generator, with a budget that stops it part way through a
generation (or colony). A change that adds, drops or reorders a random draw
anywhere in selection, variation, replacement or evaluation moves the final
objective or the solution here.
"""

import hashlib

import numpy as np
import pytest

from evoscm import (
    SearchSpace,
    ToyThresholdEnv,
    aco_run,
    default_policy_grammar,
    ga_run,
    gp_evolve,
    random_search,
    run_eldt,
)
from evoscm.cli import main

SPACE_BUDGET = 137  # GA: 50 + 50 + 37 of 50; ACO: 6 colonies of 20 + 17
POLICY_BUDGET = 100  # 10 individuals x 3 episodes per generation: 3 + 1/3 of the last


def binary_space(size):
    w = np.random.default_rng(11).normal(size=size)

    def score(x, rng):
        return float(np.asarray(x) @ w) + 0.5 * float(rng.random())

    return SearchSpace(kind="binary", size=size, score=score, maximize=True,
                       budget=SPACE_BUDGET)


def permutation_space(size=9):
    w = np.random.default_rng(12).uniform(1.0, 5.0, size=size)

    def score(perm, rng):
        return float(np.sum(w[np.asarray(perm)] * np.arange(size))) + float(rng.random())

    return SearchSpace(kind="permutation", size=size, score=score, maximize=False,
                       budget=SPACE_BUDGET)


SPACES = {"binary30": lambda: binary_space(30), "binary1": lambda: binary_space(1),
          "perm9": permutation_space}
SPACE_RUNNERS = {"rs": random_search, "ga": ga_run, "aco": aco_run}


def run_case(case: str, seed: int):
    algo, problem = case.split("-")
    if algo in SPACE_RUNNERS:
        return SPACE_RUNNERS[algo](SPACES[problem](), seed)
    if algo == "gp":
        return gp_evolve(ToyThresholdEnv(), POLICY_BUDGET, seed, population_size=10)
    env = ToyThresholdEnv()
    return run_eldt(env, POLICY_BUDGET, seed, default_policy_grammar(env.spec),
                    population_size=10)


# (final_objective, solution, len(trace)) per (case, seed).
PINNED = {
    ("rs-binary30", 0): (4.796643281479364, "111110101010111001000000000000", 137),
    ("rs-binary30", 1): (5.268669552938962, "111101011010111110010011001000", 137),
    ("rs-binary1", 0): (0.5327977351477897, "1", 137),
    ("rs-binary1", 1): (0.5283022178632903, "1", 137),
    ("rs-perm9", 0): (75.6103599088517, "8 1 4 6 2 7 3 5 0", 137),
    ("rs-perm9", 1): (75.23936064390837, "1 8 5 6 2 4 7 0 3", 137),
    ("ga-binary30", 0): (5.533880676776866, "011000110011110011100000001001", 137),
    ("ga-binary30", 1): (6.084681735746216, "111100011010000110111010000000", 137),
    ("ga-binary1", 0): (0.5327977351477897, "1", 137),
    ("ga-binary1", 1): (0.5157836256230517, "1", 137),
    ("ga-perm9", 0): (73.99575830668394, "1 8 6 7 0 4 5 2 3", 137),
    ("ga-perm9", 1): (71.84202270856413, "1 8 6 4 5 0 2 7 3", 137),
    ("aco-binary30", 0): (7.462078441180172, "111010001011110110010010001000", 137),
    ("aco-binary30", 1): (6.255583339040683, "111001101011100000010010001000", 137),
    ("aco-binary1", 0): (0.5316514413336431, "1", 137),
    ("aco-binary1", 1): (0.5283022178632903, "1", 137),
    ("aco-perm9", 0): (74.3822339419554, "1 8 6 0 7 4 2 5 3", 137),
    ("aco-perm9", 1): (71.41452544302881, "1 8 6 4 0 2 5 3 7", 137),
    ("gp-toy", 0): (40.0, "if x > 0.4 then (if x > 0.7 then (if x > 0.95 then "
                          "(action 0) else (action 1)) else (if x > 0.65 then (action 1) "
                          "else (action 1))) else (if x > 0.2 then (if x > 0.3 then "
                          "(action 1) else (action 0)) else (action 0))", 100),
    ("gp-toy", 1): (41.0, "if x > 0.7 then (action 1) else (action 0)", 100),
    ("eldt-toy", 0): (45.333333333333336, "if x > 0.6 then (if x > 0.9 then (action 1) "
                                            "else (action 1)) else (action 0)", 100),
    ("eldt-toy", 1): (42.333333333333336,
                       "if x > 0.65 then (action 1) else (action 0)", 100),
}


@pytest.mark.parametrize("case, seed", sorted(PINNED))
def test_runner_record_is_pinned(case, seed):
    rec = run_case(case, seed)
    assert (rec.final_objective, rec.solution, len(rec.trace)) == PINNED[case, seed]


# sha256 of finals.csv from ``bench run`` on tiny datasets (makeorbuy n=8 and
# hfs d1 n=6, both generated with seed 0), budget 75 and 2 runs: GA stops part
# way through its second generation and ACO through its fourth colony.
FINALS_SHA256 = {
    ("makeorbuy", "rs"):
        "26b62df096e43bd9b31baf30415b1f42d51eeb465c8139dec34ce22d131c9c21",
    ("makeorbuy", "ga"):
        "9040c0743a04e1af6151fc309637e4c6340684482fb5f475f4bf0ac2fac23f47",
    ("makeorbuy", "aco"):
        "ef16bc9d336dc27bed9330c55c61f7b82ed5afae8b0dee6166ededfa1df2fc67",
    ("hfs", "rs"):
        "12808a49bb58bd31e4cc37c6d434f1b470958bde3dd48064390217685a16ccbc",
    ("hfs", "ga"):
        "8899045bb7722f58b5af013234157117b54c0ca3f298a5425575c781c242a25d",
    ("hfs", "aco"):
        "25051dcb454ecf6ccaa1ca5acc21855011d8d1170b2be1133b574a03ee8e5b50",
}


@pytest.mark.parametrize("problem, algo", sorted(FINALS_SHA256))
def test_cli_finals_are_pinned(problem, algo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep the header free of tmp_path
    gen = (["--problem", "hfs", "--variant", "d1", "--n", "6"] if problem == "hfs"
           else ["--problem", "makeorbuy", "--n", "8"])
    assert main(["datagen", *gen, "--seed", "0", "--out", "data.csv"]) == 0
    assert main(["run", "--problem", problem, "--algo", algo, "--dataset", "data.csv",
                 "--budget", "75", "--runs", "2", "--out", "out"]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "finals.csv").read_bytes()).hexdigest()
    assert digest == FINALS_SHA256[problem, algo]
