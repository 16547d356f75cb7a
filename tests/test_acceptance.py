"""End-to-end acceptance gate.

Eleven numbered criteria cover the revenue anchors, schedule decoding
against an independent oracle, learning performance, budget accounting,
statistics, pruning semantics, and artifact determinism. Each criterion is
one test; the terminal summary prints one PASS/FAIL line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from evoscm import (
    EvolutionConfig,
    ExperimentConfig,
    MakeOrBuyParams,
    SearchSpace,
    ToyThresholdEnv,
    aco_run,
    check_feasible,
    decode_list_schedule,
    default_policy_grammar,
    ga_run,
    gen_hfs,
    gen_makeorbuy,
    gp_evolve,
    greedy_edd,
    lower_bounds,
    makespan,
    q_update,
    random_search,
    run_eldt,
    run_experiment,
    save_hfs,
    save_makeorbuy,
    simulate,
    wilcoxon_rank_sum,
)
from evoscm.flowshop import HfsInstance, Job
from evoscm.tree import Leaf

from oracles import ranksum_p_oracle, schedule_oracle


def test_criterion_01_all_outsource_revenue_anchor():
    t0 = time.monotonic()
    params = MakeOrBuyParams()
    for data_seed, sim_seed in ((0, 0), (1, 123), (2, 2**40)):
        orders = gen_makeorbuy(100, seed=data_seed)
        outcome = simulate(orders, [1] * 100, params, sim_seed)
        assert outcome.revenue == 7000.0
        assert outcome.n_outsourced == 100
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"


def test_criterion_02_revenue_bounds_and_order_conservation():
    t0 = time.monotonic()
    orders = gen_makeorbuy(100, seed=0)
    params = MakeOrBuyParams()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        decisions = rng.integers(0, 2, size=100)
        outcome = simulate(orders, decisions, params, int(rng.integers(2**63)))
        assert 0.0 <= outcome.revenue <= 10000.0
        assert outcome.n_on_time + outcome.n_late == 100
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, limit 30s"


def _small_instance(rng):
    n_types = int(rng.integers(1, 4))
    specs = {}
    for t in range(n_types):
        specs[f"T{t}"] = tuple(
            (("M", "E", "R")[int(rng.integers(3))], float(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4))))
    jobs = [Job(id=i, machine_type=f"T{int(rng.integers(n_types))}",
                due_day=float(rng.integers(50, 100)),
                basement_day=float(rng.integers(0, 6)),
                panel_day=float(rng.integers(0, 6)))
            for i in range(int(rng.integers(1, 6)))]
    caps = {c: int(rng.integers(1, 3)) for c in ("M", "E", "R")}
    return HfsInstance(jobs=jobs, type_specs=specs, capacities=caps,
                       assembly_areas=int(rng.integers(1, 4)),
                       transport_days=float(rng.integers(0, 3)))


def test_criterion_03_decoder_matches_bruteforce_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(50):
        inst = _small_instance(rng)
        oracle_jobs = [{"machine_type": j.machine_type,
                        "basement_day": j.basement_day,
                        "panel_day": j.panel_day} for j in inst.jobs]
        for perm in itertools.permutations(range(len(inst.jobs))):
            got = makespan(decode_list_schedule(inst, list(perm)))
            want, _ = schedule_oracle(oracle_jobs, inst.type_specs,
                                      inst.capacities, inst.assembly_areas,
                                      inst.transport_days, list(perm))
            assert got == want, (inst, perm)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s, limit 120s"


def test_criterion_04_feasibility_fuzzing():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    decodes = 0
    while decodes < 10_000:
        variant = ("d1", "d2", "d3", "d4")[int(rng.integers(4))]
        n = int(rng.integers(1, 21))
        caps = {c: int(rng.integers(1, 6)) for c in ("M", "E", "R")}
        inst = gen_hfs(variant, n, seed=int(rng.integers(2**32)),
                       capacities=caps,
                       assembly_areas=int(rng.integers(2, 21)),
                       transport_days=float(rng.integers(0, 4)))
        bound = lower_bounds(inst)
        for _ in range(25):
            schedule = decode_list_schedule(inst, rng.permutation(n).tolist())
            assert check_feasible(inst, schedule) == []
            assert makespan(schedule) >= bound
            decodes += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s, limit 300s"


@pytest.fixture(scope="module")
def eldt_toy_runs():
    grammar = default_policy_grammar(ToyThresholdEnv().spec)
    t0 = time.monotonic()
    records = [run_eldt(EvolutionConfig(budget=2000), grammar, ToyThresholdEnv(), seed)
               for seed in range(10)]
    return records, time.monotonic() - t0


def test_criterion_05_eldt_learns_toy_threshold(eldt_toy_runs):
    records, elapsed = eldt_toy_runs
    hits = sum(rec.final_objective >= 47.5 for rec in records)
    assert hits >= 8, f"only {hits}/10 seeds reached 47.5"
    assert elapsed < 120.0, f"took {elapsed:.2f}s, limit 120s"


def test_criterion_06_bellman_update_anchors():
    leaf = Leaf(np.array([0.0]))
    assert abs(q_update(leaf, 0, reward=1.0, max_next_q=0.0,
                        alpha=0.1, gamma=0.9) - 0.1) <= 1e-12

    leaf = Leaf(np.array([0.37]))
    assert abs(q_update(leaf, 0, reward=5.0, max_next_q=2.0,
                        alpha=0.0, gamma=0.9) - 0.37) <= 1e-12

    leaf = Leaf(np.array([0.5]))
    assert abs(q_update(leaf, 0, reward=0.0, max_next_q=1.0,
                        alpha=0.5, gamma=0.9) - 0.7) <= 1e-12


def test_criterion_07_budget_conformance():
    budget = 5000

    def space():
        return SearchSpace(kind="binary", size=30,
                           score=lambda x, rng: float(np.sum(x)),
                           maximize=True, budget=budget)

    runs = [random_search(space(), seed=0),
            ga_run(space(), seed=0),
            aco_run(space(), seed=0),
            run_eldt(EvolutionConfig(budget=budget),
                     default_policy_grammar(ToyThresholdEnv().spec),
                     ToyThresholdEnv(), seed=0),
            gp_evolve(ToyThresholdEnv(), budget, seed=0)]
    for rec in runs:
        assert rec.episodes == budget, rec.algo
        assert len(rec.trace) == budget, rec.algo
        assert all(a <= b for a, b in zip(rec.trace, rec.trace[1:])), rec.algo

    greedy = greedy_edd(gen_hfs("d1", 12, seed=0))
    assert greedy.episodes == 1 and len(greedy.trace) == 1


def test_criterion_08_ga_beats_random_search_on_hfs():
    t0 = time.monotonic()
    instance = gen_hfs("d1", 30, seed=7)

    def space():
        return SearchSpace(
            kind="permutation", size=30,
            score=lambda p, rng: makespan(decode_list_schedule(instance, p)),
            maximize=False, budget=500)

    wins = 0
    for seed in range(10):
        ga_best = ga_run(space(), seed=seed).final_objective
        rs_best = random_search(space(), seed=seed).final_objective
        wins += ga_best <= rs_best
    assert wins >= 8, f"GA matched RS in only {wins}/10 paired seeds"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.2f}s, limit 600s"


def test_criterion_09_wilcoxon_exactness():
    u, p = wilcoxon_rank_sum([1, 2, 3], [10, 20, 30])
    u_ref, p_ref = ranksum_p_oracle([1, 2, 3], [10, 20, 30])
    assert abs(p - 0.1) <= 1e-12
    assert abs(p - float(p_ref)) <= 1e-12 and u == u_ref

    u, p = wilcoxon_rank_sum([1, 2], [3, 4])
    u_ref, p_ref = ranksum_p_oracle([1, 2], [3, 4])
    assert abs(p - 1 / 3) <= 1e-12
    assert abs(p - float(p_ref)) <= 1e-12 and u == u_ref


def test_criterion_10_pruned_tree_action_equivalence(eldt_toy_runs):
    records, _ = eldt_toy_runs
    policy_records = list(records)
    # the permutation baselines of criterion 8 carry no trees, so the other
    # tree-producing algorithm stands in alongside the criterion 5 runs
    policy_records += [gp_evolve(ToyThresholdEnv(), 300, seed=s) for s in range(5)]
    checked = 0
    for rec in policy_records:
        tree = rec.artifacts["tree"]
        pruned = rec.artifacts["pruned_tree"]
        observations = rec.artifacts["rollout_observations"]
        recorded = rec.artifacts["rollout_actions"]
        assert len(observations) == len(recorded) > 0
        for obs, action in zip(observations, recorded):
            assert pruned.traverse(obs).action == tree.traverse(obs).action
            assert tree.traverse(obs).action == action
            checked += 1
    assert checked > 0


def test_criterion_11_byte_identical_artifacts(tmp_path):
    mob = tmp_path / "orders.csv"
    save_makeorbuy(gen_makeorbuy(10, seed=0), mob)
    jobs = tmp_path / "jobs.csv"
    save_hfs(gen_hfs("d1", 8, seed=0), jobs)

    def snapshot(problem, algo, dataset, out, workers, params):
        cfg = ExperimentConfig(problem=problem, algo=algo, dataset=str(dataset),
                               budget=30, runs=2, seed=1, out_dir=str(out),
                               workers=workers, params=params)
        run_experiment(cfg)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    eldt_params = {"population_size": 6, "episodes_per_eval": 2}
    a = snapshot("makeorbuy", "eldt", mob, tmp_path / "e1", 1, eldt_params)
    b = snapshot("makeorbuy", "eldt", mob, tmp_path / "e2", 3, eldt_params)
    c = snapshot("makeorbuy", "eldt", mob, tmp_path / "e3", 1, eldt_params)
    assert set(a) >= {"history.csv", "finals.csv", "summary.csv", "trend.csv",
                      "best_tree.txt", "best_tree.dot"}
    assert a == b == c

    g1 = snapshot("hfs", "ga", jobs, tmp_path / "g1", 1, {})
    g2 = snapshot("hfs", "ga", jobs, tmp_path / "g2", 4, {})
    assert g1 == g2
