import math

import numpy as np
import pytest

from evoscm import (
    BudgetExhausted,
    HfsEnv,
    SearchSpace,
    ToyThresholdEnv,
    aco_run,
    format_candidate,
    ga_run,
    gen_hfs,
    gp_evolve,
    greedy_edd,
    lower_bounds,
    order_crossover,
    random_search,
)
from evoscm.baselines import (
    binary_probabilities,
    pheromone_step,
    sample_permutation,
    subtree_crossover,
    subtree_mutation,
    _ramped_population,
)


def onemax_space(n=20, budget=500):
    return SearchSpace(kind="binary", size=n,
                       score=lambda x, rng: float(np.sum(x)),
                       maximize=True, budget=budget)


def perm_space(weights, budget=500):
    w = np.asarray(weights, dtype=float)

    def score(perm, rng):
        # weighted displacement: minimized by sorting ascending
        return float(np.sum(w[np.asarray(perm)] * np.arange(len(w))))

    return SearchSpace(kind="permutation", size=len(w), score=score,
                       maximize=False, budget=budget)


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("runner", [random_search, ga_run, aco_run, gp_evolve])
def test_runners_reject_a_budget_below_one(runner, budget):
    # rs, ga and aco take their budget from the search space they run on
    with pytest.raises(ValueError, match="budget must be >= 1"):
        if runner is gp_evolve:
            runner(ToyThresholdEnv(), budget, 0)
        else:
            runner(onemax_space(budget=budget), 0)


class TestSearchSpace:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            SearchSpace(kind="real", size=3, score=None, maximize=True, budget=1)

    def test_every_evaluation_charges_budget(self):
        space = onemax_space(budget=3)
        rng = np.random.default_rng(0)
        for want in (1, 2, 3):
            space.evaluate(space.random_candidate(rng), rng)
            assert space.budget.consumed == want

    def test_record_reports_the_runs_trace(self):
        space = onemax_space(n=3, budget=2)
        rng = np.random.default_rng(0)
        assert space.evaluate(np.array([1, 0, 0]), rng) == 1.0
        assert space.evaluate(np.array([0, 0, 0]), rng) == 0.0
        with pytest.raises(BudgetExhausted):
            space.evaluate(np.array([1, 1, 1]), rng)
        rec = space.record("rs", 7, {"flip_prob": 0.5})
        assert (rec.algo, rec.seed, rec.trace, rec.final_objective) == ("rs", 7, [1.0, 1.0], 1.0)
        assert rec.solution == "100" and rec.episodes == 2
        assert rec.params == {"budget": 2, "flip_prob": 0.5}

    def test_format_candidate(self):
        assert format_candidate("binary", np.array([1, 0, 1])) == "101"
        assert format_candidate("permutation", np.array([2, 0, 1])) == "2 0 1"


class TestRandomSearch:
    def test_trace_length_is_budget_and_monotone(self):
        rec = random_search(onemax_space(budget=200), seed=0)
        assert rec.episodes == 200
        assert len(rec.trace) == 200
        assert all(a <= b for a, b in zip(rec.trace, rec.trace[1:]))

    def test_minimization_trace_monotone_down(self):
        rec = random_search(perm_space([3, 1, 2], budget=50), seed=1)
        assert all(a >= b for a, b in zip(rec.trace, rec.trace[1:]))

    def test_permutation_sampling_uniform(self):
        space = perm_space([1, 1, 1, 1], budget=10**9)
        rng = np.random.default_rng(2)
        n = 100_000
        counts = {}
        for _ in range(n):
            p = tuple(space.random_candidate(rng).tolist())
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 24
        p0 = 1 / 24
        sigma = math.sqrt(p0 * (1 - p0) / n)
        for c in counts.values():
            assert abs(c / n - p0) <= 3 * sigma

    def test_deterministic(self):
        a = random_search(onemax_space(budget=100), seed=3)
        b = random_search(onemax_space(budget=100), seed=3)
        assert a.trace == b.trace and a.solution == b.solution


class TestOrderCrossover:
    def test_spec_example_yields_valid_permutations(self):
        a = np.array([1, 2, 3, 4]) - 1
        b = np.array([4, 3, 2, 1]) - 1
        rng = np.random.default_rng(0)
        c1, c2 = order_crossover(a, b, rng)
        assert sorted(c1.tolist()) == [0, 1, 2, 3]
        assert sorted(c2.tolist()) == [0, 1, 2, 3]

    def test_bijectivity_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 15))
            a, b = rng.permutation(n), rng.permutation(n)
            for child in order_crossover(a, b, rng):
                assert sorted(child.tolist()) == list(range(n))

    def test_keeps_middle_segment_from_each_parent(self):
        a = np.arange(8)
        b = np.arange(8)[::-1].copy()

        class FixedCuts:
            def choice(self, n, size=None, replace=True):
                assert size == 2 and not replace
                return np.array([2, 5])

        c1, c2 = order_crossover(a, b, FixedCuts())
        assert c1[2:5].tolist() == [2, 3, 4]
        assert c2[2:5].tolist() == [5, 4, 3]
        # remainder comes from the other parent in cyclic order after the cut
        assert c1.tolist() == [6, 5, 2, 3, 4, 1, 0, 7]

    def test_length_one_parents_pass_through(self):
        c1, c2 = order_crossover(np.array([0]), np.array([0]),
                                 np.random.default_rng(0))
        assert c1.tolist() == [0] and c2.tolist() == [0]


class TestGa:
    def test_budget_exact(self):
        rec = ga_run(onemax_space(budget=333), seed=0)
        assert rec.episodes == 333 and len(rec.trace) == 333

    def test_static_population_when_operators_off(self):
        space = onemax_space(budget=300)
        rec = ga_run(space, seed=1, crossover_prob=0.0, flip_prob=0.0, swap_prob=0.0)
        # clones only: nothing new appears after the initial population
        assert max(rec.trace) == max(rec.trace[:50])

    def test_beats_random_search_on_onemax(self):
        ga_best, rs_best = [], []
        for seed in range(10):
            ga_best.append(ga_run(onemax_space(), seed=seed).final_objective)
            rs_best.append(random_search(onemax_space(), seed=seed).final_objective)
        assert np.mean(ga_best) >= np.mean(rs_best)

    def test_permutation_mode_improves(self):
        w = list(range(10, 0, -1))
        rec = ga_run(perm_space(w, budget=400), seed=2)
        first = rec.trace[49]
        assert rec.final_objective <= first
        assert rec.trace == sorted(rec.trace, reverse=True)

    def test_deterministic(self):
        a = ga_run(onemax_space(budget=200), seed=5)
        b = ga_run(onemax_space(budget=200), seed=5)
        assert a.trace == b.trace and a.solution == b.solution


class TestAco:
    def test_uniform_pheromone_gives_half_probability(self):
        tau = np.ones((6, 2))
        assert np.allclose(binary_probabilities(tau), 0.5)

    def test_deposit_shifts_probability_up(self):
        tau = np.ones((3, 2))
        tau = pheromone_step(tau, rho=0.1,
                             deposits=[(0, 1)], delta=1.0)
        assert binary_probabilities(tau)[0] > 0.5
        assert np.allclose(binary_probabilities(tau)[1:], 0.5)

    def test_full_evaporation_leaves_deposit_alone(self):
        tau = np.full((2, 2), 5.0)
        out = pheromone_step(tau, rho=1.0, deposits=[(1, 0)], delta=0.25,
                             tau_min=0.0, tau_max=10.0)
        assert out[1, 0] == 0.25
        assert out[0, 0] == 0.0

    def test_clamping(self):
        tau = np.full((1, 2), 9.9)
        out = pheromone_step(tau, rho=0.0, deposits=[(0, 0)], delta=5.0)
        assert out[0, 0] == 10.0
        out2 = pheromone_step(np.full((1, 2), 0.02), rho=0.9, deposits=[],
                              delta=0.0)
        assert out2.min() == 0.01

    def test_sample_permutation_bijective(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            tau = rng.uniform(0.01, 10.0, size=(n, n))
            p = sample_permutation(tau, rng)
            assert sorted(p.tolist()) == list(range(n))

    def test_budget_exact_and_monotone(self):
        rec = aco_run(perm_space(range(8), budget=250), seed=0)
        assert rec.episodes == 250 and len(rec.trace) == 250
        assert rec.trace == sorted(rec.trace, reverse=True)

    def test_binary_mode_improves_onemax(self):
        rec = aco_run(onemax_space(budget=400), seed=1)
        assert rec.final_objective >= 15  # near-optimal on 20 bits

    def test_deterministic(self):
        a = aco_run(onemax_space(budget=300), seed=7)
        b = aco_run(onemax_space(budget=300), seed=7)
        assert a.trace == b.trace


class TestGreedyEdd:
    def instance(self, dues):
        inst = gen_hfs("d1", len(dues), seed=0)
        jobs = [j.__class__(id=j.id, machine_type=j.machine_type,
                            due_day=float(d), basement_day=0.0, panel_day=0.0)
                for j, d in zip(inst.jobs, dues)]
        return inst.__class__(jobs=jobs, type_specs=inst.type_specs,
                              capacities=inst.capacities,
                              assembly_areas=inst.assembly_areas,
                              transport_days=inst.transport_days)

    def test_due_order(self):
        rec = greedy_edd(self.instance([5.0, 2.0, 9.0]))
        assert rec.solution == "1 0 2"

    def test_stable_on_equal_dues(self):
        rec = greedy_edd(self.instance([4.0, 4.0, 4.0]))
        assert rec.solution == "0 1 2"

    def test_single_evaluation_and_repeatable(self):
        inst = gen_hfs("d2", 12, seed=1)
        a, b = greedy_edd(inst), greedy_edd(inst)
        assert a.episodes == 1 and len(a.trace) == 1
        assert a.final_objective == b.final_objective
        assert a.algo == "greedy"


class TestGpOperators:
    def spec(self):
        return ToyThresholdEnv().spec

    def test_ramped_population_depths(self):
        rng = np.random.default_rng(0)
        pop = _ramped_population(self.spec(), rng, 30)
        assert len(pop) == 30
        depths = {t.depth() for t in pop}
        assert depths <= {0, 1, 2, 3, 4}
        assert max(depths) >= 2

    def test_crossover_respects_depth_cap(self):
        rng = np.random.default_rng(1)
        pop = _ramped_population(self.spec(), rng, 40)
        for i in range(0, 40, 2):
            child = subtree_crossover(pop[i], pop[i + 1], rng, max_depth=6)
            assert child.depth() <= 6

    def test_mutation_respects_depth_cap(self):
        rng = np.random.default_rng(2)
        for tree in _ramped_population(self.spec(), rng, 40):
            child = subtree_mutation(tree, self.spec(), rng, max_depth=4)
            assert child.depth() <= 4

    def test_operators_do_not_mutate_parents(self):
        from evoscm import to_oneline
        rng = np.random.default_rng(3)
        a, b = _ramped_population(self.spec(), rng, 2)
        before_a, before_b = to_oneline(a), to_oneline(b)
        for _ in range(20):
            subtree_crossover(a, b, rng, max_depth=6)
            subtree_mutation(a, self.spec(), rng, max_depth=6)
        assert to_oneline(a) == before_a
        assert to_oneline(b) == before_b


class TestGpEvolve:
    def test_budget_exact_monotone(self):
        rec = gp_evolve(ToyThresholdEnv(), 300, seed=0)
        assert rec.episodes == 300 and len(rec.trace) == 300
        assert all(a <= b for a, b in zip(rec.trace, rec.trace[1:]))

    def test_same_seed_identical_best_tree(self):
        a = gp_evolve(ToyThresholdEnv(), 200, seed=4)
        b = gp_evolve(ToyThresholdEnv(), 200, seed=4)
        assert a.solution == b.solution
        assert a.trace == b.trace

    def test_best_tree_respects_depth_cap(self):
        rec = gp_evolve(ToyThresholdEnv(), 400, seed=5, max_depth=4)
        assert rec.artifacts["tree"].depth() <= 4

    def test_learns_toy_threshold(self):
        wins = 0
        for seed in range(10):
            rec = gp_evolve(ToyThresholdEnv(), 500, seed=seed)
            wins += rec.final_objective >= 45.0
        assert wins >= 8

    def test_flow_shop_record_is_in_makespan_units(self):
        instance = gen_hfs("d1", 8, seed=0)
        rec = gp_evolve(HfsEnv(instance), 60, seed=0)
        assert rec.final_objective == rec.trace[-1] >= lower_bounds(instance)
        assert all(a >= b for a, b in zip(rec.trace, rec.trace[1:]))

    def test_leaves_are_constant_actions(self):
        rec = gp_evolve(ToyThresholdEnv(), 200, seed=6)
        for leaf in rec.artifacts["tree"].leaves():
            assert np.sum(leaf.q == 1.0) == 1
            assert np.sum(leaf.q == 0.0) == len(leaf.q) - 1
