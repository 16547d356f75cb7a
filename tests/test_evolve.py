import dataclasses

import numpy as np
import pytest

from evoscm import (
    EvolutionConfig,
    Individual,
    PENALTY_FITNESS,
    ToyThresholdEnv,
    default_policy_grammar,
    run_eldt,
)
from evoscm.evolve import (
    crossover_one_point,
    mutate,
    random_genotype,
    replace_steady_state,
    select_parent,
)
from oracles import binom_interval

G_MAX = 40000


def ind(fitness, genotype=None):
    g = np.zeros(3, dtype=np.int64) if genotype is None else genotype
    return Individual(genotype=g, fitness=fitness)


class TestMutate:
    def test_prob_zero_is_identity(self):
        g = np.arange(50, dtype=np.int64)
        out = mutate(g, 0.0, G_MAX, np.random.default_rng(0))
        assert np.array_equal(out, g)

    def test_prob_one_resamples_everything_in_range(self):
        g = np.full(5000, -1 + 0, dtype=np.int64)
        g[:] = 7
        out = mutate(g, 1.0, G_MAX, np.random.default_rng(1))
        assert out.shape == g.shape
        assert out.min() >= 0 and out.max() <= G_MAX
        change_rate = np.mean(out != g)
        assert change_rate == pytest.approx(G_MAX / (G_MAX + 1), abs=0.01)

    def test_changed_count_within_binomial_band(self):
        # resampling can repeat the old value, so p = m_p * g_max/(g_max+1)
        n, m_p = 1000, 0.1
        p = m_p * G_MAX / (G_MAX + 1)
        lo, hi = binom_interval(n, p, coverage=0.999)
        base = np.zeros(n, dtype=np.int64)
        for seed in range(100):
            out = mutate(base, m_p, G_MAX, np.random.default_rng(seed))
            changed = int(np.sum(out != base))
            assert lo <= changed <= hi

    def test_input_not_mutated_in_place(self):
        g = np.zeros(20, dtype=np.int64)
        mutate(g, 1.0, G_MAX, np.random.default_rng(2))
        assert np.all(g == 0)


class TestCrossover:
    def test_definition_at_fixed_cut(self):
        a = np.array([0, 0, 0, 0], dtype=np.int64)
        b = np.array([1, 1, 1, 1], dtype=np.int64)

        class CutAtTwo:
            def integers(self, lo, hi):
                assert (lo, hi) == (1, 4)
                return 2

        c1, c2 = crossover_one_point(a, b, CutAtTwo())
        assert c1.tolist() == [0, 0, 1, 1]
        assert c2.tolist() == [1, 1, 0, 0]

    def test_identical_parents_clone(self):
        a = np.arange(10, dtype=np.int64)
        c1, c2 = crossover_one_point(a, a.copy(), np.random.default_rng(0))
        assert np.array_equal(c1, a) and np.array_equal(c2, a)

    def test_each_position_comes_from_one_parent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.integers(0, G_MAX + 1, 12).astype(np.int64)
            b = rng.integers(0, G_MAX + 1, 12).astype(np.int64)
            c1, c2 = crossover_one_point(a, b, rng)
            for i in range(12):
                assert c1[i] in (a[i], b[i])
                assert c2[i] in (a[i], b[i])
                # the two children take opposite parents at every position
                assert {c1[i], c2[i]} <= {a[i], b[i]}

    def test_cut_interior_only(self):
        # with length 2 the only cut is 1, so heads/tails always swap
        a = np.array([5, 6], dtype=np.int64)
        b = np.array([7, 8], dtype=np.int64)
        for s in range(10):
            c1, c2 = crossover_one_point(a, b, np.random.default_rng(s))
            assert c1.tolist() == [5, 8] and c2.tolist() == [7, 6]

    def test_too_short_rejected(self):
        a = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            crossover_one_point(a, a, np.random.default_rng(0))

    def test_mismatched_lengths_rejected(self):
        a = np.zeros(4, dtype=np.int64)
        b = np.zeros(5, dtype=np.int64)
        with pytest.raises(ValueError):
            crossover_one_point(a, b, np.random.default_rng(0))


class TestSelectParent:
    def test_population_of_one(self):
        pop = [ind(3.0)]
        assert select_parent(pop, 5, np.random.default_rng(0)) is pop[0]

    def test_tournament_one_is_uniform(self):
        pop = [ind(float(i)) for i in range(4)]
        counts = [0] * 4
        rng = np.random.default_rng(1)
        n = 40_000
        for _ in range(n):
            winner = select_parent(pop, 1, rng)
            counts[int(winner.fitness)] += 1
        freqs = np.array(counts) / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freqs - 0.25) <= 4 * sigma)

    def test_full_tournament_returns_global_best(self):
        pop = [ind(f) for f in (1.0, 9.0, 4.0)]

        class SampleAll:
            def integers(self, lo, hi, size):
                assert size == 3
                return np.arange(3)

        assert select_parent(pop, 3, SampleAll()) is pop[1]

    def test_ties_break_to_lower_index(self):
        pop = [ind(5.0), ind(5.0), ind(5.0)]

        class SampleRev:
            def integers(self, lo, hi, size):
                return np.array([2, 1, 0])

        assert select_parent(pop, 3, SampleRev()) is pop[0]


class TestReplaceSteadyState:
    def test_all_worse_offspring_leave_population_unchanged(self):
        pop = [ind(10.0), ind(9.0)]
        out = replace_steady_state(pop, [ind(1.0), ind(2.0)])
        assert out == pop

    def test_better_offspring_replaces_worst(self):
        pop = [ind(10.0), ind(1.0)]
        child = ind(5.0)
        out = replace_steady_state(pop, [child])
        assert len(out) == 2
        assert pop[0] in out and child in out

    def test_incumbent_preferred_on_fitness_tie(self):
        inc = ind(5.0)
        child = ind(5.0)
        out = replace_steady_state([inc, ind(9.0)], [child])
        assert inc in out and child not in out

    def test_best_never_decreases_on_random_merges(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pop = [ind(float(f)) for f in rng.normal(size=6)]
            off = [ind(float(f)) for f in rng.normal(size=rng.integers(0, 7))]
            out = replace_steady_state(pop, off)
            assert len(out) == 6
            assert (max(i.fitness for i in out)
                    >= max(i.fitness for i in pop))

    def test_oversized_offspring_rejected(self):
        with pytest.raises(ValueError):
            replace_steady_state([ind(1.0)], [ind(1.0), ind(2.0)])


class TestEvolutionConfig:
    def test_defaults(self):
        cfg = EvolutionConfig()
        assert cfg.population_size == 30
        assert cfg.genotype_length == 100
        assert cfg.g_max == 40000
        assert cfg.mutation_prob == 0.05
        assert cfg.crossover_prob == 0.5
        assert cfg.tournament_size == 2
        assert cfg.budget == 5000
        assert cfg.penalty_fitness == PENALTY_FITNESS

    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(budget=0)
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=0)
        with pytest.raises(ValueError):
            EvolutionConfig(mutation_prob=1.5)
        with pytest.raises(ValueError):
            EvolutionConfig(genotype_length=1)

    def test_random_genotype_bounds(self):
        g = random_genotype(100, G_MAX, np.random.default_rng(0))
        assert g.dtype == np.int64
        assert g.min() >= 0 and g.max() <= G_MAX


class TestRunEldt:
    def test_budget_consumed_exactly_and_trace_matches(self):
        cfg = EvolutionConfig(budget=500)
        env = ToyThresholdEnv()
        g = default_policy_grammar(env.spec)
        rec = run_eldt(cfg, g, env, seed=0)
        assert rec.episodes == 500
        assert len(rec.trace) == 500

    def test_trace_monotone_nondecreasing(self):
        cfg = EvolutionConfig(budget=400)
        env = ToyThresholdEnv()
        g = default_policy_grammar(env.spec)
        rec = run_eldt(cfg, g, env, seed=1)
        assert all(a <= b for a, b in zip(rec.trace, rec.trace[1:]))

    def test_same_seed_bit_identical(self):
        cfg = EvolutionConfig(budget=300)
        env = ToyThresholdEnv()
        g = default_policy_grammar(env.spec)
        r1 = run_eldt(cfg, g, env, seed=5)
        r2 = run_eldt(cfg, g, env, seed=5)
        assert r1 == r2  # wall_time excluded from equality
        assert r1.trace == r2.trace
        assert r1.solution == r2.solution

    def test_partial_final_generation_documented_truncation(self):
        # budget not divisible by population * episodes still lands exactly
        cfg = EvolutionConfig(budget=101)
        env = ToyThresholdEnv()
        g = default_policy_grammar(env.spec)
        rec = run_eldt(cfg, g, env, seed=2)
        assert rec.episodes == 101
        assert len(rec.trace) == 101

    def test_artifacts_expose_pruned_tree_and_rollout(self):
        cfg = EvolutionConfig(budget=300)
        env = ToyThresholdEnv()
        g = default_policy_grammar(env.spec)
        rec = run_eldt(cfg, g, env, seed=3)
        art = rec.artifacts
        assert {"tree", "pruned_tree", "rollout_observations",
                "rollout_actions", "rollout_returns"} <= set(art)
        # pruning only ever removes nodes
        assert len(art["pruned_tree"].leaves()) <= len(art["tree"].leaves())

    def test_params_record_resolved_settings(self):
        cfg = EvolutionConfig(budget=200)
        env = ToyThresholdEnv()
        g = default_policy_grammar(env.spec)
        rec = run_eldt(cfg, g, env, seed=4)
        assert rec.params["episodes_per_eval"] == 3  # stochastic default
        assert rec.params["population_size"] == 30
        assert rec.params["alpha"] == 0.1
        assert rec.algo == "eldt"
        assert rec.seed == 4

    def test_decode_failures_charge_nothing(self):
        # a grammar requiring more codons than the genotype can supply
        env = ToyThresholdEnv()
        spec = env.spec
        g = default_policy_grammar(spec)
        cfg = EvolutionConfig(budget=60, genotype_length=3)
        rec = run_eldt(cfg, g, env, seed=6)
        # short genotypes often fail to decode; those evals are free and the
        # run still spends the full budget on the ones that decode
        assert rec.episodes == 60
        assert len(rec.trace) == 60
