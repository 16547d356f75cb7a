import dataclasses

import numpy as np
import pytest

from evoscm import (
    BUY,
    DecisionTree,
    Leaf,
    LearningConfig,
    MAKE,
    MakeOrBuyEnv,
    MakeOrBuyParams,
    Order,
    gen_makeorbuy,
    revenue,
    run_episode,
    simulate,
)
from oracles import simulate_oracle


def degenerate_params(**kw):
    base = dict(production_a=(2.0, 2.0), production_b=(2.0, 2.0),
                production_c=(2.0, 2.0), travel=(0.2, 0.2),
                load=(0.05, 0.05), unload=(0.05, 0.05),
                assembly=(0.15, 0.15))
    base.update(kw)
    return MakeOrBuyParams(**base)


class TestRevenue:
    def test_all_on_time(self):
        assert revenue(100, 0, 0) == 10000.0

    def test_mixed_counts(self):
        assert revenue(1, 1, 1) == 120.0

    def test_all_outsourced(self):
        assert revenue(100, 0, 100) == 7000.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            revenue(-1, 0, 0)


class TestOrder:
    def test_validation(self):
        with pytest.raises(ValueError):
            Order(id=0, qty_a=-1, qty_b=0, qty_c=0, deadline_day=100.0)
        with pytest.raises(ValueError):
            Order(id=0, qty_a=0, qty_b=0, qty_c=0, deadline_day=-5.0)


class TestSimulate:
    def test_all_outsourced_is_7000_for_any_seed(self):
        orders = gen_makeorbuy(100, seed=1)
        for seed in (0, 1, 2**40):
            out = simulate(orders, [BUY] * 100, MakeOrBuyParams(), seed=seed)
            assert out.revenue == 7000.0
            assert (out.n_on_time, out.n_late, out.n_outsourced) == (100, 0, 100)

    def test_outsourced_complete_on_deadline(self):
        orders = gen_makeorbuy(10, seed=2)
        out = simulate(orders, [BUY] * 10, MakeOrBuyParams(), seed=0)
        assert out.completion_day == [o.deadline_day for o in orders]

    @pytest.mark.parametrize("travel", [1e-300, 1e-7])
    def test_tiny_travel_time_is_refused_not_run(self, travel):
        # the truck would need ~last completion / (4 travel) cycles
        params = MakeOrBuyParams(travel=(travel, travel))
        with pytest.raises(ValueError, match="travel lo .* is too small"):
            simulate(gen_makeorbuy(5, seed=0), [MAKE] * 5, params, seed=0)
        # with nothing to make, no truck has to run
        assert simulate(gen_makeorbuy(5, seed=0), [BUY] * 5, params, seed=0).revenue == 350.0

    def test_degenerate_single_order_trace(self):
        # constant times: unit ready at 2.0; truck reaches plant A at 0.2,
        # 1.0, 1.8, 2.6 (cycle of four 0.2 legs); load 0.05, two more legs,
        # unload 0.05 at 3.25, assembly 0.15 -> 3.45
        orders = [Order(id=0, qty_a=1, qty_b=0, qty_c=0, deadline_day=1e4)]
        out = simulate(orders, [MAKE], degenerate_params(), seed=0)
        assert out.n_on_time == 1 and out.revenue == 100.0
        assert out.completion_day == [pytest.approx(3.45, abs=1e-12)]

    def test_same_seed_identical_outcome(self):
        orders = gen_makeorbuy(30, seed=3)
        dec = [MAKE, BUY] * 15
        a = simulate(orders, dec, MakeOrBuyParams(), seed=9)
        b = simulate(orders, dec, MakeOrBuyParams(), seed=9)
        assert a == b

    def test_seeds_change_outcomes(self):
        orders = gen_makeorbuy(30, seed=3)
        dec = [MAKE] * 30
        days = {tuple(simulate(orders, dec, MakeOrBuyParams(), seed=s).completion_day)
                for s in range(100)}
        assert len(days) > 1

    def test_conservation_and_bounds_random_pairs(self):
        orders = gen_makeorbuy(100, seed=4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            dec = rng.integers(0, 2, 100).tolist()
            out = simulate(orders, dec, MakeOrBuyParams(),
                           seed=int(rng.integers(2**31)))
            assert out.n_on_time + out.n_late == 100
            assert 0.0 <= out.revenue <= 10000.0
            assert out.n_outsourced == sum(dec)
            assert out.n_outsourced <= out.n_on_time

    def test_completion_monotone_in_quantity(self):
        params = degenerate_params()
        prev = 0.0
        for qty in (1, 2, 4, 8):
            orders = [Order(id=0, qty_a=qty, qty_b=0, qty_c=0,
                            deadline_day=1e5)]
            day = simulate(orders, [MAKE], params, seed=0).completion_day[0]
            assert day > prev
            prev = day

    def test_empty_orders(self):
        out = simulate([], [], MakeOrBuyParams(), seed=0)
        assert out.revenue == 0.0
        assert out.completion_day == []

    def test_decision_length_must_match(self):
        orders = gen_makeorbuy(3, seed=0)
        with pytest.raises(ValueError):
            simulate(orders, [BUY, MAKE], MakeOrBuyParams(), seed=0)

    def test_decision_values_validated(self):
        orders = gen_makeorbuy(2, seed=0)
        with pytest.raises(ValueError):
            simulate(orders, [0, 2], MakeOrBuyParams(), seed=0)

    @pytest.mark.parametrize("bad", [0.7, 2, "0"])
    def test_decision_values_are_not_truncated(self, bad):
        orders = gen_makeorbuy(3, seed=0)
        with pytest.raises(ValueError, match=r"decisions must be 0 \(MAKE\) or 1 \(BUY\)"):
            simulate(orders, [MAKE, bad, BUY], MakeOrBuyParams(), seed=0)

    def test_decision_values_of_other_numeric_types(self):
        orders = gen_makeorbuy(4, seed=0)
        want = simulate(orders, [0, 1, 0, 1], MakeOrBuyParams(), seed=0)
        for dec in ([np.int64(0), np.int64(1), 0, 1], [False, True, False, True],
                    [0.0, 1.0, 0.0, 1.0], np.array([0, 1, 0, 1])):
            assert simulate(orders, dec, MakeOrBuyParams(), seed=0) == want

    def test_late_orders_happen_under_tight_deadlines(self):
        orders = [Order(id=i, qty_a=10, qty_b=10, qty_c=10, deadline_day=1.0)
                  for i in range(5)]
        out = simulate(orders, [MAKE] * 5, MakeOrBuyParams(), seed=0)
        assert out.n_late == 5
        assert out.revenue == 250.0

    def test_default_calibration_mixes_on_time_and_late(self):
        # all-make on a standard dataset must be neither trivially perfect
        # nor hopeless, otherwise the make/buy tradeoff vanishes
        orders = gen_makeorbuy(100, seed=5)
        out = simulate(orders, [MAKE] * 100, MakeOrBuyParams(), seed=9)
        assert 10 <= out.n_on_time <= 90


class TestSimulateOracleEquivalence:
    """``simulate`` consumes the same uniforms in the same order as the
    per-draw tape reference, so every outcome matches it exactly. The
    all-MAKE n=100 and n=200 cases take ~15,000 and ~29,000 stream draws,
    across many 1024-draw blocks."""

    @staticmethod
    def decisions(n, buy_fraction, seed):
        rng = np.random.default_rng(seed)
        return [BUY if u < buy_fraction else MAKE for u in rng.random(n)]

    @pytest.mark.parametrize("n", [1, 5, 20, 100, 200])
    @pytest.mark.parametrize("buy_fraction", [0, 0.1, 0.5, 0.9, 1])
    def test_generated_orders(self, n, buy_fraction):
        orders = gen_makeorbuy(n, seed=n)
        for seed in (0, 7):
            dec = self.decisions(n, buy_fraction, seed)
            want = simulate_oracle(orders, dec, MakeOrBuyParams(), seed)
            assert simulate(orders, dec, MakeOrBuyParams(), seed) == want

    @pytest.mark.parametrize("params", [
        degenerate_params(),
        MakeOrBuyParams(production_a=(0, 0)),
        MakeOrBuyParams(production_a=(0.0, 0.0), production_b=(0.0, 0.0),
                        production_c=(0.0, 0.0), load=(0.0, 0.0)),
        MakeOrBuyParams(outsourced_count_on_time=False),
        degenerate_params(outsourced_count_on_time=False, production_b=(0, 0)),
    ], ids=["zero-width", "instant-a", "instant-all", "buy-not-on-time",
            "mixed"])
    @pytest.mark.parametrize("buy_fraction", [0, 0.5])
    def test_non_default_params(self, params, buy_fraction):
        orders = gen_makeorbuy(60, seed=11)
        for seed in (1, 2):
            dec = self.decisions(60, buy_fraction, seed)
            want = simulate_oracle(orders, dec, params, seed)
            assert simulate(orders, dec, params, seed) == want

    def test_zero_quantity_orders(self):
        # no unit to ship: the stream starts with the assembly draws
        orders = [Order(id=i, qty_a=0, qty_b=0, qty_c=0, deadline_day=1.0)
                  for i in range(4)] + gen_makeorbuy(3, seed=0)
        for dec in ([MAKE] * 7, [MAKE] * 4 + [BUY] * 3):
            assert simulate(orders, dec, MakeOrBuyParams(), 3) == \
                simulate_oracle(orders, dec, MakeOrBuyParams(), 3)

    def assert_matches_oracle(self, orders, params=MakeOrBuyParams()):
        for seed in (0, 1, 2):
            for dec in ([MAKE] * len(orders), self.decisions(len(orders), 0.3, seed)):
                assert simulate(orders, dec, params, seed) == \
                    simulate_oracle(orders, dec, params, seed)

    def test_plant_without_units(self):
        # plant B never has a unit: every stop there finds nothing ready
        orders = [dataclasses.replace(o, qty_b=0) for o in gen_makeorbuy(40, seed=3)]
        self.assert_matches_oracle(orders)

    def test_plant_done_long_before_the_others(self):
        # plant A's few units ship on the first cycles; the truck keeps
        # stopping there empty while B and C work through ~40 orders
        orders = [dataclasses.replace(o, qty_a=2 if o.id == 0 else 0)
                  for o in gen_makeorbuy(40, seed=4)]
        self.assert_matches_oracle(orders)

    def test_many_units_in_one_load_on_one_plant(self):
        # every C unit is done at day 0, so the first stop at C loads them
        # all at once, while A and B still load one unit at a time
        orders = gen_makeorbuy(40, seed=5)
        self.assert_matches_oracle(orders, MakeOrBuyParams(production_c=(0.0, 0.0)))


class TestParams:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            MakeOrBuyParams(production_a=(3.0, 2.0))
        with pytest.raises(ValueError):
            MakeOrBuyParams(travel=(0.0, 0.0))
        with pytest.raises(ValueError):
            MakeOrBuyParams(load=(-0.1, 0.1))

    @pytest.mark.parametrize("kwargs", [
        {"travel": 0.2}, {"load": (0.1, 0.2, 0.3)}, {"assembly": ("a", "b")},
        {"unload": (0.0, float("inf"))}, {"production_b": (float("nan"), 1.0)},
        {"late_revenue": "fifty"}, {"outsourced_count_on_time": "yes"},
    ])
    def test_malformed_values_are_value_errors(self, kwargs):
        with pytest.raises(ValueError):
            MakeOrBuyParams(**kwargs)

    def test_from_settings(self):
        assert MakeOrBuyParams.from_settings({}) == MakeOrBuyParams()
        p = MakeOrBuyParams.from_settings({"travel": (0.2, 0.4), "late_revenue": 40})
        assert (p.travel, p.late_revenue) == ((0.2, 0.4), 40)
        with pytest.raises(ValueError, match="unknown makeorbuy sim params.*gravity"):
            MakeOrBuyParams.from_settings({"gravity": 9.8})

    def test_reward_coefficients_default(self):
        p = MakeOrBuyParams()
        assert (p.on_time_revenue, p.late_revenue, p.outsource_cost) == \
            (100.0, 50.0, 30.0)


class TestMakeOrBuyEnv:
    def test_episode_len_is_order_count(self):
        env = MakeOrBuyEnv(gen_makeorbuy(17, seed=0))
        assert env.spec.episode_len == 17

    def test_all_buy_terminal_reward(self):
        env = MakeOrBuyEnv(gen_makeorbuy(100, seed=1))
        env.reset(1)
        rewards = []
        done = False
        while not done:
            _, r, done = env.step(BUY)
            rewards.append(r)
        assert rewards[:-1] == [0.0] * 99
        assert rewards[-1] == 70.0

    def test_return_times_scale_equals_simulated_revenue(self):
        env = MakeOrBuyEnv(gen_makeorbuy(40, seed=2))
        tree = DecisionTree(Leaf([1.0, 0.0]))
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        ret = run_episode(env, tree, lc, np.random.default_rng(0), seed=3)
        sim_seed = int(np.random.default_rng(3).integers(2**63 - 1))
        outcome = simulate(env.orders, env.actions, env.params, sim_seed)
        assert ret * env.objective_scale == outcome.revenue

    def test_score_draws_one_simulation_seed_from_rng(self):
        env = MakeOrBuyEnv(gen_makeorbuy(100, seed=2))
        assert env.solution_kind == "binary"
        rng, copy = np.random.default_rng(9), np.random.default_rng(9)
        x = np.full(100, MAKE)
        scores = [env.score(x, rng) for _ in range(5)]
        assert scores == [simulate(env.orders, x, env.params,
                                   int(copy.integers(2**63 - 1))).revenue for _ in range(5)]
        assert len(set(scores)) > 1 and rng.random() == copy.random()

    def test_observation_is_order_features(self):
        orders = gen_makeorbuy(5, seed=4)
        env = MakeOrBuyEnv(orders)
        obs = env.reset(0)
        o = orders[0]
        assert list(obs) == [o.qty_a, o.qty_b, o.qty_c, o.deadline_day]

    def test_feature_names_and_actions(self):
        env = MakeOrBuyEnv(gen_makeorbuy(5, seed=4))
        assert env.spec.feature_names == \
            ["qty_a", "qty_b", "qty_c", "days_to_deadline"]
        assert env.spec.action_labels == ("MAKE", "BUY")
        assert env.spec.stochastic

    @pytest.mark.parametrize("action", [0.9, 2, -1])
    def test_step_rejects_a_non_decision(self, action):
        env = MakeOrBuyEnv(gen_makeorbuy(3, seed=0))
        env.reset(0)
        with pytest.raises(ValueError, match=rf"action {action} outside 0\.\.1"):
            env.step(action)
        assert env.actions == []

    def test_step_after_the_terminal_one_names_reset(self):
        orders = gen_makeorbuy(2, seed=0)
        env = MakeOrBuyEnv(orders)
        env.reset(7)
        env.step(MAKE)
        env.step(BUY)
        with pytest.raises(ValueError, match=r"episode is over; call reset\(\)"):
            env.step(MAKE)
        assert env.actions == [MAKE, BUY]
        fresh = MakeOrBuyEnv(orders)
        assert [env.reset(7), env.step(BUY), env.step(MAKE)] == \
            [fresh.reset(7), fresh.step(BUY), fresh.step(MAKE)]
        assert env.actions == fresh.actions == [BUY, MAKE]

    def test_episodes_resample_sim_seed(self):
        env = MakeOrBuyEnv(gen_makeorbuy(50, seed=5))
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        tree = DecisionTree(Leaf([1.0, 0.0]))
        rets = [run_episode(env, tree, lc, np.random.default_rng(0), seed=s)
                for s in range(20)]
        assert len(set(rets)) > 1
        assert rets == [run_episode(env, tree, lc, np.random.default_rng(0), seed=s)
                        for s in range(20)]
        # The seed derivation that artifacts were pinned with.
        env.reset(6)
        assert env._sim_seed == int(np.random.default_rng(6).integers(2**63 - 1))
