import math

import numpy as np
import pytest

from evoscm import (
    Condition,
    DecisionTree,
    Env,
    EnvSpec,
    FeatureSpec,
    Leaf,
    LearningConfig,
    Split,
    HfsEnv,
    MakeOrBuyEnv,
    RowEnv,
    ToyThresholdEnv,
    evaluate_fitness,
    gen_hfs,
    gen_makeorbuy,
    greedy_rollout,
    run_episode,
)
from evoscm.tree import CATEGORY_EQ, NUMERIC_GT
from oracles import NdarrayObsEnv, run_episode_oracle


class ConstRewardEnv(Env):
    """episode_len steps of constant reward over a single dummy feature."""

    def __init__(self, reward=0.0, steps=5):
        self.spec = EnvSpec(
            features=(FeatureSpec("x", low=0.0, high=1.0),),
            action_count=2, episode_len=steps, stochastic=False)
        self.reward = reward
        self._t = 0

    def reset(self, seed=None):
        self._t = 0
        return np.array([0.5])

    def step(self, action):
        self._t += 1
        return np.array([0.5]), self.reward, self._t >= self.spec.episode_len


def leaf_tree(q=(0.0, 0.0)):
    return DecisionTree(Leaf(list(q)))


class TestEnvSpec:
    def test_validation(self):
        f = (FeatureSpec("x", low=0.0, high=1.0),)
        with pytest.raises(ValueError):
            EnvSpec(features=(), action_count=2, episode_len=1, stochastic=False)
        with pytest.raises(ValueError):
            EnvSpec(features=f, action_count=1, episode_len=1, stochastic=False)
        with pytest.raises(ValueError):
            EnvSpec(features=f, action_count=2, episode_len=0, stochastic=False)

    def test_feature_index(self):
        spec = EnvSpec(
            features=(FeatureSpec("a", low=0, high=1),
                      FeatureSpec("b", categories=("u", "v"))),
            action_count=2, episode_len=1, stochastic=False)
        assert spec.feature_index == {"a": 0, "b": 1}
        assert spec.feature_names == ["a", "b"]

    def test_feature_kind(self):
        assert FeatureSpec("a", low=0, high=1).kind == "numeric"
        assert FeatureSpec("b", categories=("u",)).kind == "categorical"


class TestFeatureThresholds:
    def test_small_integer_span_enumerates(self):
        f = FeatureSpec("x", low=0, high=4)
        assert f.grammar_thresholds == (0.0, 1.0, 2.0, 3.0, 4.0)

    def test_wide_range_uses_21_point_grid(self):
        f = FeatureSpec("x", low=0.0, high=1000.0)
        ths = f.grammar_thresholds
        assert len(ths) == 21
        assert ths[0] == 0.0 and ths[-1] == 1000.0

    def test_thresholds_are_computed_once_as_a_tuple(self):
        f = FeatureSpec("x", low=0.0, high=1.0)
        ths = f.grammar_thresholds
        assert isinstance(ths, tuple) and ths == tuple(i / 20 for i in range(21))
        assert f.grammar_thresholds is ths
        assert f == FeatureSpec("x", low=0.0, high=1.0)
        assert hash(f) == hash(FeatureSpec("x", low=0.0, high=1.0))
        assert FeatureSpec("y", low=2.5, high=2.5).grammar_thresholds == (2.5,)

    def test_categorical_feature_raises_on_every_access(self):
        f = FeatureSpec("c", categories=("u", "v"))
        for _ in range(2):
            with pytest.raises(ValueError, match="categorical"):
                f.grammar_thresholds


class TestRunEpisode:
    def test_zero_reward_env_returns_zero_and_q_stays_bounded(self):
        env = ConstRewardEnv(reward=0.0, steps=50)
        tree = DecisionTree(Leaf([0.6, -0.8]))
        lc = LearningConfig(epsilon=0.2)
        before = float(np.max(np.abs(tree.root.q)))
        ret = run_episode(env, tree, lc, np.random.default_rng(0))
        assert ret == 0.0
        # with r=0 every update contracts toward gamma*max_next, so values
        # never leave the initial hull
        assert float(np.max(np.abs(tree.root.q))) <= before + 1e-12

    def test_single_step_reward_one(self):
        env = ConstRewardEnv(reward=1.0, steps=1)
        ret = run_episode(env, leaf_tree(), LearningConfig(),
                          np.random.default_rng(0))
        assert ret == 1.0

    def test_frozen_policy_is_deterministic(self):
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        tree = leaf_tree((0.3, 0.1))
        r1 = run_episode(ConstRewardEnv(reward=2.0), tree, lc,
                         np.random.default_rng(0))
        r2 = run_episode(ConstRewardEnv(reward=2.0), tree, lc,
                         np.random.default_rng(99))
        assert r1 == r2 == 10.0

    def test_alpha_zero_means_no_updates(self):
        tree = leaf_tree((0.3, 0.1))
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        run_episode(ConstRewardEnv(reward=1.0), tree, lc,
                    np.random.default_rng(0))
        assert list(tree.root.q) == [0.3, 0.1]

    def test_learning_moves_q_toward_reward(self):
        tree = leaf_tree((0.0, 0.0))
        lc = LearningConfig(alpha=0.5, gamma=0.9, epsilon=0.0)
        run_episode(ConstRewardEnv(reward=1.0, steps=30), tree, lc,
                    np.random.default_rng(0))
        assert tree.root.q[0] > 0.9  # converges toward 1/(1-gamma) capped by visits

    def test_terminal_update_bootstraps_zero(self):
        # single step: Q <- (1-a)Q + a*r exactly, no gamma term
        tree = leaf_tree((0.0, 0.0))
        lc = LearningConfig(alpha=0.25, gamma=0.9, epsilon=0.0)
        run_episode(ConstRewardEnv(reward=4.0, steps=1), tree, lc,
                    np.random.default_rng(0))
        assert tree.root.q[0] == pytest.approx(1.0, abs=1e-12)


def full_tree(spec, depth=3, level=0):
    """A complete tree splitting on feature ``level % n`` at each level: a
    numeric feature at the middle grammar threshold, a categorical one on
    category ``level % len(categories)``."""
    if level == depth:
        return Leaf()
    feature = spec.features[level % len(spec.features)]
    index = level % len(spec.features)
    if feature.categories is not None:
        cond = Condition(index, CATEGORY_EQ, float(level % len(feature.categories)))
    else:
        thresholds = feature.grammar_thresholds
        cond = Condition(index, NUMERIC_GT, thresholds[len(thresholds) // 2])
    return Split(cond, full_tree(spec, depth, level + 1), full_tree(spec, depth, level + 1))


STEP_ENVS = {
    "toy": ToyThresholdEnv,
    "makeorbuy": lambda: MakeOrBuyEnv(gen_makeorbuy(30, seed=4)),
    "hfs": lambda: HfsEnv(gen_hfs("d1", 30, seed=2)),
}


class TestRunEpisodeMatchesOracle:
    """The step loop on Python floats gives bit for bit what the numpy step
    loop gave: returns, Q-values, visit counts and RNG state."""

    @pytest.mark.parametrize("kind", sorted(STEP_ENVS))
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
    def test_same_episodes(self, kind, alpha, epsilon):
        make_env = STEP_ENVS[kind]
        lc = LearningConfig(alpha=alpha, gamma=0.9, epsilon=epsilon)
        for seed in range(3):
            env, ref_env = make_env(), NdarrayObsEnv(make_env())
            tree = DecisionTree(full_tree(env.spec))
            tree.init_leaves(env.spec.action_count, np.random.default_rng(seed))
            ref = tree.copy()
            rng, ref_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
            for episode in range(3):
                got = run_episode(env, tree, lc, rng, seed=3 * seed + episode)
                want = run_episode_oracle(ref_env, ref, lc, ref_rng, seed=3 * seed + episode)
                assert got == want
            for leaf, ref_leaf in zip(tree.leaves(), ref.leaves()):
                assert np.array_equal(leaf.q, ref_leaf.q)
                assert leaf.visits == ref_leaf.visits
            assert sum(leaf.visits for leaf in tree.leaves()) > 0
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rows_equal_the_ndarray_observations(self):
        for kind in ("makeorbuy", "hfs"):
            env, ref = STEP_ENVS[kind](), NdarrayObsEnv(STEP_ENVS[kind]())
            rows, arrays = [env.reset(0)], [ref.reset(0)]
            for _ in range(env.spec.episode_len - 1):
                rows.append(env.step(0)[0])
                arrays.append(ref.step(0)[0])
            assert all(type(x) is float for row in rows for x in row)
            assert np.array_equal(np.array(rows), np.array(arrays))


class TestEvaluateFitness:
    def test_mean_of_returns(self):
        returns = iter([10.0, 20.0])

        class Scripted(ConstRewardEnv):
            def reset(self, seed=None):
                self.reward = next(returns)
                return super().reset(seed)

        fit = evaluate_fitness(leaf_tree(), Scripted(steps=1), 2,
                               np.random.default_rng(0))
        assert fit == 15.0

    def test_single_episode_equals_return(self):
        fit = evaluate_fitness(leaf_tree(), ConstRewardEnv(3.0), 1,
                               np.random.default_rng(0))
        assert fit == 15.0  # 5 steps of 3

    def test_equals_mean_of_individual_episodes_to_full_precision(self):
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        vals = [0.1, 0.2, 0.3, 1e16, -1e16, 0.4]
        idx = [0]

        class Tape(ConstRewardEnv):
            def reset(self, seed=None):
                self.reward = vals[idx[0]]
                idx[0] += 1
                return super().reset(seed)

        fit = evaluate_fitness(leaf_tree(), Tape(steps=1), len(vals),
                               np.random.default_rng(0), lc)
        assert fit == math.fsum(vals) / len(vals)

    def test_frozen_deterministic_invariant_across_calls(self):
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        f1 = evaluate_fitness(leaf_tree(), ConstRewardEnv(1.5), 3,
                              np.random.default_rng(7), lc)
        f2 = evaluate_fitness(leaf_tree(), ConstRewardEnv(1.5), 3,
                              np.random.default_rng(8), lc)
        assert f1 == f2


class TestRowEnv:
    def test_rows_in_order_and_terminal_objective_over_scale(self):
        class ActionSum(RowEnv):
            objective_scale = -4.0

            def objective(self, actions):
                return float(sum(actions))

        spec = EnvSpec(features=(FeatureSpec("x"),), action_count=3, episode_len=3,
                       stochastic=False)
        env = ActionSum(((0.0,), (1.0,), (2.0,)), spec)
        assert env.reset() == (0.0,)
        assert env.step(2) == ((1.0,), 0.0, False)
        assert env.step(0) == ((2.0,), 0.0, False)
        assert env.step(2) == ((0.0,), -1.0, True)
        assert env.actions == [2, 0, 2]
        assert env.reset() == (0.0,) and env.actions == []


class TestToyThresholdEnv:
    def oracle_tree(self):
        yes = Leaf([0.0, 1.0])   # x > 0.5 -> action 1
        no = Leaf([1.0, 0.0])
        return DecisionTree(Split(Condition(0, ">", 0.5), yes, no))

    def test_oracle_policy_scores_perfectly(self):
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        ret = run_episode(ToyThresholdEnv(), self.oracle_tree(), lc,
                          np.random.default_rng(0), seed=0)
        assert ret == 50.0

    def test_episode_length_and_spec(self):
        env = ToyThresholdEnv()
        assert env.spec.episode_len == 50
        assert env.spec.action_count == 2
        assert env.spec.stochastic
        assert env.objective_scale == 1.0

    def test_always_one_policy_near_25(self):
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        tree = leaf_tree((0.0, 1.0))
        rng, env = np.random.default_rng(0), ToyThresholdEnv()
        rets = [run_episode(env, tree, lc, rng, seed=s) for s in range(200)]
        mean = np.mean(rets)
        # per-episode sd = sqrt(50*0.25); mean over 200 episodes
        sigma = math.sqrt(50 * 0.25 / 200)
        assert abs(mean - 25.0) <= 4 * sigma

    def test_random_policy_near_25(self):
        lc = LearningConfig(alpha=0.0, epsilon=1.0)
        tree = leaf_tree((0.0, 0.0))
        rng, env = np.random.default_rng(1), ToyThresholdEnv()
        rets = [run_episode(env, tree, lc, rng, seed=s) for s in range(200)]
        assert abs(np.mean(rets) - 25.0) <= 1.5

    def test_same_seed_same_draws(self):
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        t = self.oracle_tree()
        env = ToyThresholdEnv()  # reused: reset(seed) alone fixes the draws
        a = greedy_rollout(t, env, 2, 5)
        b = greedy_rollout(t, env, 2, 5)
        assert np.array_equal(np.array(a[0]), np.array(b[0]))
        assert a[1] == b[1] and a[2] == b[2]


class TestGreedyRollout:
    def test_logs_every_step(self):
        obs, acts, rets = greedy_rollout(leaf_tree((1.0, 0.0)),
                                         ConstRewardEnv(2.0), 3, 0)
        assert len(obs) == len(acts) == 15
        assert rets == [10.0, 10.0, 10.0]
        assert set(acts) == {0}

    def test_no_learning_no_exploration(self):
        tree = leaf_tree((0.2, 0.9))
        greedy_rollout(tree, ConstRewardEnv(5.0), 2, 0)
        assert list(tree.root.q) == [0.2, 0.9]

    def test_visits_accumulate_for_pruning(self):
        tree = leaf_tree((0.2, 0.9))
        tree.reset_visits()
        greedy_rollout(tree, ConstRewardEnv(5.0), 2, 0)
        assert tree.root.visits == 10


class TestRolloutLog:
    """The closing rollout logs a ``RowEnv``'s rows themselves, and a copy
    of an observation that is not a tuple."""

    @pytest.mark.parametrize("name", ["makeorbuy", "hfs"])
    def test_row_env_logs_its_rows(self, name):
        env = STEP_ENVS[name]()
        tree = DecisionTree(full_tree(env.spec))
        tree.init_leaves(env.spec.action_count, np.random.default_rng(0))
        obs, _, _ = greedy_rollout(tree, env, 2, 0)
        assert len(obs) == 2 * len(env.rows)
        for i, logged in enumerate(obs):
            assert logged is env.rows[i % len(env.rows)]

    def test_a_reused_buffer_is_copied(self):
        class BufferEnv(ConstRewardEnv):
            """Serves every observation in one list, overwritten each step."""

            def reset(self, seed=None):
                self.buffer = [0.0]
                super().reset(seed)
                return self.buffer

            def step(self, action):
                _, reward, done = super().step(action)
                self.buffer[0] = self._t / self.spec.episode_len
                return self.buffer, reward, done

        obs, _, _ = greedy_rollout(leaf_tree((1.0, 0.0)), BufferEnv(), 1, 0)
        assert obs == [(0.0,), (0.2,), (0.4,), (0.6,), (0.8,)]
