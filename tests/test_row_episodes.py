"""A read-only episode on a fixed-row environment runs as one call.

With learning off (alpha = epsilon = 0), ``run_episode`` on a ``RowEnv``
takes every row's action from one walk of the tree and pays the objective
once. These tests hold it to the per-step episode, bit for bit, and check
that every other episode still steps.
"""

import math

import numpy as np
import pytest

from evoscm import (
    Condition,
    DecisionTree,
    EnvSpec,
    FeatureSpec,
    HfsEnv,
    Leaf,
    LearningConfig,
    MakeOrBuyEnv,
    RowEnv,
    Split,
    ToyThresholdEnv,
    evaluate_fitness,
    gen_hfs,
    gen_makeorbuy,
    run_episode,
)
from evoscm.baselines import _grow
from evoscm.envs import row_actions
from evoscm.tree import CATEGORY_EQ, NUMERIC_GT
from oracles import NdarrayObsEnv, read_only_episode_oracle

READ_ONLY = LearningConfig(alpha=0.0, epsilon=0.0)

ROW_ENVS = {
    "makeorbuy": lambda: MakeOrBuyEnv(gen_makeorbuy(40, seed=5)),
    "hfs": lambda: HfsEnv(gen_hfs("d2", 40, seed=3)),
}


def assert_same_episode(make_env, tree, seed):
    """``run_episode`` read-only equals the per-step oracle on a fresh copy
    of the environment and tree: return bit for bit, actions, visits."""
    env, ref_env = make_env(), make_env()
    ref = tree.copy()
    got = run_episode(env, tree, READ_ONLY, np.random.default_rng(0), seed)
    want = read_only_episode_oracle(ref_env, ref, seed)
    assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
    assert env.actions == ref_env.actions
    assert all(type(a) is int for a in env.actions)
    assert [leaf.visits for leaf in tree.leaves()] == [leaf.visits for leaf in ref.leaves()]
    return env


class TestSameEpisodeAsTheStepLoop:
    @pytest.mark.parametrize("kind", sorted(ROW_ENVS))
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_random_trees(self, kind, depth):
        make_env = ROW_ENVS[kind]
        spec = make_env().spec
        for seed in range(4):
            rng = np.random.default_rng((seed, depth))
            tree = DecisionTree(_grow(spec, rng, depth, full=seed % 2 == 0))
            assert_same_episode(make_env, tree, seed)

    def test_categorical_split(self):
        make_env = ROW_ENVS["hfs"]
        tree = DecisionTree(Split(Condition(0, CATEGORY_EQ, 1.0),
                                  Leaf([0.0] * 9 + [1.0]), Leaf([1.0] + [0.0] * 9)))
        env = assert_same_episode(make_env, tree, 0)
        assert set(env.actions) == {0, 9}

    def test_threshold_equal_to_a_row_value_is_strict(self):
        make_env = ROW_ENVS["makeorbuy"]
        rows = make_env().rows
        value = rows[0][3]
        tree = DecisionTree(Split(Condition(3, NUMERIC_GT, value),
                                  Leaf([0.0, 1.0]), Leaf([1.0, 0.0])))
        env = assert_same_episode(make_env, tree, 1)
        assert env.actions[0] == 0
        assert tree.root.no.visits == sum(row[3] <= value for row in rows)

    def test_a_leaf_no_row_reaches_gets_no_visits(self):
        make_env = ROW_ENVS["hfs"]
        top = max(row[1] for row in make_env().rows)
        unreached = Leaf([1.0] * 10)
        tree = DecisionTree(Split(Condition(1, NUMERIC_GT, top), unreached,
                                  Split(Condition(2, NUMERIC_GT, 5.0), Leaf(), Leaf())))
        assert_same_episode(make_env, tree, 2)
        assert unreached.visits == 0

    def test_a_leaf_acting_out_of_range_raises_steps_error(self):
        tree = DecisionTree(Leaf([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError) as stepped:
            read_only_episode_oracle(ROW_ENVS["makeorbuy"](), tree.copy(), 0)
        with pytest.raises(ValueError) as whole:
            run_episode(ROW_ENVS["makeorbuy"](), tree, READ_ONLY, np.random.default_rng(0), 0)
        assert str(whole.value) == str(stepped.value) == "action 2 outside 0..1"

    def test_a_zero_objective_returns_positive_zero(self):
        class Zero(RowEnv):
            objective_scale = -1.0  # 0 / -1 is -0.0; the step sum gives 0.0

            def objective(self, actions):
                return 0.0

        spec = EnvSpec(features=(FeatureSpec("x"),), action_count=2, episode_len=2,
                       stochastic=False)
        ret = run_episode(Zero(((0.0,), (1.0,)), spec), DecisionTree(Leaf()), READ_ONLY,
                          np.random.default_rng(0), 0)
        assert ret == 0.0 and math.copysign(1.0, ret) == 1.0

    def test_row_actions_are_each_rows_leaf_action(self):
        env = ROW_ENVS["hfs"]()
        tree = DecisionTree(_grow(env.spec, np.random.default_rng(7), 5, full=True))
        assert row_actions(tree, env).tolist() == [tree.traverse(r).action for r in env.rows]

    @pytest.mark.parametrize("kind", sorted(ROW_ENVS))
    def test_evaluate_fitness_draws_the_same_seeds(self, kind):
        """Against the per-step loop on the same episodes (an ``NdarrayObsEnv``
        is not a ``RowEnv``): equal fitness, visits and generator state."""
        make_env = ROW_ENVS[kind]
        env = make_env()
        tree = DecisionTree(_grow(env.spec, np.random.default_rng(3), 4, full=True))
        ref = tree.copy()
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = evaluate_fitness(tree, env, 3, rng, READ_ONLY)
        want = evaluate_fitness(ref, NdarrayObsEnv(make_env()), 3, ref_rng, READ_ONLY)
        assert got == want
        assert [leaf.visits for leaf in tree.leaves()] == [leaf.visits for leaf in ref.leaves()]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def count_calls(monkeypatch, cls, name):
    """Count the calls of method ``name`` of ``cls`` from now on."""
    calls = [0]
    method = getattr(cls, name)

    def counted(self, arg):
        calls[0] += 1
        return method(self, arg)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestWhichEpisodesStep:
    @pytest.mark.parametrize("kind", sorted(ROW_ENVS))
    @pytest.mark.parametrize("learning, steps", [
        (LearningConfig(), True),  # eldt's defaults
        (LearningConfig(alpha=0.0, epsilon=0.05), True),
        (LearningConfig(alpha=0.2, epsilon=0.0), True),
        (READ_ONLY, False),
    ])
    def test_step_calls_per_episode(self, monkeypatch, kind, learning, steps):
        env = ROW_ENVS[kind]()
        tree = DecisionTree(_grow(env.spec, np.random.default_rng(1), 3, full=True))
        tree.init_leaves(env.spec.action_count, np.random.default_rng(2))
        calls = count_calls(monkeypatch, RowEnv, "step")
        run_episode(env, tree, learning, np.random.default_rng(3), 4)
        assert calls[0] == (env.spec.episode_len if steps else 0)
        assert len(env.actions) == env.spec.episode_len

    def test_toy_env_steps_even_read_only(self, monkeypatch):
        """``ToyThresholdEnv`` draws each observation during the episode, so
        it is no ``RowEnv`` and keeps the step loop (``test_envs``'s
        ``TestRunEpisodeMatchesOracle`` holds its episodes to the oracle)."""
        env = ToyThresholdEnv()
        calls = count_calls(monkeypatch, ToyThresholdEnv, "step")
        run_episode(env, DecisionTree(Leaf([0.0, 1.0])), READ_ONLY, np.random.default_rng(0), 0)
        assert calls[0] == env.spec.episode_len

    def test_each_reached_split_is_tested_once_per_episode(self, monkeypatch):
        """Each split that some row reaches runs ``Condition.test`` once per
        episode, on every row at once: never once per row, and no test is
        kept from one episode for the next."""
        env = ROW_ENVS["makeorbuy"]()
        tree = DecisionTree(_grow(env.spec, np.random.default_rng(5), 4, full=True))
        reached = set()
        for row in env.rows:
            node = tree.root
            while isinstance(node, Split):
                reached.add(id(node))
                node = node.yes if node.condition.test(row) else node.no
        assert 1 < len(reached) < len(list(tree.splits()))
        tests = count_calls(monkeypatch, Condition, "test")
        for seed in range(3):
            run_episode(env, tree, READ_ONLY, np.random.default_rng(0), seed)
            assert tests[0] == (seed + 1) * len(reached)
