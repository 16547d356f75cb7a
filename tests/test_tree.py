import math
import re

import numpy as np
import pytest

from evoscm import (
    Condition,
    DecisionTree,
    Leaf,
    LearningConfig,
    Split,
    ToyThresholdEnv,
    epsilon_greedy,
    gp_evolve,
    parse_text,
    prune_unreached,
    q_update,
    structurally_equal,
    to_dot,
    to_oneline,
    to_text,
)
from evoscm.envs import EnvSpec, FeatureSpec
from oracles import bellman_oracle


def make_leaf(q):
    return Leaf(q)


def ab_spec(action_labels=None, categories=None):
    """One feature named A (categorical when ``categories`` is given)."""
    return EnvSpec(features=(FeatureSpec("A", 0.0, 10.0, categories),), action_count=2,
                   episode_len=1, stochastic=False, action_labels=action_labels)


def ab_tree():
    # if A > 4 then BUY else MAKE, with feature 0 = A, action 1 = BUY
    buy = make_leaf([0.0, 1.0])
    make = make_leaf([1.0, 0.0])
    return DecisionTree(Split(Condition(0, ">", 4.0), buy, make)), buy, make


class TestTraverse:
    def test_routes_above_threshold_to_yes_child(self):
        tree, buy, make = ab_tree()
        assert tree.traverse([7.0]) is buy

    def test_boundary_value_goes_to_no_child(self):
        tree, buy, make = ab_tree()
        assert tree.traverse([4.0]) is make

    def test_single_leaf_returns_itself(self):
        leaf = make_leaf([0.5, 0.5])
        tree = DecisionTree(leaf)
        assert tree.traverse([123.0]) is leaf

    def test_visit_counts_sum_to_traverse_calls(self):
        tree, _, _ = ab_tree()
        rng = np.random.default_rng(0)
        calls = 157
        for _ in range(calls):
            tree.traverse([rng.uniform(0, 10)])
        assert sum(l.visits for l in tree.leaves()) == calls
        tree.reset_visits()
        assert sum(l.visits for l in tree.leaves()) == 0

    def test_categorical_condition_matches_equality(self):
        cond = Condition(0, "==", 2.0)
        yes, no = make_leaf([1.0]), make_leaf([0.0])
        tree = DecisionTree(Split(cond, yes, no))
        assert tree.traverse([2.0]) is yes
        assert tree.traverse([3.0]) is no

    def test_exhaustive_small_domain_reaches_exactly_one_leaf(self):
        tree, _, _ = ab_tree()
        for v in range(10):
            before = sum(l.visits for l in tree.leaves())
            tree.traverse([float(v)])
            assert sum(l.visits for l in tree.leaves()) == before + 1


class TestEpsilonGreedy:
    def test_argmax_when_epsilon_zero(self):
        leaf = make_leaf([0.2, 0.9])
        assert epsilon_greedy(leaf, 0.0, np.random.default_rng(0)) == 1

    def test_tie_breaks_to_lowest_index(self):
        leaf = make_leaf([0.5, 0.5])
        for s in range(20):
            assert epsilon_greedy(leaf, 0.0, np.random.default_rng(s)) == 0

    def test_epsilon_one_is_uniform(self):
        leaf = make_leaf([9.0, 0.0, -3.0])
        rng = np.random.default_rng(7)
        n = 100_000
        counts = np.zeros(3, dtype=int)
        for _ in range(n):
            counts[epsilon_greedy(leaf, 1.0, rng)] += 1
        p = 1 / 3
        sigma = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3 * sigma)

    def test_positive_scaling_keeps_greedy_action(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.normal(size=4)
            leaf = make_leaf(q)
            scaled = make_leaf(q * 7.25)
            assert (epsilon_greedy(leaf, 0.0, rng)
                    == epsilon_greedy(scaled, 0.0, rng))


class TestQUpdate:
    def test_formula_anchor_from_zero(self):
        leaf = make_leaf([0.0, 0.0])
        v = q_update(leaf, 0, reward=1.0, max_next_q=0.0, alpha=0.1, gamma=0.9)
        assert abs(v - 0.1) <= 1e-12
        assert leaf.q[1] == 0.0

    def test_alpha_zero_is_identity(self):
        leaf = make_leaf([0.37, -0.2])
        v = q_update(leaf, 0, reward=5.0, max_next_q=3.0, alpha=0.0, gamma=0.9)
        assert v == 0.37

    def test_formula_anchor_half_step(self):
        leaf = make_leaf([0.5])
        v = q_update(leaf, 0, reward=0.0, max_next_q=1.0, alpha=0.5, gamma=0.9)
        assert abs(v - 0.7) <= 1e-12

    def test_matches_reference_formula_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q0 = rng.normal()
            a, g = rng.uniform(), rng.uniform()
            r, mn = rng.normal(), rng.normal()
            leaf = make_leaf([q0])
            got = q_update(leaf, 0, reward=r, max_next_q=mn, alpha=a, gamma=g)
            assert got == pytest.approx(bellman_oracle(q0, a, r, g, mn), abs=1e-12)

    def test_fixpoint_is_stable_for_any_alpha(self):
        for alpha in (0.0, 0.1, 0.5, 1.0):
            r, g, mn = 2.0, 0.9, 1.5
            leaf = make_leaf([r + g * mn])
            v = q_update(leaf, 0, reward=r, max_next_q=mn, alpha=alpha, gamma=g)
            assert v == pytest.approx(r + g * mn, abs=1e-12)


def _initialised_leaf():
    leaf = Leaf()
    leaf.init_q(3, np.random.default_rng(0))
    return leaf


def _updated_leaf():
    leaf = make_leaf([0.0, 0.5])
    q_update(leaf, 1, reward=1.0, max_next_q=0.25, alpha=0.1, gamma=0.9)
    return leaf


def _gp_leaf():
    return gp_evolve(ToyThresholdEnv(), 20, seed=0).artifacts["tree"].leaves()[0]


LEAF_SOURCES = {
    "init_q": _initialised_leaf,
    "ndarray": lambda: Leaf(np.array([0.25, -1.0])),
    "copy": lambda: Leaf(np.array([0.25, -1.0]), visits=2).copy(),
    "parse_text": lambda: parse_text("action 1  [visits=4]\n").root,
    "gp": _gp_leaf,
    "q_update": _updated_leaf,
}


@pytest.mark.parametrize("source", LEAF_SOURCES)
def test_leaf_q_is_a_list_of_floats(source):
    q = LEAF_SOURCES[source]().q
    assert type(q) is list and q
    assert all(type(v) is float for v in q)


class TestLeafAction:
    def test_leaf_without_q_acts_zero(self):
        assert Leaf().action == 0

    def test_uninitialised_trees_compare_by_structure(self):
        cond = Condition(0, ">", 1.0)
        a = DecisionTree(Split(cond, Leaf(), Leaf()))
        b = DecisionTree(Split(cond, Leaf(), Leaf()))
        assert structurally_equal(a, b)
        assert not structurally_equal(a, DecisionTree(Split(Condition(0, ">", 2.0),
                                                             Leaf(), Leaf())))

    def test_matches_numpy_argmax(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 10):
            for _ in range(200):
                q = rng.integers(-2, 3, size=n).astype(float)  # frequent ties
                assert make_leaf(q).action == int(np.argmax(q))


class TestPrune:
    def test_unvisited_false_child_collapses_to_true_child(self):
        tree, buy, make = ab_tree()
        tree.traverse([9.0])  # only the yes side is ever reached
        pruned = prune_unreached(tree)
        assert isinstance(pruned.root, Leaf)
        assert pruned.root.action == buy.action

    def test_all_visited_is_identity(self):
        tree, _, _ = ab_tree()
        tree.traverse([9.0])
        tree.traverse([1.0])
        pruned = prune_unreached(tree)
        assert structurally_equal(pruned, tree)

    def test_prune_applies_bottom_up_to_fixpoint(self):
        # inner split never visited on its no side, outer no side never visited
        inner = Split(Condition(0, ">", 8.0), make_leaf([1.0, 0.0]),
                      make_leaf([0.0, 1.0]))
        tree = DecisionTree(Split(Condition(0, ">", 4.0), inner,
                                  make_leaf([0.0, 1.0])))
        tree.traverse([9.0])
        pruned = prune_unreached(tree)
        assert isinstance(pruned.root, Leaf)

    def test_prune_does_not_mutate_original(self):
        tree, _, _ = ab_tree()
        tree.traverse([9.0])
        n_before = len(list(tree.nodes()))
        prune_unreached(tree)
        assert len(list(tree.nodes())) == n_before

    def test_replay_equivalence_on_visited_observations(self):
        rng = np.random.default_rng(5)
        feats = rng.uniform(0, 10, size=(400, 1))
        tree, _, _ = ab_tree()
        for row in feats:
            tree.traverse(row)
        pruned = prune_unreached(tree)
        for row in feats:
            assert pruned.traverse(row).action == tree.traverse(row).action


class TestExport:
    def test_text_round_trip_is_structurally_equal(self):
        tree, _, _ = ab_tree()
        tree.traverse([9.0])
        text = to_text(tree, ab_spec())
        again = parse_text(text, ab_spec())
        assert structurally_equal(again, tree)
        assert to_text(again, ab_spec()) == text

    def test_export_is_deterministic(self):
        tree, _, _ = ab_tree()
        assert to_text(tree) == to_text(tree)
        assert to_dot(tree) == to_dot(tree)

    def test_single_leaf_dot_has_one_node_no_edges(self):
        tree = DecisionTree(make_leaf([1.0, 0.0]))
        dot = to_dot(tree)
        assert dot.count("shape=ellipse") == 1
        assert "->" not in dot

    def test_dot_is_wellformed(self):
        tree, _, _ = ab_tree()
        dot = to_dot(tree, ab_spec(("MAKE", "BUY")))
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert dot.count("->") == 2
        assert "A > 4" in dot

    def test_oneline_nests_and_uses_labels(self):
        tree, _, _ = ab_tree()
        line = to_oneline(tree, ab_spec(("MAKE", "BUY")))
        assert line == "if A > 4 then (action BUY) else (action MAKE)"

    def test_categorical_labels_in_text(self):
        cond = Condition(0, "==", 1.0)
        tree = DecisionTree(Split(cond, make_leaf([0.0, 1.0]),
                                  make_leaf([1.0, 0.0])))
        text = to_text(tree, ab_spec(categories=("LT7", "LT8p")))
        assert "A == LT8p" in text


class TestParseText:
    TEXT = ("# best run seed=0\n"
            "if A == LT8p:\n"
            "    action BUY  [visits=3]\n"
            "else:\n"
            "    action MAKE  [visits=0]\n")

    def spec(self):
        return ab_spec(("MAKE", "BUY"), ("LT7", "LT8p"))

    def test_labels_map_back_through_the_spec(self):
        tree = parse_text(self.TEXT, self.spec())
        assert tree.root.condition == Condition(0, "==", 1.0)
        assert [(leaf.q, leaf.visits) for leaf in tree.leaves()] == [([0.0, 1.0], 3),
                                                                      ([1.0, 0.0], 0)]
        assert to_text(tree, self.spec()) == self.TEXT.partition("\n")[2]

    def test_leaves_get_the_spec_action_count(self):
        spec = EnvSpec(features=(FeatureSpec("A"),), action_count=10, episode_len=1,
                       stochastic=False)
        tree = parse_text("if A > 0.5:\n    action 3  [visits=1]\nelse:\n"
                          "    action 0  [visits=1]\n", spec)
        assert [len(leaf.q) for leaf in tree.leaves()] == [10, 10]
        assert [leaf.action for leaf in tree.leaves()] == [3, 0]

    def test_without_a_spec_actions_go_up_to_the_largest_named(self):
        tree = parse_text("if x1 > 2.5:\n    action 3  [visits=1]\nelse:\n"
                          "    action 0  [visits=1]\n")
        assert tree.root.condition == Condition(1, ">", 2.5)
        assert [len(leaf.q) for leaf in tree.leaves()] == [4, 4]

    @pytest.mark.parametrize("text, words", [
        ("if A == LT8p:\n", "line 1: the text ends inside this split"),
        ("if A == LT8p:\n    action BUY  [visits=3]\n",
         "line 1: this split has no 'else:'"),
        ("if A == LT8p:\n    action BUY  [visits=3]\naction MAKE  [visits=0]\n",
         "line 1: this split has no 'else:'"),
        ("#\nif A == LT9:\n    action BUY  [visits=3]\nelse:\n    action MAKE  [visits=0]\n",
         "line 2: unknown A category 'LT9'"),
        ("if A == LT8p:\n    action SELL  [visits=3]\nelse:\n    action MAKE  [visits=0]\n",
         "line 2: unknown action 'SELL'"),
        ("if B > 1:\n    action BUY  [visits=3]\nelse:\n    action MAKE  [visits=0]\n",
         "line 1: unknown feature 'B'"),
        ("action BUY\n", "line 1: expected 'action <label>  [visits=<count>]'"),
        ("action BUY  [visits=1]\naction BUY  [visits=1]\n", "line 2: trailing content"),
        *((f"#\nif A > {threshold}:\n    action BUY  [visits=3]\nelse:\n"
           "    action MAKE  [visits=0]\n", "line 2: the threshold must be a finite number")
          for threshold in ("inf", "-inf", "nan", "1e309")),
    ])
    def test_a_bad_line_is_named(self, text, words):
        with pytest.raises(ValueError, match=re.escape(words)):
            parse_text(text, self.spec())

    def test_a_large_finite_threshold_round_trips(self):
        text = "if A > 1e+300:\n    action BUY  [visits=3]\nelse:\n    action MAKE  [visits=0]\n"
        assert to_text(parse_text(text, self.spec()), self.spec()) == text


class TestLearningConfig:
    def test_defaults(self):
        lc = LearningConfig()
        assert (lc.alpha, lc.gamma, lc.epsilon) == (0.1, 0.9, 0.05)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LearningConfig(alpha=1.5)
        with pytest.raises(ValueError):
            LearningConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            LearningConfig(epsilon=2.0)

    def test_leaf_init_within_bounds(self):
        tree, _, _ = ab_tree()
        tree.init_leaves(2, np.random.default_rng(0), -1.0, 1.0)
        for leaf in tree.leaves():
            assert all(-1.0 <= v <= 1.0 for v in leaf.q)
            assert len(leaf.q) == 2
