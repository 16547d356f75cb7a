"""Decision-tree policies: traversal, epsilon-greedy action choice, Q-learning
at the leaves, pruning of never-visited branches, and text/DOT export.

A tree is built from ``Split`` nodes (a binary condition on one observation
feature) and ``Leaf`` nodes holding one Q-value per action. The leaf reached
by an observation is the aggregated state used for tabular Q-learning, so a
policy stays readable while it learns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NUMERIC_GT = ">"
CATEGORY_EQ = "=="


def fmt_num(x: float) -> str:
    """Stable short formatting for thresholds and values ("4", "0.5")."""
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


@dataclass(frozen=True)
class Condition:
    """Binary test on one observation feature.

    ``obs[feature] > value`` for numeric splits (strictly greater) or
    ``obs[feature] == value`` for categorical splits.
    """

    feature: int
    op: str
    value: float

    def __post_init__(self):
        if self.op not in (NUMERIC_GT, CATEGORY_EQ):
            raise ValueError(f"unknown condition operator {self.op!r}")
        if self.feature < 0:
            raise ValueError("feature index must be >= 0")

    def test(self, obs) -> bool:
        """``obs`` holds Python floats (``DecisionTree.traverse`` converts an ndarray)."""
        if self.op == NUMERIC_GT:
            return obs[self.feature] > self.value
        return obs[self.feature] == self.value

    def describe(self, feature_names=None, categories=None) -> str:
        name = f"x{self.feature}" if feature_names is None else feature_names[self.feature]
        if self.op == CATEGORY_EQ and categories is not None and categories[self.feature]:
            return f"{name} == {categories[self.feature][int(self.value)]}"
        return f"{name} {self.op} {fmt_num(self.value)}"


class Leaf:
    """Q-value leaf. ``q`` is a list of one float per action (None until
    initialised), ``visits`` counts traversals that ended here."""

    __slots__ = ("q", "visits")

    def __init__(self, q=None, visits: int = 0):
        self.q = None if q is None else [float(v) for v in q]
        self.visits = visits

    def init_q(self, n_actions: int, rng, low: float = -1.0, high: float = 1.0):
        self.q = rng.uniform(low, high, n_actions).tolist()

    @property
    def action(self) -> int:
        """Greedy action: argmax of q, ties to the lowest index.

        A leaf whose q is None (not yet initialised) acts 0 on purpose, so
        that trees whose leaves hold no Q-values yet compare by shape and
        conditions alone in ``structurally_equal``.
        """
        if self.q is None:
            return 0
        return self.q.index(max(self.q))

    def copy(self) -> "Leaf":
        return Leaf(self.q, self.visits)


class Split:
    __slots__ = ("condition", "yes", "no")

    def __init__(self, condition: Condition, yes, no):
        self.condition = condition
        self.yes = yes
        self.no = no


class DecisionTree:
    """A policy: observations route through Split conditions to a Leaf."""

    def __init__(self, root):
        if root is None:
            raise ValueError("tree needs a root node")
        self.root = root

    def traverse(self, obs) -> Leaf:
        """Route obs (a sequence of floats; an ndarray is converted to one)
        to its leaf and increment that leaf's visit counter."""
        if isinstance(obs, np.ndarray):
            obs = obs.tolist()
        node = self.root
        while isinstance(node, Split):
            node = node.yes if node.condition.test(obs) else node.no
        node.visits += 1
        return node

    def nodes(self):
        """Pre-order iteration over all nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Split):
                stack.append(node.no)
                stack.append(node.yes)

    def leaves(self):
        return [n for n in self.nodes() if isinstance(n, Leaf)]

    def splits(self):
        return [n for n in self.nodes() if isinstance(n, Split)]

    def depth(self) -> int:
        def d(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(d(node.yes), d(node.no))

        return d(self.root)

    def init_leaves(self, n_actions: int, rng, low: float = -1.0, high: float = 1.0):
        """Give every leaf fresh uniform[low, high] Q-values."""
        for leaf in self.leaves():
            leaf.init_q(n_actions, rng, low, high)

    def reset_visits(self):
        for leaf in self.leaves():
            leaf.visits = 0

    def copy(self) -> "DecisionTree":
        def cp(node):
            if isinstance(node, Leaf):
                return node.copy()
            return Split(node.condition, cp(node.yes), cp(node.no))

        return DecisionTree(cp(self.root))


@dataclass(frozen=True)
class LearningConfig:
    """Q-learning hyperparameters for the leaves."""

    alpha: float = 0.1
    gamma: float = 0.9
    epsilon: float = 0.05

    def __post_init__(self):
        for name in ("alpha", "gamma", "epsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def epsilon_greedy(leaf: Leaf, epsilon: float, rng) -> int:
    """With prob epsilon pick a uniform action, else argmax (ties: lowest index)."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, len(leaf.q)))
    return leaf.action


def q_update(leaf: Leaf, action: int, reward: float, max_next_q: float,
             alpha: float, gamma: float) -> float:
    """One Bellman update on the leaf:

    Q(s,a) <- (1 - alpha) * Q(s,a) + alpha * (reward + gamma * max_next_q)

    Returns the new Q-value. ``max_next_q`` must be 0 on terminal steps.
    """
    q = leaf.q
    new = (1.0 - alpha) * q[action] + alpha * (reward + gamma * max_next_q)
    q[action] = new
    return new


def _subtree_visits(node) -> int:
    if isinstance(node, Leaf):
        return node.visits
    return _subtree_visits(node.yes) + _subtree_visits(node.no)


def prune_unreached(tree: DecisionTree) -> DecisionTree:
    """Drop branches no traversal reached.

    Bottom-up: a split with one zero-visit child is replaced by the other
    child, repeated to fixpoint. Returns a new tree; surviving leaves keep
    their Q-values and visit counts (copies, so the input is untouched).
    """

    def prune(node):
        if isinstance(node, Leaf):
            return node.copy()
        yes, no = prune(node.yes), prune(node.no)
        if _subtree_visits(yes) == 0:
            return no
        if _subtree_visits(no) == 0:
            return yes
        return Split(node.condition, yes, no)

    return DecisionTree(prune(tree.root))


def structurally_equal(a: DecisionTree, b: DecisionTree) -> bool:
    """Same shape, same conditions, same greedy action at every leaf."""

    def eq(x, y):
        if isinstance(x, Leaf) != isinstance(y, Leaf):
            return False
        if isinstance(x, Leaf):
            return x.action == y.action
        return x.condition == y.condition and eq(x.yes, y.yes) and eq(x.no, y.no)

    return eq(a.root, b.root)


def to_text(tree: DecisionTree, feature_names=None, action_labels=None,
            categories=None) -> str:
    """Readable nested if/else form; parse_text() reverses it.

    Leaves are annotated with their greedy action and visit count.
    """

    lines = []

    def emit(node, indent):
        pad = "    " * indent
        if isinstance(node, Leaf):
            label = str(node.action) if action_labels is None else action_labels[node.action]
            lines.append(f"{pad}action {label}  [visits={node.visits}]")
            return
        lines.append(f"{pad}if {node.condition.describe(feature_names, categories)}:")
        emit(node.yes, indent + 1)
        lines.append(f"{pad}else:")
        emit(node.no, indent + 1)

    emit(tree.root, 0)
    return "\n".join(lines) + "\n"


def to_oneline(tree: DecisionTree, feature_names=None, action_labels=None,
               categories=None) -> str:
    """Single-line form of the policy, for CSV cells and logs."""

    def emit(node):
        if isinstance(node, Leaf):
            label = str(node.action) if action_labels is None else action_labels[node.action]
            return f"action {label}"
        cond = node.condition.describe(feature_names, categories)
        return f"if {cond} then ({emit(node.yes)}) else ({emit(node.no)})"

    return emit(tree.root)


def to_dot(tree: DecisionTree, feature_names=None, action_labels=None,
           categories=None) -> str:
    """Graphviz DOT export with deterministic pre-order node ids."""

    lines = ["digraph policy {", '    node [fontname="Helvetica"];']
    counter = [0]

    def emit(node) -> str:
        nid = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, Leaf):
            label = str(node.action) if action_labels is None else action_labels[node.action]
            qtxt = ""
            if node.q is not None:
                qtxt = "\\nq=[" + ", ".join(f"{v:.3f}" for v in node.q) + "]"
            lines.append(
                f'    {nid} [shape=ellipse, label="action {label}\\nvisits={node.visits}{qtxt}"];'
            )
            return nid
        cond = node.condition.describe(feature_names, categories)
        lines.append(f'    {nid} [shape=box, label="{cond}"];')
        yid = emit(node.yes)
        nid2 = emit(node.no)
        lines.append(f'    {nid} -> {yid} [label="yes"];')
        lines.append(f'    {nid} -> {nid2} [label="no"];')
        return nid

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_text(text: str, feature_names=None, action_labels=None) -> DecisionTree:
    """Parse the to_text() format back into a tree.

    Parsed leaves get one-hot Q-values reproducing the annotated action, and
    the annotated visit count, so the result is structurally equal to the
    exported tree.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty tree text")
    name_to_idx = None
    if feature_names is not None:
        name_to_idx = {n: i for i, n in enumerate(feature_names)}
    label_to_action = None
    if action_labels is not None:
        label_to_action = {l: i for i, l in enumerate(action_labels)}

    pos = [0]
    actions_seen = []

    def indent_of(line):
        return (len(line) - len(line.lstrip())) // 4

    def parse_node(indent):
        line = lines[pos[0]]
        if indent_of(line) != indent:
            raise ValueError(f"bad indentation at line {pos[0] + 1}: {line!r}")
        body = line.strip()
        pos[0] += 1
        if body.startswith("action "):
            rest = body[len("action "):]
            if "[visits=" not in rest:
                raise ValueError(f"leaf line missing visits annotation: {body!r}")
            label, _, ann = rest.partition("[visits=")
            label = label.strip()
            visits = int(ann.rstrip("]").strip())
            if label_to_action is not None:
                action = label_to_action[label]
            else:
                action = int(label)
            actions_seen.append(action)
            leaf = Leaf(visits=visits)
            leaf.q = action  # patched to one-hot after n_actions is known
            return leaf
        if not body.startswith("if ") or not body.endswith(":"):
            raise ValueError(f"expected 'if <cond>:' or 'action', got {body!r}")
        cond = _parse_condition(body[3:-1].strip(), name_to_idx)
        yes = parse_node(indent + 1)
        el = lines[pos[0]].strip()
        if el != "else:":
            raise ValueError(f"expected 'else:', got {el!r}")
        pos[0] += 1
        no = parse_node(indent + 1)
        return Split(cond, yes, no)

    root = parse_node(0)
    if pos[0] != len(lines):
        raise ValueError("trailing content after tree")
    n_actions = len(action_labels) if action_labels is not None else max(actions_seen) + 1
    tree = DecisionTree(root)
    for leaf in tree.leaves():
        leaf.q = [float(a == leaf.q) for a in range(n_actions)]
    return tree


def _parse_condition(text: str, name_to_idx=None) -> Condition:
    for op in (CATEGORY_EQ, NUMERIC_GT):
        if f" {op} " in text:
            lhs, _, rhs = text.partition(f" {op} ")
            lhs = lhs.strip()
            if name_to_idx is not None:
                if lhs not in name_to_idx:
                    raise ValueError(f"unknown feature name {lhs!r}")
                feature = name_to_idx[lhs]
            else:
                if not (lhs.startswith("x") and lhs[1:].isdigit()):
                    raise ValueError(f"unknown feature name {lhs!r}")
                feature = int(lhs[1:])
            return Condition(feature, op, float(rhs.strip()))
    raise ValueError(f"cannot parse condition {text!r}")
