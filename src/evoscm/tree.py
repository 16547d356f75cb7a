"""Decision-tree policies: traversal, epsilon-greedy action choice, Q-learning
at the leaves, pruning of never-visited branches, and text/DOT export.

A tree is built from ``Split`` nodes (a binary condition on one observation
feature) and ``Leaf`` nodes holding one Q-value per action. The leaf reached
by an observation is the aggregated state used for tabular Q-learning, so a
policy stays readable while it learns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    ``obs[feature] == value`` for categorical splits. ``obs`` is one
    observation, or a 2-D float array whose row ``feature`` holds that
    feature for many observations; then ``test`` gives one bool per
    observation.
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
        if self.op == NUMERIC_GT:
            return obs[self.feature] > self.value
        return obs[self.feature] == self.value

    def describe(self, spec=None) -> str:
        """``x0 > 4``, or with an ``EnvSpec`` its feature and category labels."""
        if spec is None:
            return f"x{self.feature} {self.op} {fmt_num(self.value)}"
        feature = spec.features[self.feature]
        if self.op == CATEGORY_EQ and feature.categories:
            return f"{feature.name} == {feature.categories[int(self.value)]}"
        return f"{feature.name} {self.op} {fmt_num(self.value)}"


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
        """Route obs (a sequence of floats) to its leaf and increment that
        leaf's visit counter."""
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


def prune_unreached(tree: DecisionTree) -> DecisionTree:
    """Drop branches no traversal reached, in one walk of the tree.

    Bottom-up: a split with one zero-visit child is replaced by the other
    child, repeated to fixpoint. Returns a new tree; surviving leaves keep
    their Q-values and visit counts (copies, so the input is untouched).
    """

    def prune(node):  # (the pruned copy of node, the visits under it)
        if isinstance(node, Leaf):
            return node.copy(), node.visits
        (yes, yes_visits), (no, no_visits) = prune(node.yes), prune(node.no)
        if yes_visits == 0:
            return no, no_visits
        if no_visits == 0:
            return yes, yes_visits
        return Split(node.condition, yes, no), yes_visits + no_visits

    return DecisionTree(prune(tree.root)[0])


def structurally_equal(a: DecisionTree, b: DecisionTree) -> bool:
    """Same shape, same conditions, same greedy action at every leaf."""

    def eq(x, y):
        if isinstance(x, Leaf) != isinstance(y, Leaf):
            return False
        if isinstance(x, Leaf):
            return x.action == y.action
        return x.condition == y.condition and eq(x.yes, y.yes) and eq(x.no, y.no)

    return eq(a.root, b.root)


def _action(leaf: Leaf, spec) -> str:
    """The leaf's greedy action as its spec label, or as an integer."""
    if spec is None or spec.action_labels is None:
        return str(leaf.action)
    return spec.action_labels[leaf.action]


def to_text(tree: DecisionTree, spec=None) -> str:
    """Readable nested if/else form; parse_text() reverses it.

    Leaves are annotated with their greedy action and visit count. An
    ``EnvSpec`` labels features, categories and actions (see ``describe``).
    """

    lines = []

    def emit(node, indent):
        pad = "    " * indent
        if isinstance(node, Leaf):
            lines.append(f"{pad}action {_action(node, spec)}  [visits={node.visits}]")
            return
        lines.append(f"{pad}if {node.condition.describe(spec)}:")
        emit(node.yes, indent + 1)
        lines.append(f"{pad}else:")
        emit(node.no, indent + 1)

    emit(tree.root, 0)
    return "\n".join(lines) + "\n"


def to_oneline(tree: DecisionTree, spec=None) -> str:
    """Single-line form of the policy, for CSV cells and logs."""

    def emit(node):
        if isinstance(node, Leaf):
            return f"action {_action(node, spec)}"
        cond = node.condition.describe(spec)
        return f"if {cond} then ({emit(node.yes)}) else ({emit(node.no)})"

    return emit(tree.root)


def to_dot(tree: DecisionTree, spec=None) -> str:
    """Graphviz DOT export with deterministic pre-order node ids."""

    lines = ["digraph policy {", '    node [fontname="Helvetica"];']
    counter = [0]

    def emit(node) -> str:
        nid = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, Leaf):
            qtxt = ""
            if node.q is not None:
                qtxt = "\\nq=[" + ", ".join(f"{v:.3f}" for v in node.q) + "]"
            lines.append(f'    {nid} [shape=ellipse, label="action {_action(node, spec)}'
                         f'\\nvisits={node.visits}{qtxt}"];')
            return nid
        lines.append(f'    {nid} [shape=box, label="{node.condition.describe(spec)}"];')
        yid = emit(node.yes)
        nid2 = emit(node.no)
        lines.append(f'    {nid} -> {yid} [label="yes"];')
        lines.append(f'    {nid} -> {nid2} [label="no"];')
        return nid

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_text(text: str, spec=None) -> DecisionTree:
    """Read the to_text() form back; blank lines and ``#`` lines are skipped.

    Names and labels map back through ``spec``; without one, features read
    ``x0``, ``x1``... and actions are integers. Each leaf gets its annotated
    visit count and one-hot Q-values on its action, one per action of
    ``spec`` (without one, up to the largest named), so the result is
    structurally equal to the exported tree. A line that does not fit, or
    a threshold that is not finite, raises ValueError naming it.
    """
    lines = [(number, line.rstrip()) for number, line in enumerate(text.splitlines(), 1)
             if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty tree text")
    actions = spec and tuple(spec.action_labels or map(str, range(spec.action_count)))
    leaves = []  # (leaf, action), in text order
    pos = 0

    def fail(at, why):
        raise ValueError(f"tree text line {lines[at][0]}: {why}: {lines[at][1].strip()!r}")

    def index(at, what, label, labels, prefix=""):  # without a spec, labels is None
        if labels is None and label.startswith(prefix) and label[len(prefix):].isdigit():
            return int(label[len(prefix):])
        if labels is None or label not in labels:
            fail(at, f"unknown {what} {label!r}")
        return labels.index(label)

    def node(indent, parent):
        nonlocal pos
        if pos == len(lines):
            fail(parent, "the text ends inside this split")
        at, pos = pos, pos + 1
        line = lines[at][1]
        body = line.lstrip()
        if len(line) - len(body) != 4 * indent:
            fail(at, f"expected an indent of {4 * indent} spaces")
        if body.startswith("action "):
            label, _, visits = body[len("action "):].rpartition("[visits=")
            if not (visits.endswith("]") and visits[:-1].isdigit()):
                fail(at, "expected 'action <label>  [visits=<count>]'")
            leaf = Leaf(visits=int(visits[:-1]))
            leaves.append((leaf, index(at, "action", label.strip(), actions)))
            return leaf
        if not (body.startswith("if ") and body.endswith(":")):
            fail(at, "expected 'if <condition>:' or 'action <label>  [visits=<count>]'")
        op = CATEGORY_EQ if f" {CATEGORY_EQ} " in body else NUMERIC_GT
        name, _, value = body[len("if "):-1].partition(f" {op} ")
        feature = index(at, "feature", name, spec and spec.feature_names, "x")
        categories = spec and spec.features[feature].categories
        if op == CATEGORY_EQ and categories:
            value = index(at, f"{name} category", value, categories)
        try:
            cond = Condition(feature, op, float(value))
        except ValueError:
            fail(at, "expected 'if <feature> > <number>:' or 'if <feature> == <category>:'")
        if not math.isfinite(cond.value):
            fail(at, "the threshold must be a finite number")
        yes = node(indent + 1, at)
        if [ln for _, ln in lines[pos:pos + 1]] != ["    " * indent + "else:"]:
            fail(at, "this split has no 'else:' after its yes branch")
        pos += 1
        return Split(cond, yes, node(indent + 1, at))

    root = node(0, 0)
    if pos != len(lines):
        fail(pos, "trailing content after the tree")
    n_actions = spec.action_count if spec is not None else max(a for _, a in leaves) + 1
    for leaf, action in leaves:
        leaf.q = [float(a == action) for a in range(n_actions)]
    return DecisionTree(root)
