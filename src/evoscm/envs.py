"""Episodic environment contract, episode running and fitness evaluation.

An environment exposes ``reset(seed=None) -> obs`` and ``step(action) -> (obs,
reward, done)`` plus an ``EnvSpec`` describing its observation features, action
count, and episode length. One environment serves every episode of a run, and
``reset`` seeds each episode, as in Gymnasium's ``reset(seed=...)``. An
observation is a sequence of floats, one per feature (a tuple or list of
Python floats, not necessarily an ndarray), and a reward is a float.
Optimizers never touch simulators directly; one episode is one simulation
execution and is the unit every budget counts (``records.BestTrace``).

``run_episode`` runs every episode that ``evaluate_fitness`` scores;
``greedy_rollout`` steps its own closing episodes. A read-only episode (alpha
= epsilon = 0) on a ``RowEnv`` runs as one call: one walk of the tree tests
each split's condition on the row columns, and the objective is paid once.
Every other episode steps through ``step`` one row at a time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tree import DecisionTree, LearningConfig, Split, epsilon_greedy, q_update

# The latest day, and the longest duration in days, that a problem's data may
# name: far past any plan, and small enough that sums of days stay finite.
HORIZON_DAYS = 10**6


@dataclass(frozen=True)
class FeatureSpec:
    """One observation feature.

    Numeric features declare a [low, high] range; categorical features
    declare their labels and are observed as the label's index.
    """

    name: str
    low: float = 0.0
    high: float = 1.0
    categories: tuple = None

    @property
    def kind(self) -> str:
        return "categorical" if self.categories is not None else "numeric"

    @cached_property
    def grammar_thresholds(self) -> tuple:
        """Candidate split thresholds for policy grammars, computed on first
        access and kept with this feature.

        Modest integer ranges enumerate every integer; anything wider or
        fractional gets 21 evenly spaced values.
        """
        if self.categories is not None:
            raise ValueError(f"feature {self.name!r} is categorical")
        lo, hi = float(self.low), float(self.high)
        if lo == hi:
            return (lo,)
        if lo.is_integer() and hi.is_integer() and 2 <= hi - lo <= 40:
            return tuple(float(v) for v in range(int(lo), int(hi) + 1))
        return tuple(round(v, 6) for v in np.linspace(lo, hi, 21))


@dataclass(frozen=True)
class EnvSpec:
    features: tuple
    action_count: int
    episode_len: int
    stochastic: bool
    action_labels: tuple = None

    def __post_init__(self):
        if not self.features:
            raise ValueError("EnvSpec needs at least one feature")
        if self.action_count < 2:
            raise ValueError("action_count must be >= 2")
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")
        if self.action_labels is not None and len(self.action_labels) != self.action_count:
            raise ValueError("action_labels length must equal action_count")

    @property
    def feature_names(self) -> list:
        return [f.name for f in self.features]

    @property
    def feature_index(self) -> dict:
        return {f.name: i for i, f in enumerate(self.features)}


class Env:
    """Minimal episodic environment base class.

    ``objective_scale`` converts an episode return into the problem's
    reporting objective (revenue, makespan, ...); a negative scale flips the
    optimization direction.
    """

    spec: EnvSpec
    objective_scale: float = 1.0

    def reset(self, seed=None) -> Sequence[float]:
        """Start an episode; ``seed`` fixes its random draws (None: fresh
        entropy)."""
        raise NotImplementedError

    def step(self, action: int) -> tuple[Sequence[float], float, bool]:
        raise NotImplementedError


class RowEnv(Env):
    """An episode over a fixed table of observation rows: step i observes
    row i whatever was chosen before, and records one action per row. Every
    reward is 0 but the last, which is ``objective(actions) /
    objective_scale``.

    So a read-only episode is one action per row, and ``finish`` plays it
    whole; ``run_episode`` does so without calling ``step``. Subclasses
    define ``objective`` and may extend ``reset``, but must not override
    ``step``."""

    def __init__(self, rows: tuple, spec: EnvSpec):
        self.rows = rows
        self.spec = spec
        self.actions = []

    def objective(self, actions: list) -> float:
        """The problem's objective for one action per row."""
        raise NotImplementedError

    def reset(self, seed=None) -> Sequence[float]:
        self.actions = []
        return self.rows[0]

    def step(self, action: int):
        actions, rows = self.actions, self.rows
        i = len(actions) + 1
        if i > len(rows):
            raise ValueError("the episode is over; call reset() to start the next one")
        a = int(action)
        if a != action or not 0 <= a < self.spec.action_count:
            raise ValueError(f"action {action} outside 0..{self.spec.action_count - 1}")
        actions.append(a)
        if i < len(rows):
            return rows[i], 0.0, False
        return (0.0,) * len(rows[0]), self.objective(actions) / self.objective_scale, True

    @cached_property
    def _columns(self) -> np.ndarray:
        """The rows as one float array per feature."""
        return np.array(self.rows, dtype=float).T

    def finish(self, actions: np.ndarray) -> float:
        """Play the episode that ``reset`` started as a whole: record one
        action per row and return the terminal reward. An action out of
        range raises ``step``'s ValueError."""
        n = self.spec.action_count
        bad = np.flatnonzero((actions < 0) | (actions >= n))
        if bad.size:
            raise ValueError(f"action {actions[bad[0]]} outside 0..{n - 1}")
        self.actions = actions.tolist()
        return self.objective(self.actions) / self.objective_scale


def row_actions(tree: DecisionTree, env: RowEnv) -> np.ndarray:
    """The greedy action of ``tree`` on every row of ``env``: one walk splits
    the row indices by each split's ``Condition.test`` on the row columns, and
    each leaf's visits grow by the rows it serves, as a ``traverse`` per row
    would."""
    actions = np.empty(len(env.rows), dtype=np.intp)
    stack = [(tree.root, np.arange(len(env.rows)))]
    while stack:
        node, rows = stack.pop()
        if not rows.size:
            continue
        if isinstance(node, Split):
            yes = node.condition.test(env._columns)[rows]
            stack.append((node.yes, rows[yes]))
            stack.append((node.no, rows[~yes]))
        else:
            node.visits += rows.size
            actions[rows] = node.action
    return actions


def run_episode(env: Env, tree: DecisionTree, learning: LearningConfig, rng,
                seed=None) -> float:
    """Run one episode with epsilon-greedy actions and Q-learning updates.

    The leaf reached by the current observation is the Q-learning state; on
    non-terminal steps the update bootstraps from the next leaf's max Q, on
    the terminal step from 0. Returns the undiscounted episode return. The
    episode starts with ``env.reset(seed)``.

    With learning off (alpha = epsilon = 0) on a ``RowEnv``, the episode is
    one call: ``row_actions`` over the rows, then ``env.finish``. It gives
    the same return, actions and visits as the step loop, draws nothing from
    ``rng`` either, and never calls ``step``.
    """
    alpha, gamma, eps = learning.alpha, learning.gamma, learning.epsilon
    learn = alpha != 0.0
    if not learn and eps == 0.0 and isinstance(env, RowEnv):
        env.reset(seed)
        return 0.0 + env.finish(row_actions(tree, env))  # as the step sum: never -0.0
    traverse, step = tree.traverse, env.step
    leaf = traverse(env.reset(seed))
    total = 0.0
    for _ in range(env.spec.episode_len):
        action = epsilon_greedy(leaf, eps, rng)
        obs, reward, done = step(action)
        total += reward
        if done:
            if learn:
                q_update(leaf, action, reward, 0.0, alpha, gamma)
            break
        nxt = traverse(obs)
        if learn:
            q_update(leaf, action, reward, max(nxt.q), alpha, gamma)
        leaf = nxt
    return total


def evaluate_fitness(tree: DecisionTree, env: Env, episodes: int, rng,
                     learning: LearningConfig = None) -> float:
    """Mean return over ``episodes`` episodes (compensated summation).

    Each episode resets ``env`` with a seed drawn from ``rng``; learning
    stays on across the episodes of one evaluation.
    """
    if learning is None:
        learning = LearningConfig()
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    returns = [run_episode(env, tree, learning, rng, int(rng.integers(2**63 - 1)))
               for _ in range(episodes)]
    return math.fsum(returns) / episodes


def greedy_rollout(tree: DecisionTree, env: Env, episodes: int, seed):
    """Frozen-policy rollout (epsilon=0, no learning) recording every step.

    Returns (observations, actions, returns). Each logged observation is
    ``tuple(obs)``: a ``RowEnv``'s row itself, and a copy of any other
    sequence, so an environment that reuses one buffer cannot change the
    log. Visit counters do accumulate, which is exactly what pruning needs;
    call tree.reset_visits() first to make the counts reflect only this
    rollout.
    """
    rng = np.random.default_rng(seed)
    obs_log, act_log, rets = [], [], []
    for _ in range(episodes):
        obs = env.reset(int(rng.integers(2**63 - 1)))
        total = 0.0
        for _ in range(env.spec.episode_len):
            leaf = tree.traverse(obs)
            action = leaf.action
            obs_log.append(tuple(obs))
            act_log.append(action)
            obs, reward, done = env.step(action)
            total += reward
            if done:
                break
        rets.append(total)
    return obs_log, act_log, rets


class ToyThresholdEnv(Env):
    """Diagnostic bandit-chain: observe x ~ U[0,1], earn 1 iff the action
    matches the side of 0.5 (action 1 for x > 0.5, else action 0). 50 steps,
    so a perfect policy scores 50 and a constant policy 25 in expectation."""

    def __init__(self):
        self.spec = EnvSpec(
            features=(FeatureSpec("x", 0.0, 1.0),),
            action_count=2,
            episode_len=50,
            stochastic=True,
        )

    def reset(self, seed=None) -> list:
        self._rng = np.random.default_rng(seed)
        self._t = 0
        self._x = float(self._rng.random())
        return [self._x]

    def step(self, action: int):
        reward = 1.0 if (action == 1) == (self._x > 0.5) else 0.0
        self._t += 1
        done = self._t >= self.spec.episode_len
        self._x = float(self._rng.random())
        return [self._x], reward, done
