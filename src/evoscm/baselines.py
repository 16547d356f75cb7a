"""Baseline optimizers: random search, a GA, an ACO, greedy
earliest-due-date, and genetic programming over policy trees.

Random search, GA, and ACO optimize a schedule as a whole through a
``SearchSpace`` (binary make-or-buy vectors or job permutations), which owns
the run's budget, trace and record; every candidate evaluation charges one
episode. GP evolves the same decision-tree policies ELDT uses, but with
constant-action leaves and learning disabled, as the no-learning control.
"""

from __future__ import annotations

import time

import numpy as np

from .envs import BudgetCounter
# Unused here, but tracers look these names up on this module.
from .envs import evaluate_fitness, greedy_rollout  # noqa: F401
from .evolve import (Individual, PolicySearch, checked, crossover_one_point,
                     replace_steady_state, select_parent)
from .flowshop import HfsInstance, decode_list_schedule, makespan
from .records import BestTrace, RunRecord
from .tree import Condition, DecisionTree, LearningConfig, Leaf, Split


class SearchSpace:
    """One run of a whole-solution search.

    ``kind`` is "binary" or "permutation"; ``score(candidate, rng)`` returns
    the objective (the rng covers stochastic simulators). The space owns the
    run's episode budget, best-so-far trace and start time: ``evaluate``
    charges one episode per call and records the result, and ``record``
    builds the run's RunRecord. A space serves one run.
    """

    def __init__(self, kind: str, size: int, score, maximize: bool, budget: int):
        if kind not in ("binary", "permutation"):
            raise ValueError(f"kind must be 'binary' or 'permutation', got {kind!r}")
        if size < 1:
            raise ValueError("size must be >= 1")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.t0 = time.perf_counter()
        self.kind, self.size, self.score, self.maximize = kind, size, score, maximize
        self.budget = BudgetCounter(budget)
        self.trace = BestTrace(maximize=maximize)

    def random_candidate(self, rng) -> np.ndarray:
        if self.kind == "binary":
            return rng.integers(0, 2, size=self.size)
        return rng.permutation(self.size)

    def evaluate(self, candidate, rng) -> float:
        """Charge one episode, score ``candidate`` and record it."""
        self.budget.charge(1)
        value = float(self.score(candidate, rng))
        self.trace.record(value, 1, payload=candidate)
        return value

    def record(self, algo: str, seed, params: dict) -> RunRecord:
        """The run's record, with the budget added to ``params``."""
        return RunRecord(
            algo=algo, seed=seed, trace=self.trace.values,
            final_objective=self.trace.best,
            solution=format_candidate(self.kind, self.trace.best_payload),
            episodes=self.budget.consumed, params={"budget": self.budget.limit, **params},
            wall_time=time.perf_counter() - self.t0)


def format_candidate(kind: str, candidate) -> str:
    if candidate is None:
        return ""
    if kind == "binary":
        return "".join(str(int(v)) for v in candidate)
    return " ".join(str(int(v)) for v in candidate)


def random_search(space: SearchSpace, seed) -> RunRecord:
    """Uniform sampling: fresh bits / unbiased shuffles until the budget is
    spent."""
    rng = np.random.default_rng(seed)
    while space.budget.remaining > 0:
        space.evaluate(space.random_candidate(rng), rng)
    return space.record("rs", seed, {})


def _flip_mutation(x, prob, rng):
    out = np.array(x, copy=True)
    mask = rng.random(len(out)) < prob
    out[mask] = 1 - out[mask]
    return out


def _swap_mutation(x, prob, rng):
    out = np.array(x, copy=True)
    if len(out) >= 2 and rng.random() < prob:
        i, j = rng.choice(len(out), size=2, replace=False)
        out[i], out[j] = out[j], out[i]
    return out


def order_crossover(a, b, rng):
    """OX: keep a random slice of each parent, fill the rest in the other
    parent's cyclic order. Children are always valid permutations."""
    n = len(a)
    if n < 2:
        return np.array(a, copy=True), np.array(b, copy=True)
    i, j = sorted(rng.choice(n + 1, size=2, replace=False))

    def child(keep, fill):
        out = np.full(n, -1, dtype=keep.dtype)
        out[i:j] = keep[i:j]
        kept = set(int(v) for v in keep[i:j])
        rest = [v for v in np.concatenate([fill[j:], fill[:j]]) if int(v) not in kept]
        slots = list(range(j, n)) + list(range(0, i))
        for slot, v in zip(slots, rest):
            out[slot] = v
        return out

    return child(a, b), child(b, a)


@checked
def ga_run(space: SearchSpace, seed, *, population_size: int = 50,
           crossover_prob: float = 0.9, tournament_size: int = 3,
           flip_prob: float = None, swap_prob: float = 0.8) -> RunRecord:
    """Genetic algorithm over the search space.

    Binary: one-point crossover and per-bit flips (default 1/n). Permutation:
    order crossover and a single random swap. ``evolve``'s tournament
    selection and elitist steady-state replacement, on fitness signed so
    that larger is better. The final generation truncates so the budget is consumed
    exactly.
    """
    rng = np.random.default_rng(seed)
    if flip_prob is None:
        flip_prob = 1.0 / space.size
    sign = 1.0 if space.maximize else -1.0

    def evaluate(x) -> Individual:
        return Individual(x, sign * space.evaluate(x, rng))

    population = [evaluate(space.random_candidate(rng))
                  for _ in range(min(population_size, space.budget.remaining))]
    while space.budget.remaining > 0:
        offspring = []
        while len(offspring) < population_size and space.budget.remaining > len(offspring):
            c1 = select_parent(population, tournament_size, rng).genotype
            c2 = select_parent(population, tournament_size, rng).genotype
            if rng.random() < crossover_prob:
                if space.kind == "permutation":
                    c1, c2 = order_crossover(c1, c2, rng)
                elif space.size >= 2:
                    c1, c2 = crossover_one_point(c1, c2, rng)
            for c in (c1, c2):
                if len(offspring) < population_size:
                    if space.kind == "binary":
                        offspring.append(_flip_mutation(c, flip_prob, rng))
                    else:
                        offspring.append(_swap_mutation(c, swap_prob, rng))
        scored = [evaluate(c) for c in offspring[:space.budget.remaining]]
        population = replace_steady_state(population, scored)
    return space.record("ga", seed, {"population_size": population_size,
                                     "crossover_prob": crossover_prob,
                                     "tournament_size": tournament_size,
                                     "flip_prob": flip_prob, "swap_prob": swap_prob})


def binary_probabilities(tau: np.ndarray) -> np.ndarray:
    """P(bit i = 1) from a (size, 2) pheromone matrix."""
    return tau[:, 1] / tau.sum(axis=1)


def sample_binary(tau, rng) -> np.ndarray:
    return (rng.random(len(tau)) < binary_probabilities(tau)).astype(np.int64)


def sample_permutation(tau, rng) -> np.ndarray:
    """Position-by-position roulette over the remaining jobs."""
    n = len(tau)
    remaining = list(range(n))
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        weights = tau[i, remaining]
        probs = weights / weights.sum()
        pick = int(rng.choice(len(remaining), p=probs))
        out[i] = remaining.pop(pick)
    return out


def pheromone_step(tau, rho, deposits, delta, tau_min=0.01, tau_max=10.0):
    """Evaporate everything by rho, deposit delta on the winner's components,
    clamp MAX-MIN style. Returns a new matrix."""
    out = tau * (1.0 - rho)
    for i, v in deposits:
        out[i, v] += delta
    return np.clip(out, tau_min, tau_max)


@checked
def aco_run(space: SearchSpace, seed, *, colony_size: int = 20,
            rho: float = 0.1, tau_min: float = 0.01,
            tau_max: float = 10.0) -> RunRecord:
    """MAX-MIN-style ant colony optimization.

    Binary spaces hold a (position, value) pheromone pair per bit;
    permutation spaces a (position, job) matrix. Each iteration evaluates the
    colony, evaporates by ``rho``, and lets the iteration best deposit its
    quality relative to the best seen (in (0, 1]), with pheromones clamped
    to [tau_min, tau_max]. The last colony truncates to consume the budget
    exactly.
    """
    rng = np.random.default_rng(seed)
    if space.kind == "binary":
        tau = np.ones((space.size, 2))
        sample = sample_binary
    else:
        tau = np.ones((space.size, space.size))
        sample = sample_permutation
    while space.budget.remaining > 0:
        ants = []
        for _ in range(min(colony_size, space.budget.remaining)):
            x = sample(tau, rng)
            ants.append((x, space.evaluate(x, rng)))
        x, f = (max if space.maximize else min)(ants, key=lambda ant: ant[1])
        best = space.trace.best
        if space.maximize:
            delta = f / best if best > 0 else 1.0
        else:
            delta = best / f if f > 0 else 1.0
        delta = min(max(delta, 1e-6), 1.0)
        tau = pheromone_step(tau, rho, [(i, int(v)) for i, v in enumerate(x)],
                             delta, tau_min, tau_max)
    return space.record("aco", seed, {"colony_size": colony_size, "rho": rho,
                                      "tau_min": tau_min, "tau_max": tau_max})


def greedy_edd(instance: HfsInstance) -> RunRecord:
    """Earliest due date first (stable on ties): one deterministic
    evaluation."""
    t0 = time.perf_counter()
    perm = sorted(range(len(instance.jobs)),
                  key=lambda i: (instance.jobs[i].due_day, i))
    cmax = makespan(decode_list_schedule(instance, perm))
    return RunRecord(
        algo="greedy", seed=0, trace=[cmax], final_objective=cmax,
        solution=format_candidate("permutation", np.array(perm)),
        episodes=1, params={}, wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Genetic programming over policy trees


def _random_condition(spec, rng) -> Condition:
    feat = int(rng.integers(0, len(spec.features)))
    f = spec.features[feat]
    if f.kind == "categorical":
        return Condition(feat, "==", float(rng.integers(0, len(f.categories))))
    thresholds = f.grammar_thresholds()
    return Condition(feat, ">", float(thresholds[int(rng.integers(0, len(thresholds)))]))


def _action_leaf(action: int, n_actions: int) -> Leaf:
    q = np.zeros(n_actions)
    q[action] = 1.0
    return Leaf(q=q)


def _random_leaf(spec, rng) -> Leaf:
    return _action_leaf(int(rng.integers(0, spec.action_count)), spec.action_count)


def _grow(spec, rng, depth: int, full: bool):
    if depth <= 0 or (not full and rng.random() < 0.3):
        return _random_leaf(spec, rng)
    return Split(_random_condition(spec, rng),
                 _grow(spec, rng, depth - 1, full),
                 _grow(spec, rng, depth - 1, full))


def _ramped_population(spec, rng, size: int, depths=(2, 4)) -> list:
    out = []
    lo, hi = depths
    for i in range(size):
        depth = lo + i % (hi - lo + 1)
        out.append(DecisionTree(_grow(spec, rng, depth, full=i % 2 == 0)))
    return out


def _replace_at(node, target: int, counter: list, replacement):
    """Replace the pre-order ``target``-th node (counting from 0)."""
    if counter[0] == target:
        counter[0] += 1
        return replacement, True
    counter[0] += 1
    if isinstance(node, Leaf):
        return node, False
    yes, hit = _replace_at(node.yes, target, counter, replacement)
    if hit:
        return Split(node.condition, yes, node.no), True
    no, hit = _replace_at(node.no, target, counter, replacement)
    return Split(node.condition, node.yes, no), hit


def subtree_crossover(a: DecisionTree, b: DecisionTree, rng,
                      max_depth: int = 6) -> DecisionTree:
    """Graft a random subtree of b onto a random point of a; offspring past
    the depth cap revert to a copy of a."""
    target = int(rng.integers(0, len(list(a.nodes()))))
    donors = list(b.nodes())  # pre-order, like _replace_at's count
    donor = DecisionTree(donors[int(rng.integers(0, len(donors)))]).copy().root
    root, _ = _replace_at(a.copy().root, target, [0], donor)
    child = DecisionTree(root)
    return a.copy() if child.depth() > max_depth else child


def subtree_mutation(a: DecisionTree, spec, rng, max_depth: int = 6) -> DecisionTree:
    """Replace a random node with a freshly grown subtree (depth <= 2)."""
    target = int(rng.integers(0, len(list(a.nodes()))))
    fresh = _grow(spec, rng, 2, full=False)
    root, _ = _replace_at(a.copy().root, target, [0], fresh)
    child = DecisionTree(root)
    return a.copy() if child.depth() > max_depth else child


@checked
def gp_evolve(env, budget: int, seed, *, population_size: int = 30,
              crossover_prob: float = 0.8, mutation_prob: float = 0.2,
              tournament_size: int = 3, max_depth: int = 6,
              episodes_per_eval: int = None) -> RunRecord:
    """Genetic programming over policy trees with constant-action leaves.

    The control for "does the Q-learning inside ELDT matter": same tree
    language, same fitness, but leaves are fixed actions and learning is off
    (alpha=0, epsilon=0). ELDT's selection, replacement and budget
    accounting (``PolicySearch``); only initialisation and variation differ.
    """
    search = PolicySearch(env, budget, seed, LearningConfig(alpha=0.0, epsilon=0.0),
                          episodes_per_eval)
    spec = search.spec
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x69EE)))

    generation = 0
    population = search.evaluate_in_order(
        [Individual(None, tree=t) for t in _ramped_population(spec, rng, population_size)],
        generation)
    while search.budget.remaining > 0:
        generation += 1
        offspring = []
        while len(offspring) < population_size:
            p1 = select_parent(population, tournament_size, rng).tree
            p2 = select_parent(population, tournament_size, rng).tree
            if rng.random() < crossover_prob:
                child = subtree_crossover(p1, p2, rng, max_depth)
            else:
                child = p1.copy()
            if rng.random() < mutation_prob:
                child = subtree_mutation(child, spec, rng, max_depth)
            offspring.append(Individual(None, tree=child))
        population = replace_steady_state(
            population, search.evaluate_in_order(offspring, generation))
    return search.record("gp", {"budget": budget, "population_size": population_size,
                                "crossover_prob": crossover_prob,
                                "mutation_prob": mutation_prob,
                                "tournament_size": tournament_size, "max_depth": max_depth})
