"""Baseline optimizers: random search, a GA, an ACO, greedy
earliest-due-date, and genetic programming over policy trees.

Random search, GA, and ACO optimize a schedule as a whole through a
``SearchSpace`` (binary make-or-buy vectors or job permutations); every
candidate evaluation charges the shared budget with one episode. GP evolves
the same decision-tree policies ELDT uses, but with constant-action leaves
and learning disabled, as the no-learning control.
"""

from __future__ import annotations

import functools
import inspect
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .envs import BudgetCounter, evaluate_fitness, greedy_rollout
from .flowshop import HfsInstance, decode_list_schedule, makespan
from .records import BestTrace, RunRecord
from .tree import (Condition, DecisionTree, LearningConfig, Leaf, Split,
                   prune_unreached, to_oneline)


@dataclass
class SearchSpace:
    """A whole-solution search problem.

    ``kind`` is "binary" or "permutation"; ``score(candidate, rng)`` returns
    the objective (the rng covers stochastic simulators). ``evaluate``
    charges one episode on the budget per call.
    """

    kind: str
    size: int
    score: object
    maximize: bool
    budget: BudgetCounter

    def __post_init__(self):
        if self.kind not in ("binary", "permutation"):
            raise ValueError(f"kind must be 'binary' or 'permutation', got {self.kind!r}")
        if self.size < 1:
            raise ValueError("size must be >= 1")

    def random_candidate(self, rng) -> np.ndarray:
        if self.kind == "binary":
            return rng.integers(0, 2, size=self.size)
        return rng.permutation(self.size)

    def evaluate(self, candidate, rng) -> float:
        self.budget.charge(1)
        return float(self.score(candidate, rng))

    def better(self, a: float, b: float) -> bool:
        return a > b if self.maximize else a < b


def format_candidate(kind: str, candidate) -> str:
    if candidate is None:
        return ""
    if kind == "binary":
        return "".join(str(int(v)) for v in candidate)
    return " ".join(str(int(v)) for v in candidate)


# Valid values of the runners' keyword hyperparameters, by name. A size
# below 1 leaves a generation, colony, tournament or evaluation empty, and an
# empty generation or evaluation never ends a run.
_SIZES = ("population_size", "colony_size", "tournament_size", "episodes_per_eval")
_PROBABILITIES = ("crossover_prob", "mutation_prob", "flip_prob", "swap_prob", "rho")


def check_params(runner, params: dict):
    """Raise ValueError unless ``params`` are keyword hyperparameters that
    ``runner`` takes, with values it can run with: sizes are integers >= 1,
    probabilities lie in [0, 1], and 0 < tau_min <= tau_max. None keeps a
    default that the runner resolves itself."""
    defaults = {name: p.default
                for name, p in inspect.signature(runner).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {runner.__name__} params: {unknown} "
                         f"(known: {sorted(defaults)})")
    values = {**defaults, **params}
    for name, v in values.items():
        if v is None:
            continue
        if name in _SIZES and (isinstance(v, bool)
                               or not isinstance(v, numbers.Integral) or v < 1):
            raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if name in _PROBABILITIES and not (isinstance(v, numbers.Real)
                                           and 0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {v!r}")
    if "tau_min" in values:
        low, high = values["tau_min"], values["tau_max"]
        if not (isinstance(low, numbers.Real) and isinstance(high, numbers.Real)
                and 0.0 < low <= high):
            raise ValueError(f"need 0 < tau_min <= tau_max, got {low!r}, {high!r}")


def _checked(runner):
    """Apply ``check_params`` to the keyword hyperparameters of every call;
    other arguments pass through unchanged."""
    names = {name for name, p in inspect.signature(runner).parameters.items()
             if p.kind is p.KEYWORD_ONLY}

    @functools.wraps(runner)
    def wrapper(*args, **kwargs):
        check_params(runner, {k: v for k, v in kwargs.items() if k in names})
        return runner(*args, **kwargs)

    return wrapper


def random_search(space: SearchSpace, budget: int, seed) -> RunRecord:
    """Uniform sampling: fresh bits / unbiased shuffles, exactly ``budget``
    evaluations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    trace = BestTrace(maximize=space.maximize)
    for _ in range(budget):
        x = space.random_candidate(rng)
        trace.record(space.evaluate(x, rng), 1, payload=x)
    return RunRecord(
        algo="rs", seed=seed, trace=trace.values,
        final_objective=trace.best,
        solution=format_candidate(space.kind, trace.best_payload),
        episodes=budget, params={"budget": budget},
        wall_time=time.perf_counter() - t0)


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


def _one_point_binary(a, b, rng):
    if len(a) < 2:
        return np.array(a, copy=True), np.array(b, copy=True)
    cut = int(rng.integers(1, len(a)))
    return (np.concatenate([a[:cut], b[cut:]]),
            np.concatenate([b[:cut], a[cut:]]))


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


def _tournament(scored: list, k: int, better, rng):
    idxs = rng.integers(0, len(scored), size=k)
    best = None
    for i in sorted(int(v) for v in idxs):
        if best is None or better(scored[i][1], scored[best][1]):
            best = i
    return scored[best][0]


@_checked
def ga_run(space: SearchSpace, budget: int, seed, *, population_size: int = 50,
           crossover_prob: float = 0.9, tournament_size: int = 3,
           flip_prob: float = None, swap_prob: float = 0.8) -> RunRecord:
    """Genetic algorithm over the search space.

    Binary: one-point crossover and per-bit flips (default 1/n). Permutation:
    order crossover and a single random swap. Tournament selection with
    elitist truncation replacement over parents + offspring. The final
    generation truncates so the budget is consumed exactly.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    if flip_prob is None:
        flip_prob = 1.0 / space.size
    trace = BestTrace(maximize=space.maximize)

    def evaluate(x):
        f = space.evaluate(x, rng)
        trace.record(f, 1, payload=x)
        return (x, f)

    remaining = budget
    population = []
    for _ in range(min(population_size, remaining)):
        population.append(evaluate(space.random_candidate(rng)))
        remaining -= 1
    while remaining > 0:
        offspring = []
        while len(offspring) < population_size and remaining > len(offspring):
            p1 = _tournament(population, tournament_size, space.better, rng)
            p2 = _tournament(population, tournament_size, space.better, rng)
            if rng.random() < crossover_prob:
                if space.kind == "binary":
                    c1, c2 = _one_point_binary(p1, p2, rng)
                else:
                    c1, c2 = order_crossover(p1, p2, rng)
            else:
                c1, c2 = np.array(p1, copy=True), np.array(p2, copy=True)
            for c in (c1, c2):
                if len(offspring) < population_size:
                    if space.kind == "binary":
                        offspring.append(_flip_mutation(c, flip_prob, rng))
                    else:
                        offspring.append(_swap_mutation(c, swap_prob, rng))
        scored = []
        for c in offspring:
            if remaining == 0:
                break
            scored.append(evaluate(c))
            remaining -= 1
        merged = population + scored
        merged.sort(key=lambda xf: xf[1], reverse=space.maximize)
        population = merged[:population_size]
    return RunRecord(
        algo="ga", seed=seed, trace=trace.values,
        final_objective=trace.best,
        solution=format_candidate(space.kind, trace.best_payload),
        episodes=budget,
        params={"budget": budget, "population_size": population_size,
                "crossover_prob": crossover_prob,
                "tournament_size": tournament_size,
                "flip_prob": flip_prob, "swap_prob": swap_prob},
        wall_time=time.perf_counter() - t0)


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


@_checked
def aco_run(space: SearchSpace, budget: int, seed, *, colony_size: int = 20,
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
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    trace = BestTrace(maximize=space.maximize)
    if space.kind == "binary":
        tau = np.ones((space.size, 2))
        sample = sample_binary
    else:
        tau = np.ones((space.size, space.size))
        sample = sample_permutation
    remaining = budget
    while remaining > 0:
        ants = []
        for _ in range(min(colony_size, remaining)):
            x = sample(tau, rng)
            f = space.evaluate(x, rng)
            trace.record(f, 1, payload=x)
            ants.append((x, f))
            remaining -= 1
        winner = ants[0]
        for ant in ants[1:]:
            if space.better(ant[1], winner[1]):
                winner = ant
        x, f = winner
        best = trace.best
        if space.maximize:
            delta = f / best if best > 0 else 1.0
        else:
            delta = best / f if f > 0 else 1.0
        delta = min(max(delta, 1e-6), 1.0)
        tau = pheromone_step(tau, rho, [(i, int(v)) for i, v in enumerate(x)],
                             delta, tau_min, tau_max)
    return RunRecord(
        algo="aco", seed=seed, trace=trace.values,
        final_objective=trace.best,
        solution=format_candidate(space.kind, trace.best_payload),
        episodes=budget,
        params={"budget": budget, "colony_size": colony_size, "rho": rho,
                "tau_min": tau_min, "tau_max": tau_max},
        wall_time=time.perf_counter() - t0)


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


def _node_count(node) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + _node_count(node.yes) + _node_count(node.no)


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


def _subtree_at(node, target: int, counter: list):
    if counter[0] == target:
        return node
    counter[0] += 1
    if isinstance(node, Leaf):
        return None
    found = _subtree_at(node.yes, target, counter)
    if found is not None:
        return found
    return _subtree_at(node.no, target, counter)


def _copy_node(node):
    if isinstance(node, Leaf):
        return node.copy()
    return Split(node.condition, _copy_node(node.yes), _copy_node(node.no))


def _depth(node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(_depth(node.yes), _depth(node.no))


def subtree_crossover(a: DecisionTree, b: DecisionTree, rng,
                      max_depth: int = 6) -> DecisionTree:
    """Graft a random subtree of b onto a random point of a; offspring past
    the depth cap revert to a copy of a."""
    target = int(rng.integers(0, _node_count(a.root)))
    donor_idx = int(rng.integers(0, _node_count(b.root)))
    donor = _copy_node(_subtree_at(b.root, donor_idx, [0]))
    root, _ = _replace_at(_copy_node(a.root), target, [0], donor)
    if _depth(root) > max_depth:
        return DecisionTree(_copy_node(a.root))
    return DecisionTree(root)


def subtree_mutation(a: DecisionTree, spec, rng, max_depth: int = 6) -> DecisionTree:
    """Replace a random node with a freshly grown subtree (depth <= 2)."""
    target = int(rng.integers(0, _node_count(a.root)))
    fresh = _grow(spec, rng, 2, full=False)
    root, _ = _replace_at(_copy_node(a.root), target, [0], fresh)
    if _depth(root) > max_depth:
        return DecisionTree(_copy_node(a.root))
    return DecisionTree(root)


@_checked
def gp_evolve(env_factory, budget: int, seed, *, population_size: int = 30,
              crossover_prob: float = 0.8, mutation_prob: float = 0.2,
              tournament_size: int = 3, max_depth: int = 6,
              episodes_per_eval: int = None) -> RunRecord:
    """Genetic programming over policy trees with constant-action leaves.

    The control for "does the Q-learning inside ELDT matter": same tree
    language, same fitness, but leaves are fixed actions and learning is off
    (alpha=0, epsilon=0). Steady-state replacement, exact episode budget with
    the same partial-quota truncation as run_eldt.
    """
    t0 = time.perf_counter()
    spec = env_factory(0).spec
    e = episodes_per_eval or (3 if spec.stochastic else 1)
    learning = LearningConfig(alpha=0.0, epsilon=0.0)
    counter = BudgetCounter(budget)
    trace = BestTrace(maximize=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x69EE)))

    scored = []  # (tree, fitness), best first after each merge

    def evaluate(tree, generation, index):
        stream = np.random.default_rng(np.random.SeedSequence((seed, generation, index)))
        quota = min(e, counter.remaining)
        before = counter.consumed
        f = evaluate_fitness(tree, env_factory, quota, stream, learning, counter)
        trace.record(f, counter.consumed - before, payload=tree)
        return (tree, f)

    generation = 0
    for index, tree in enumerate(_ramped_population(spec, rng, population_size)):
        if counter.remaining == 0:
            break
        scored.append(evaluate(tree, generation, index))
    while counter.remaining > 0:
        generation += 1
        offspring = []
        while len(offspring) < population_size:
            p1 = _tournament(scored, tournament_size, lambda a, b: a > b, rng)
            p2 = _tournament(scored, tournament_size, lambda a, b: a > b, rng)
            if rng.random() < crossover_prob:
                child = subtree_crossover(p1, p2, rng, max_depth)
            else:
                child = DecisionTree(_copy_node(p1.root))
            if rng.random() < mutation_prob:
                child = subtree_mutation(child, spec, rng, max_depth)
            offspring.append(child)
        fresh = []
        for index, child in enumerate(offspring):
            if counter.remaining == 0:
                break
            fresh.append(evaluate(child, generation, index))
        merged = scored + fresh
        merged.sort(key=lambda tf: -tf[1])
        scored = merged[:population_size]

    best_tree = trace.best_payload
    artifacts = {}
    solution = ""
    if best_tree is not None:
        best_tree.reset_visits()
        obs_log, act_log, rets = greedy_rollout(
            best_tree, env_factory, e, np.random.SeedSequence((seed, 0xF1A1)))
        pruned = prune_unreached(best_tree)
        artifacts = {
            "tree": best_tree,
            "pruned_tree": pruned,
            "rollout_observations": obs_log,
            "rollout_actions": act_log,
            "rollout_returns": rets,
        }
        solution = to_oneline(pruned, spec.feature_names, spec.action_labels,
                              spec.category_labels)
    return RunRecord(
        algo="gp", seed=seed, trace=trace.values,
        final_objective=trace.best if trace.best is not None else float("-inf"),
        solution=solution, episodes=counter.consumed,
        params={"budget": budget, "population_size": population_size,
                "crossover_prob": crossover_prob, "mutation_prob": mutation_prob,
                "tournament_size": tournament_size, "max_depth": max_depth,
                "episodes_per_eval": e},
        wall_time=time.perf_counter() - t0,
        artifacts=artifacts)
