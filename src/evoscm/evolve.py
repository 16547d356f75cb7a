"""Grammatical evolution of decision-tree policies (ELDT), and the policy
search core it shares with tree GP.

Genotypes are fixed-length integer codon arrays. Variation is uniform
per-gene mutation and one-point crossover; selection is a size-2 tournament;
replacement is steady-state (parents and offspring merged, best kept, ties
prefer incumbents). Fitness is the mean episode return of the decoded tree
with Q-learning leaves; genotypes whose derivation runs out of codons get a
fixed penalty fitness and charge no budget. ``PolicySearch`` holds the
budget, trace, per-individual streams and closing rollout of a policy search;
``check_params`` checks every runner's keyword hyperparameters.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .envs import BudgetCounter, evaluate_fitness, greedy_rollout
from .grammar import Grammar, IncompleteDerivation, decode
from .records import BestTrace, RunRecord
from .tree import LearningConfig, prune_unreached, to_oneline

PENALTY_FITNESS = -1.0e9

# SeedSequence tags keeping the master/final streams disjoint from the
# per-individual (seed, generation, index) streams.
_MASTER_TAG = 0x5EED
_FINAL_TAG = 0xF1A1

# Consecutive decode failures tolerated before the run is declared stuck.
_MAX_DECODE_STALL = 10_000


# Valid values of the policy-search and baseline hyperparameters, by name. A
# size below 1 leaves a generation, colony, tournament, evaluation or tree
# empty, and an empty generation or evaluation never ends a run.
_SIZES = ("population_size", "colony_size", "tournament_size", "episodes_per_eval",
          "max_depth", "genotype_length", "g_max")
_PROBABILITIES = ("crossover_prob", "mutation_prob", "flip_prob", "swap_prob", "rho",
                  "alpha", "gamma", "epsilon")
_REALS = ("tau_min", "tau_max", "penalty_fitness", "q_init_low", "q_init_high")


def check_values(values: dict):
    """Raise ValueError unless every named hyperparameter in ``values`` has a
    value a run can use: sizes are integers >= 1, probabilities are reals in
    [0, 1], and other reals are finite; a bool is none of these. None keeps a
    default that the runner resolves itself."""
    for name, v in values.items():
        if v is None:
            continue
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if name in _SIZES and not (real and isinstance(v, numbers.Integral) and v >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if name in _PROBABILITIES and not (real and 0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be a number in [0, 1], got {v!r}")
        if name in _REALS and not (real and math.isfinite(v)):
            raise ValueError(f"{name} must be a finite number, got {v!r}")


def check_params(runner, params: dict):
    """Raise ValueError unless ``params`` are keyword hyperparameters that
    ``runner`` takes, with values ``check_values`` accepts,
    0 < tau_min <= tau_max, q_init_low <= q_init_high and, since one-point
    crossover needs an interior cut, genotype_length >= 2."""
    defaults = {name: p.default
                for name, p in inspect.signature(runner).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {runner.__name__} params: {unknown} "
                         f"(known: {sorted(defaults)})")
    values = {**defaults, **params}
    check_values(values)
    if "tau_min" in values:
        low, high = values["tau_min"], values["tau_max"]
        if not 0.0 < low <= high:
            raise ValueError(f"need 0 < tau_min <= tau_max, got {low!r}, {high!r}")
    if "q_init_low" in values:
        low, high = values["q_init_low"], values["q_init_high"]
        if low > high:
            raise ValueError(f"need q_init_low <= q_init_high, got {low!r}, {high!r}")
    if values.get("genotype_length", 2) < 2:
        raise ValueError("genotype_length must be >= 2 (one-point crossover needs "
                         "an interior cut)")


def checked(runner):
    """Apply ``check_params`` to the keyword hyperparameters of every call;
    other arguments pass through unchanged."""
    names = {name for name, p in inspect.signature(runner).parameters.items()
             if p.kind is p.KEYWORD_ONLY}

    @functools.wraps(runner)
    def wrapper(*args, **kwargs):
        check_params(runner, {k: v for k, v in kwargs.items() if k in names})
        return runner(*args, **kwargs)

    return wrapper


@dataclass(eq=False)
class Individual:
    """Genotype plus evaluation results; identity equality (array fields
    make field-wise comparison meaningless). Tree GP's individuals have no
    genotype: their tree is what varies."""

    genotype: np.ndarray
    fitness: float = None
    tree: object = None


def random_genotype(length: int, g_max: int, rng) -> np.ndarray:
    """Uniform codons in [0, g_max]."""
    return rng.integers(0, g_max + 1, size=length, dtype=np.int64)


def mutate(genotype: np.ndarray, m_p: float, g_max: int, rng) -> np.ndarray:
    """Uniform mutation: each gene is independently replaced with a uniform
    integer in [0, g_max] with probability m_p (the replacement may repeat
    the old value). Returns a new array."""
    out = np.array(genotype, dtype=np.int64, copy=True)
    mask = rng.random(len(out)) < m_p
    n = int(mask.sum())
    if n:
        out[mask] = rng.integers(0, g_max + 1, size=n, dtype=np.int64)
    return out


def crossover_one_point(a: np.ndarray, b: np.ndarray, rng):
    """One-point crossover at a uniform cut in [1, len-1]; returns two new
    children. Equal-length parents of length >= 2 only."""
    if len(a) != len(b):
        raise ValueError("parents must have equal length")
    if len(a) < 2:
        raise ValueError("crossover needs genotypes of length >= 2")
    cut = int(rng.integers(1, len(a)))
    c1 = np.concatenate([a[:cut], b[cut:]])
    c2 = np.concatenate([b[:cut], a[cut:]])
    return c1, c2


def select_parent(population: list, tournament_size: int, rng) -> Individual:
    """Tournament selection: sample with replacement, return the best
    fitness; ties go to the lower population index."""
    if not population:
        raise ValueError("empty population")
    idxs = rng.integers(0, len(population), size=tournament_size)
    best = None
    for i in sorted(int(j) for j in idxs):
        ind = population[i]
        if best is None or ind.fitness > best.fitness:
            best = ind
    return best


def replace_steady_state(population: list, offspring: list) -> list:
    """Merge parents and offspring, keep the best len(population). Ties
    prefer incumbents, then lower index (stable sort with parents first)."""
    if len(offspring) > len(population):
        raise ValueError("offspring batch larger than the population")
    merged = list(population) + list(offspring)
    merged.sort(key=lambda ind: -ind.fitness)
    return merged[: len(population)]


class PolicySearch:
    """The search state that ELDT and tree GP share.

    Owns the run's environment, which serves every episode of the run, its
    episode budget and best-so-far trace, the episodes per evaluation (3 for
    stochastic environments and 1 for deterministic ones unless given), and
    the (seed, generation, index) stream of each individual, so that
    evaluation order cannot change results. Episode quotas go in index
    order, and the last evaluation may run on a partial quota so that
    consumption equals the budget exactly; the trace holds one best-so-far
    entry per consumed episode.
    """

    def __init__(self, env, budget: int, seed: int, learning: LearningConfig,
                 episodes_per_eval: int = None):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.t0 = time.perf_counter()
        self.env = env
        self.spec = env.spec
        self.episodes_per_eval = episodes_per_eval or (3 if self.spec.stochastic else 1)
        self.seed = seed
        self.learning = learning
        self.budget = BudgetCounter(budget)
        self.trace = BestTrace(maximize=True)

    def evaluate(self, ind: Individual, stream):
        """Score ``ind.tree`` on the next quota of episodes and record it."""
        quota = min(self.episodes_per_eval, self.budget.remaining)
        before = self.budget.consumed
        ind.fitness = evaluate_fitness(ind.tree, self.env, quota, stream,
                                       self.learning, self.budget)
        self.trace.record(ind.fitness, self.budget.consumed - before, payload=ind)

    def evaluate_in_order(self, individuals: list, generation: int, score=None) -> list:
        """Call ``score(ind, stream)`` (default: ``evaluate``) on each
        individual in index order until the budget runs out; return those
        scored."""
        score = score or self.evaluate
        scored = []
        for index, ind in enumerate(individuals):
            if self.budget.remaining == 0:
                break
            score(ind, np.random.default_rng(
                np.random.SeedSequence((self.seed, generation, index))))
            scored.append(ind)
        return scored

    def record(self, algo: str, params: dict) -> RunRecord:
        """The run's record, in objective units: returns times
        ``env.objective_scale``, whose negative sign turns the running
        maximum of returns into the running minimum of the objective. The
        best tree is re-run greedily (no exploration, no learning) for one
        final rollout that recharges visit counters, drives prune_unreached,
        and lands in record.artifacts; those reporting episodes are not part
        of the optimization budget."""
        spec, e, scale = self.spec, self.episodes_per_eval, self.env.objective_scale
        best = self.trace.best_payload.tree
        best.reset_visits()
        obs_log, act_log, rets = greedy_rollout(
            best, self.env, e, np.random.SeedSequence((self.seed, _FINAL_TAG)))
        pruned = prune_unreached(best)
        solution = to_oneline(pruned, spec.feature_names, spec.action_labels,
                              spec.category_labels)
        return RunRecord(
            algo=algo, seed=self.seed, trace=[v * scale for v in self.trace.values],
            final_objective=self.trace.best * scale, solution=solution,
            episodes=self.budget.consumed, params={**params, "episodes_per_eval": e},
            wall_time=time.perf_counter() - self.t0,
            artifacts={"tree": best, "pruned_tree": pruned, "rollout_observations": obs_log,
                       "rollout_actions": act_log, "rollout_returns": rets})


@checked
def run_eldt(env, budget: int, seed: int, grammar: Grammar, *, population_size: int = 30,
             genotype_length: int = 100, g_max: int = 40000, mutation_prob: float = 0.05,
             crossover_prob: float = 0.5, tournament_size: int = 2,
             penalty_fitness: float = PENALTY_FITNESS, episodes_per_eval: int = None,
             alpha: float = 0.1, gamma: float = 0.9, epsilon: float = 0.05,
             q_init_low: float = -1.0, q_init_high: float = 1.0) -> RunRecord:
    """Evolve a decision-tree policy under an exact episode budget.

    ``env`` serves every episode of the run. Budget, streams and the closing
    greedy rollout are ``PolicySearch``'s; ``alpha`` to ``q_init_high``
    configure the leaves' Q-learning. A budget smaller than one
    generation's cost is allowed: the run truncates mid-generation.
    """
    params = {"budget": budget, "population_size": population_size,
              "genotype_length": genotype_length, "g_max": g_max,
              "mutation_prob": mutation_prob, "crossover_prob": crossover_prob,
              "tournament_size": tournament_size, "penalty_fitness": penalty_fitness,
              "alpha": alpha, "gamma": gamma, "epsilon": epsilon,
              "q_init_low": q_init_low, "q_init_high": q_init_high}
    learning = LearningConfig(alpha, gamma, epsilon, q_init_low, q_init_high)
    search = PolicySearch(env, budget, seed, learning, episodes_per_eval)
    spec = search.spec
    rng = np.random.default_rng(np.random.SeedSequence((seed, _MASTER_TAG)))
    stall = 0

    def score(ind: Individual, stream):
        nonlocal stall
        try:
            ind.tree = decode(ind.genotype, grammar, spec.feature_index)
        except IncompleteDerivation:
            ind.fitness = penalty_fitness
            stall += 1
            if stall > _MAX_DECODE_STALL:
                raise ValueError(
                    f"{_MAX_DECODE_STALL} consecutive decode failures; "
                    "the grammar and genotype length cannot produce policies"
                )
            return
        stall = 0
        ind.tree.init_leaves(spec.action_count, stream, q_init_low, q_init_high)
        search.evaluate(ind, stream)

    population = [Individual(random_genotype(genotype_length, g_max, rng))
                  for _ in range(population_size)]
    generation = 0
    search.evaluate_in_order(population, generation, score)
    for ind in population:
        if ind.fitness is None:  # truncated initialization under a tiny budget
            ind.fitness = penalty_fitness

    while search.budget.remaining > 0:
        generation += 1
        offspring = []
        while len(offspring) < population_size:
            p1 = select_parent(population, tournament_size, rng)
            p2 = select_parent(population, tournament_size, rng)
            g1, g2 = p1.genotype, p2.genotype
            if rng.random() < crossover_prob:
                g1, g2 = crossover_one_point(g1, g2, rng)
            for g in (g1, g2):
                if len(offspring) < population_size:
                    offspring.append(Individual(mutate(g, mutation_prob, g_max, rng)))
        population = replace_steady_state(
            population, search.evaluate_in_order(offspring, generation, score))
    return search.record("eldt", params)
