"""Grammatical evolution of decision-tree policies (ELDT), and the policy
search core it shares with tree GP.

Genotypes are fixed-length integer codon arrays. Variation is uniform
per-gene mutation and one-point crossover; selection is a size-2 tournament;
replacement is steady-state (parents and offspring merged, best kept, ties
prefer incumbents). Fitness is the mean episode return of the decoded tree
with Q-learning leaves; genotypes whose derivation runs out of codons get a
fixed penalty fitness and charge no budget. ``PolicySearch`` holds the
budget, trace, generations, streams and closing rollout of a policy search;
``checked`` checks and records every runner's keyword hyperparameters.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .envs import evaluate_fitness, greedy_rollout
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
# empty, and an empty generation or evaluation never ends a run. Above
# _MAX_SIZE, a population, colony or tournament drawn before the budget
# stops the run may not fit in memory. g_max is a codon value, bounded by
# int64 instead; the genotype table that eldt draws before its first
# evaluation (population_size * genotype_length codons) by _MAX_CODONS.
_SIZES = ("population_size", "colony_size", "tournament_size", "episodes_per_eval",
          "max_depth", "genotype_length", "g_max")
_MAX_SIZE = 10**5
_MAX_CODON = 2**63 - 1
_MAX_CODONS = 10**7
_PROBABILITIES = ("crossover_prob", "mutation_prob", "flip_prob", "swap_prob", "rho",
                  "alpha", "gamma", "epsilon")
_REALS = ("tau_min", "tau_max", "penalty_fitness", "q_init_low", "q_init_high")


def check_values(values: dict):
    """Raise ValueError unless every named hyperparameter in ``values`` has a
    value a run can use: sizes are integers in [1, _MAX_SIZE] (g_max in [1,
    _MAX_CODON]), probabilities are reals in [0, 1], and other reals are
    finite; a bool is none of these. None keeps a default that the runner
    resolves itself."""
    for name, v in values.items():
        if v is None:
            continue
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        high = _MAX_CODON if name == "g_max" else _MAX_SIZE
        if name in _SIZES and not (real and isinstance(v, numbers.Integral) and 1 <= v <= high):
            raise ValueError(f"{name} must be an integer in [1, {high}], got {v!r}")
        if name in _PROBABILITIES and not (real and 0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be a number in [0, 1], got {v!r}")
        if name in _REALS and not (real and math.isfinite(v)):
            raise ValueError(f"{name} must be a finite number, got {v!r}")


def check_params(runner, params: dict):
    """Return ``params`` over ``runner``'s keyword defaults. Raise ValueError
    unless ``params`` are keyword hyperparameters that ``runner`` takes, with
    values ``check_values`` accepts, 0 < tau_min <= tau_max, q_init_low <=
    q_init_high and, since one-point crossover needs an interior cut,
    genotype_length >= 2, and population_size * genotype_length <= _MAX_CODONS."""
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
    if "genotype_length" in values:
        size, length = values["population_size"], values["genotype_length"]
        if length < 2:
            raise ValueError("genotype_length must be >= 2 (one-point crossover needs "
                             "an interior cut)")
        if size * length > _MAX_CODONS:
            raise ValueError("population_size * genotype_length must be at most "
                             f"{_MAX_CODONS} codons, got {size} * {length}")
    return values


def checked(runner):
    """Apply ``check_params`` to the keyword hyperparameters of every call and
    record them, given or default, in the returned record's ``params``, where
    a value the runner recorded itself (one it resolved) wins; other
    arguments pass through unchanged."""
    names = {name for name, p in inspect.signature(runner).parameters.items()
             if p.kind is p.KEYWORD_ONLY}

    @functools.wraps(runner)
    def wrapper(*args, **kwargs):
        values = check_params(runner, {k: v for k, v in kwargs.items() if k in names})
        record = runner(*args, **kwargs)
        for name, value in values.items():
            record.params.setdefault(name, value)
        return record

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
    best-so-far trace, which holds one entry per consumed episode and so is
    also the run's episode budget, the episodes per evaluation (3 for
    stochastic environments and 1 for deterministic ones unless given), and
    the (seed, generation, index) stream of each individual, so that
    evaluation order cannot change results; each ``evaluate_in_order`` call
    is the next generation, 0 the initial one. Quotas go in index order, and
    the last may be partial so that consumption equals the budget exactly.
    """

    def __init__(self, env, budget: int, seed: int, learning: LearningConfig,
                 episodes_per_eval: int = None):
        self.trace = BestTrace(maximize=True, limit=budget)
        self.env = env
        self.spec = env.spec
        self.episodes_per_eval = episodes_per_eval or (3 if self.spec.stochastic else 1)
        self.seed = seed
        self.learning = learning
        self._generations = itertools.count()

    def evaluate(self, ind: Individual, stream):
        """Score ``ind.tree`` on the next quota of episodes and record it."""
        quota = min(self.episodes_per_eval, self.trace.remaining)
        ind.fitness = evaluate_fitness(ind.tree, self.env, quota, stream, self.learning)
        self.trace.record(ind.fitness, quota, payload=ind)

    def evaluate_in_order(self, individuals: list, score=None) -> list:
        """Call ``score(ind, stream)`` (default: ``evaluate``) on each
        individual of the next generation in index order until the budget
        runs out; return those scored."""
        score = score or self.evaluate
        generation = next(self._generations)
        scored = []
        for index, ind in enumerate(individuals):
            if self.trace.remaining == 0:
                break
            score(ind, np.random.default_rng(
                np.random.SeedSequence((self.seed, generation, index))))
            scored.append(ind)
        return scored

    def record(self, algo: str) -> RunRecord:
        """The run's record, in objective units: returns times
        ``env.objective_scale``, whose negative sign turns the running
        maximum of returns into the running minimum of the objective; its
        params hold the resolved episodes_per_eval. The best tree is re-run
        greedily (no exploration, no learning) for one final rollout that
        recharges visit counters, drives prune_unreached, and lands in
        record.artifacts; those episodes are outside the optimization budget."""
        e = self.episodes_per_eval
        best = self.trace.best_payload.tree
        best.reset_visits()
        obs_log, act_log, rets = greedy_rollout(
            best, self.env, e, np.random.SeedSequence((self.seed, _FINAL_TAG)))
        pruned = prune_unreached(best)
        return self.trace.run_record(
            algo, self.seed, to_oneline(pruned, self.spec), {"episodes_per_eval": e},
            scale=self.env.objective_scale,
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
    learning = LearningConfig(alpha, gamma, epsilon)
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
    search.evaluate_in_order(population, score)

    while search.trace.remaining > 0:
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
            population, search.evaluate_in_order(offspring, score))
    return search.record("eldt")
