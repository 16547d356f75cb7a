"""Benchmark harness: seeded multi-run campaigns, aggregation, rank-sum
comparison, and deterministic CSV/DOT artifacts.

``run_experiment`` executes one algorithm on one dataset for ``runs``
independent runs seeded base, base+1, ... and writes history.csv (per-episode
best-so-far), finals.csv (per-run final objectives), summary.csv, trend.csv,
and, for tree-producing algorithms, best_tree.txt/.dot of the pruned best
policy. Artifacts contain no timestamps, so identical configs reproduce
byte-identical files regardless of the worker count.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import datagen
from .baselines import SearchSpace, aco_run, ga_run, gp_evolve, greedy_edd, random_search
from .envs import EnvSpec
from .evolve import check_params, run_eldt
# decode_list_schedule and simulate are unused here, but tracers look these
# names up on this module.
from .flowshop import HfsEnv, decode_list_schedule, shop_settings  # noqa: F401
from .grammar import Grammar, default_policy_grammar, load_bnf
from .kvconfig import format_kv
from .makeorbuy import MakeOrBuyEnv, MakeOrBuyParams, simulate  # noqa: F401
from .records import RunRecord
from .tree import to_dot, to_text

PROBLEMS = ("makeorbuy", "hfs")
# The runner that ``params`` configure, by algorithm: the one algorithm table.
RUNNERS = {"eldt": run_eldt, "rs": random_search, "ga": ga_run, "aco": aco_run,
           "greedy": greedy_edd, "gp": gp_evolve}
ALGORITHMS = tuple(RUNNERS)


def aggregate(values) -> tuple:
    """(mean, sample standard deviation). A single value has std 0."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("aggregate() needs at least one value")
    n = len(vals)
    mean = math.fsum(vals) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var)


def _midranks(values) -> list:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1  # average of 1-based ranks i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def wilcoxon_rank_sum(a, b) -> tuple:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney) with midranks for ties.

    Returns (U statistic for sample a, p). Exact permutation p-value when
    n_a + n_b <= 12, tie-corrected normal approximation otherwise.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    combined = a + b
    ranks = _midranks(combined)
    w = math.fsum(ranks[:n_a])
    mu = n_a * (n_a + n_b + 1) / 2
    u = w - n_a * (n_a + 1) / 2
    n = n_a + n_b
    if n <= 12:
        dev = abs(w - mu)
        hits = 0
        total = 0
        for comb in itertools.combinations(range(n), n_a):
            total += 1
            s = math.fsum(ranks[i] for i in comb)
            if abs(s - mu) >= dev - 1e-12:
                hits += 1
        return u, hits / total
    counts = {}
    for v in combined:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t**3 - t for t in counts.values())
    var = n_a * n_b / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return u, 1.0
    z = (w - mu) / math.sqrt(var)
    return u, math.erfc(abs(z) / math.sqrt(2))


def emit_trend_csv(records, path, header_lines=()):
    """Per-algorithm mean/std of the best-so-far trace at every episode.

    Records of one algorithm must share a trace length; algorithms may
    differ (greedy's single-entry trace stays a single row).
    """
    groups = {}
    for rec in records:
        groups.setdefault(rec.algo, []).append(rec.trace)
    rows = []
    for algo in sorted(groups):
        lengths = {len(trace) for trace in groups[algo]}
        if len(lengths) != 1:
            raise ValueError(f"algorithm {algo!r} mixes trace lengths {sorted(lengths)}")
        for idx, values in enumerate(zip(*groups[algo])):
            mean, std = aggregate(values)
            rows.append([algo, idx + 1, _fmt(mean), _fmt(std)])
    datagen.write_csv(path, header_lines, ("algo", "eval_index", "mean_best", "std_best"),
                      rows)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    algo: str
    dataset: str
    budget: int = 5000
    runs: int = 10
    seed: int = 0
    out_dir: str = "bench_out"
    params: dict = field(default_factory=dict)
    sim_params: dict = field(default_factory=dict)
    grammar_path: str = None
    workers: int = 1

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.algo not in ALGORITHMS:
            raise ValueError(f"algo must be one of {ALGORITHMS}, got {self.algo!r}")
        for name, low in (("budget", 1), ("runs", 1), ("workers", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.problem == "makeorbuy" and self.algo == "greedy":
            raise ValueError("greedy EDD is a flow-shop heuristic; use --problem hfs")
        if self.grammar_path is not None and self.algo != "eldt":
            raise ValueError(f"a grammar file applies to eldt only, not {self.algo}")
        if self.problem == "makeorbuy":
            MakeOrBuyParams.from_settings(self.sim_params)
        else:
            shop_settings(self.sim_params)
        check_params(RUNNERS[self.algo], self.params)

    @property
    def maximize(self) -> bool:
        """Make-or-buy maximizes revenue; the flow shop minimizes makespan."""
        return self.problem == "makeorbuy"


@dataclass(frozen=True)
class CampaignInputs:
    """A campaign's files, parsed once before any run starts and shared
    read-only by its runs. Every field pickles."""

    data: object  # the HfsInstance, or the tuple of make-or-buy orders
    params: MakeOrBuyParams  # make-or-buy simulation parameters; None for hfs
    spec: EnvSpec
    grammar: Grammar  # eldt's policy grammar; None for the other algorithms


def load_inputs(cfg: ExperimentConfig) -> CampaignInputs:
    """Read the dataset, the ``machine_types`` file and the ``--grammar``
    file; a missing or malformed one is a ValueError (``DataError``)."""
    if cfg.problem == "makeorbuy":
        data = tuple(datagen.load_makeorbuy(cfg.dataset))
        params = MakeOrBuyParams.from_settings(cfg.sim_params)
    else:
        shop = shop_settings(cfg.sim_params)
        if "machine_types" in shop:
            shop["type_specs"] = datagen.load_machine_types(shop.pop("machine_types"))
        data = datagen.load_hfs(cfg.dataset, **shop)
        params = None
    spec = _env(cfg, data, params).spec
    grammar = None
    if cfg.algo == "eldt":
        grammar = (load_bnf(cfg.grammar_path) if cfg.grammar_path
                   else default_policy_grammar(spec))
    return CampaignInputs(data, params, spec, grammar)


def _env(cfg: ExperimentConfig, data, params):
    """A fresh environment of the campaign's problem."""
    return MakeOrBuyEnv(data, params) if cfg.problem == "makeorbuy" else HfsEnv(data)


def _run_one(cfg: ExperimentConfig, seed: int, inputs: CampaignInputs) -> RunRecord:
    """Run ``seed`` of the campaign on the shared inputs. A run builds its own
    environment, so that each run has its own flow-shop makespan memo; rs, ga
    and aco search whole solutions that the environment scores."""
    algo = cfg.algo
    if algo == "greedy":
        return greedy_edd(inputs.data, seed)
    env = _env(cfg, inputs.data, inputs.params)
    # called by name, so that a wrapped ``bench.run_eldt`` or
    # ``bench.gp_evolve`` is the one run
    if algo == "eldt":
        return run_eldt(env, cfg.budget, seed, inputs.grammar, **cfg.params)
    if algo == "gp":
        return gp_evolve(env, cfg.budget, seed, **cfg.params)
    space = SearchSpace(kind=env.solution_kind, size=env.spec.episode_len, score=env.score,
                        maximize=cfg.maximize, budget=cfg.budget)
    return RUNNERS[algo](space, seed, **cfg.params)


def _check_out_dir(path):
    """Raise ValueError unless the nearest existing ancestor of ``path`` (or
    ``path`` itself) is a directory this process can write and enter."""
    existing = Path(path).absolute()
    while not existing.exists():
        existing = existing.parent
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ValueError(f"output directory {path}: {existing} is not a directory "
                         "this process can write")


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the campaign and write artifacts into cfg.out_dir.

    The input files are parsed once and the output path checked before any
    run starts; the output directory is made after the last run. Run i uses
    seed cfg.seed + i; greedy runs once on a budget of 1, whatever ``runs``
    and ``budget`` say, and its artifacts say so. Runs share only
    the read-only inputs (each has its own environment or search space, RNG
    streams and budget counter), so the thread pool size changes wall time
    only, never results.
    """
    if cfg.algo == "greedy":
        cfg = replace(cfg, budget=1, runs=1)
    inputs = load_inputs(cfg)
    _check_out_dir(cfg.out_dir)
    seeds = [cfg.seed + i for i in range(cfg.runs)]
    if cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(lambda s: _run_one(cfg, s, inputs), seeds))
    else:
        records = [_run_one(cfg, s, inputs) for s in seeds]
    for rec in records:
        rec.problem = cfg.problem
        rec.dataset = cfg.dataset
    write_artifacts(cfg, records, inputs.spec)
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def _header_lines(cfg: ExperimentConfig) -> list:
    lines = [f"# problem={cfg.problem} algo={cfg.algo} dataset={cfg.dataset} "
             f"budget={cfg.budget} runs={cfg.runs} base_seed={cfg.seed}",
             "# run i uses seed base_seed + i"]
    if cfg.params:
        for line in format_kv(cfg.params).strip().splitlines():
            lines.append(f"# param {line}")
    if cfg.sim_params:
        for line in format_kv(cfg.sim_params).strip().splitlines():
            lines.append(f"# sim_param {line}")
    return lines


def write_artifacts(cfg: ExperimentConfig, records: list, spec: EnvSpec = None):
    """Write the campaign's CSV files, and the best run's pruned tree when
    it holds one, labelled by ``spec`` (the campaign's EnvSpec, required
    then)."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(cfg)

    datagen.write_csv(out / "history.csv", header, ("algo", "run", "seed", "eval_index", "best"),
                      ([rec.algo, i, rec.seed, idx + 1, _fmt(value)]
                       for i, rec in enumerate(records)
                       for idx, value in enumerate(rec.trace)))
    datagen.write_csv(out / "finals.csv", header,
                      ("algo", "run", "seed", "final_objective", "episodes", "solution"),
                      ([rec.algo, i, rec.seed, _fmt(rec.final_objective), rec.episodes,
                        rec.solution] for i, rec in enumerate(records)))
    mean, std = aggregate([rec.final_objective for rec in records])
    datagen.write_csv(out / "summary.csv", header,
                      ("algo", "problem", "dataset", "runs", "budget", "mean_final",
                       "std_final"),
                      [[cfg.algo, cfg.problem, cfg.dataset, len(records), cfg.budget,
                        _fmt(mean), _fmt(std)]])
    emit_trend_csv(records, out / "trend.csv", header)

    # the first of tied runs, in either direction
    best = (max if cfg.maximize else min)(records, key=lambda rec: rec.final_objective)
    pruned = best.artifacts.get("pruned_tree")
    if pruned is not None:
        if spec is None:
            raise ValueError("write_artifacts needs the EnvSpec to label a policy tree")
        note = f"# best run seed={best.seed} final_objective={_fmt(best.final_objective)}\n"
        with open(out / "best_tree.txt", "w", encoding="utf-8") as fh:
            fh.write(note)
            fh.write(to_text(pruned, spec))
        with open(out / "best_tree.dot", "w", encoding="utf-8") as fh:
            fh.write(to_dot(pruned, spec))


def compare_dirs(in_dirs, out_path=None) -> list:
    """Pairwise rank-sum matrix over the final objectives found in each
    directory's finals.csv. Returns rows (algo_a, algo_b, n_a, n_b, u, p).
    A directory given twice (by any path) is an error, since its runs would
    count twice."""
    seen = set()
    for d in in_dirs:
        if Path(d).resolve() in seen:
            raise ValueError(f"{d}: directory given more than once")
        seen.add(Path(d).resolve())

    def final(row):
        text = row["final_objective"]
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"final_objective must be a finite number, got {text!r}")
        return row["algo"], value

    finals = {}
    for d in in_dirs:
        for algo, value in datagen.read_table(Path(d) / "finals.csv",
                                              ("algo", "final_objective"), final, "runs"):
            finals.setdefault(algo, []).append(value)
    algos = sorted(finals)
    if len(algos) < 2:
        raise ValueError("compare needs finals from at least two algorithms")
    rows = []
    for a, b in itertools.combinations(algos, 2):
        u, p = wilcoxon_rank_sum(finals[a], finals[b])
        rows.append((a, b, len(finals[a]), len(finals[b]), u, p))
    if out_path is not None:
        datagen.write_csv(out_path, (), ("algo_a", "algo_b", "n_a", "n_b", "u_statistic",
                                         "p_value"),
                          ([a, b, na, nb, _fmt(u), _fmt(p)] for a, b, na, nb, u, p in rows))
    return rows
