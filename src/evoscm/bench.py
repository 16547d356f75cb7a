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

import csv
import itertools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from . import datagen
from .baselines import SearchSpace, aco_run, ga_run, gp_evolve, greedy_edd, random_search
from .envs import EnvSpec
from .evolve import check_params, run_eldt
from .flowshop import CATEGORIES, HfsEnv, decode_list_schedule, makespan
from .grammar import Grammar, default_policy_grammar, load_bnf
from .kvconfig import format_kv
from .makeorbuy import MakeOrBuyEnv, MakeOrBuyParams, simulate
from .records import RunRecord
from .tree import to_dot, to_text

PROBLEMS = ("makeorbuy", "hfs")
ALGORITHMS = ("eldt", "rs", "ga", "aco", "greedy", "gp")
POLICY_ALGOS = ("eldt", "gp")
# The runner that ``params`` configure, by algorithm; greedy takes none.
RUNNERS = {"eldt": run_eldt, "rs": random_search, "ga": ga_run, "aco": aco_run,
           "gp": gp_evolve}
HFS_SIM_PARAMS = ("assembly_areas", "capacity_e", "capacity_m", "capacity_r",
                  "machine_types", "transport_days")


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
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.problem == "makeorbuy" and self.algo == "greedy":
            raise ValueError("greedy EDD is a flow-shop heuristic; use --problem hfs")
        if self.grammar_path is not None and self.algo != "eldt":
            raise ValueError(f"a grammar file applies to eldt only, not {self.algo}")
        if self.algo == "greedy" and self.params:
            raise ValueError(f"greedy takes no params, got {sorted(self.params)}")
        if self.problem == "makeorbuy":
            MakeOrBuyParams.from_settings(self.sim_params)
        else:
            _check_hfs_sim_params(self.sim_params)
        if self.algo in RUNNERS:
            check_params(RUNNERS[self.algo], self.params)

    @property
    def maximize(self) -> bool:
        """Make-or-buy maximizes revenue; the flow shop minimizes makespan."""
        return self.problem == "makeorbuy"


def _check_hfs_sim_params(sim_params: dict):
    """Flow-shop ``--sim-params``: an unknown key or a malformed value is a
    ValueError. Files they name are read later, by ``load_inputs``."""
    unknown = sorted(set(sim_params) - set(HFS_SIM_PARAMS))
    if unknown:
        raise ValueError(f"unknown hfs sim params: {unknown} "
                         f"(known: {list(HFS_SIM_PARAMS)})")
    for key, value in sim_params.items():
        if key == "machine_types":
            ok, want = isinstance(value, str), "a file path"
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            ok, want = False, "a number"
        elif key == "transport_days":
            ok, want = 0 <= value < math.inf, "a finite number >= 0"
        else:
            ok, want = isinstance(value, numbers.Integral) and value >= 1, "an integer >= 1"
        if not ok:
            raise ValueError(f"hfs sim param {key} must be {want}, got {value!r}")


def _hfs_load_kwargs(sim_params: dict) -> dict:
    """``datagen.load_hfs`` keyword arguments from checked flow-shop
    ``--sim-params``, with the ``machine_types`` file read."""
    kwargs = {}
    if any(key.startswith("capacity_") for key in sim_params):
        kwargs["capacities"] = {c: sim_params.get(f"capacity_{c.lower()}", 5)
                                for c in CATEGORIES}
    if "assembly_areas" in sim_params:
        kwargs["assembly_areas"] = sim_params["assembly_areas"]
    if "transport_days" in sim_params:
        kwargs["transport_days"] = float(sim_params["transport_days"])
    if "machine_types" in sim_params:
        kwargs["type_specs"] = datagen.load_machine_types(sim_params["machine_types"])
    return kwargs


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
        spec = MakeOrBuyEnv(data, params).spec
    else:
        data = datagen.load_hfs(cfg.dataset, **_hfs_load_kwargs(cfg.sim_params))
        params = None
        spec = HfsEnv(data).spec
    grammar = None
    if cfg.algo == "eldt":
        grammar = (load_bnf(cfg.grammar_path) if cfg.grammar_path
                   else default_policy_grammar(spec))
    return CampaignInputs(data, params, spec, grammar)


def _search_space(cfg: ExperimentConfig, inputs: CampaignInputs) -> SearchSpace:
    """The whole-solution search space for one rs, ga or aco run."""
    data, params = inputs.data, inputs.params
    if cfg.problem == "makeorbuy":
        def score(x, rng):
            return simulate(data, x, params, int(rng.integers(2**63 - 1))).revenue

        return SearchSpace(kind="binary", size=len(data), score=score,
                           maximize=cfg.maximize, budget=cfg.budget)

    def score(p, rng):
        return makespan(decode_list_schedule(data, p))

    return SearchSpace(kind="permutation", size=len(data.jobs), score=score,
                       maximize=cfg.maximize, budget=cfg.budget)


def _run_one(cfg: ExperimentConfig, seed: int, inputs: CampaignInputs) -> RunRecord:
    """Run ``seed`` of the campaign on the shared inputs. A policy run builds
    its own environment, so that each run has its own flow-shop makespan
    memo."""
    algo = cfg.algo
    if algo in POLICY_ALGOS:
        env = (MakeOrBuyEnv(inputs.data, inputs.params) if cfg.problem == "makeorbuy"
               else HfsEnv(inputs.data))
        # called by name, so that a wrapped ``bench.run_eldt`` or
        # ``bench.gp_evolve`` is the one run
        if algo == "eldt":
            return run_eldt(env, cfg.budget, seed, inputs.grammar, **cfg.params)
        return gp_evolve(env, cfg.budget, seed, **cfg.params)
    if algo == "greedy":
        return greedy_edd(inputs.data)
    return RUNNERS[algo](_search_space(cfg, inputs), seed, **cfg.params)


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the campaign and write artifacts into cfg.out_dir.

    The input files are parsed once, before any run starts. Run i uses seed
    cfg.seed + i; greedy runs once regardless of ``runs``. Runs share only
    the read-only inputs (each has its own environment or search space, RNG
    streams and budget counter), so the thread pool size changes wall time
    only, never results.
    """
    inputs = load_inputs(cfg)
    n_runs = 1 if cfg.algo == "greedy" else cfg.runs
    seeds = [cfg.seed + i for i in range(n_runs)]
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
    """Write the campaign's CSV files, and for eldt/gp the best run's pruned
    tree, labelled by ``spec`` (the campaign's EnvSpec, required then)."""
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

    if cfg.algo in POLICY_ALGOS:
        # the first of tied runs, in either direction
        best = (max if cfg.maximize else min)(records, key=lambda rec: rec.final_objective)
        pruned = best.artifacts.get("pruned_tree")
        if pruned is not None:
            if spec is None:
                raise ValueError("write_artifacts needs the EnvSpec to label a policy tree")
            names = spec.feature_names
            labels = spec.action_labels
            cats = spec.category_labels
            note = (f"# best run seed={best.seed} "
                    f"final_objective={_fmt(best.final_objective)}\n")
            with open(out / "best_tree.txt", "w", encoding="utf-8") as fh:
                fh.write(note)
                fh.write(to_text(pruned, names, labels, cats))
            with open(out / "best_tree.dot", "w", encoding="utf-8") as fh:
                fh.write(to_dot(pruned, names, labels, cats))


def compare_dirs(in_dirs, out_path=None) -> list:
    """Pairwise rank-sum matrix over the final objectives found in each
    directory's finals.csv. Returns rows (algo_a, algo_b, n_a, n_b, u, p)."""
    finals = {}
    for d in in_dirs:
        path = Path(d) / "finals.csv"
        if not path.exists():
            raise datagen.DataError(f"{path}: no such file")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            body = [(n, ln) for n, ln in enumerate(fh, start=1) if not ln.startswith("#")]
        reader = csv.DictReader(ln for _, ln in body)
        missing = sorted({"algo", "final_objective"} - set(reader.fieldnames or ()))
        if missing:
            raise datagen.DataError(f"{path}: missing columns {missing}")
        for row in reader:
            text = row["final_objective"]
            try:
                value = float(text)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise datagen.DataError(f"{path}, line {body[reader.line_num - 1][0]}: "
                                        f"final_objective must be a finite number, "
                                        f"got {text!r}")
            finals.setdefault(row["algo"], []).append(value)
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
