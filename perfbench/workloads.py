"""The benchmark's campaign workloads, run the way users run them, and the
check of every campaign's outputs.

Each workload is one ``bench run`` campaign, seeded by the run's ``--seed``,
on a dataset that ``bench datagen`` writes from the workload's dataset seed.
Both commands go through ``evoscm.cli.main`` in-process, so the measured path
is the public entry point.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import resource
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from evoscm import cli, datagen, flowshop
from evoscm.makeorbuy import MakeOrBuyParams


@dataclass(frozen=True)
class Workload:
    """One fixed campaign on a fixed dataset. A run with ``--seed s`` cycles
    through ``seeds`` campaigns, which start their runs at seeds ``s * seeds``
    to ``s * seeds + seeds - 1``, so that one run's figures are those of a
    typical campaign rather than of one seed's trees. The dataset always
    comes from ``dataset_seed``, because on d4 the dataset alone moves
    campaign time by a third from one seed to the next."""

    name: str
    why: str
    problem: str
    variant: str  # hfs dataset family; None for make-or-buy
    n: int
    dataset_seed: int
    algo: str
    budget: int
    runs: int
    workers: int
    seeds: int = 1

    def campaign_seeds(self, seed: int) -> list:
        return [seed * self.seeds + j for j in range(self.seeds)]

    @property
    def maximize(self) -> bool:
        return self.problem == "makeorbuy"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="hfs-eldt",
            why="The paper's headline path: grammar, Q-learning policy steps and "
                "dense d1 flow-shop decodes, with no repeated permutations and "
                "no campaign parallelism.",
            problem="hfs", variant="d1", n=100, dataset_seed=1,
            algo="eldt", budget=300, runs=1, workers=1),
        Workload(
            name="mob-eldt",
            why="The same grammar/evolve/envs path on the make-or-buy simulator; "
                "flowshop is never called, so a flow-shop gain must read as no "
                "change here.",
            problem="makeorbuy", variant=None, n=100, dataset_seed=0,
            algo="eldt", budget=150, runs=1, workers=1, seeds=8),
        Workload(
            name="hfs-gp-campaign",
            why="Tree GP on year-long d4 arrivals at n=200: read-only policies, "
                "41% repeated permutations and 4 runs on 2 workers, exercising "
                "flowshop scaling and campaign parallelism.",
            problem="hfs", variant="d4", n=200, dataset_seed=1,
            algo="gp", budget=75, runs=4, workers=2),
    )
}


def datagen_argv(wl: Workload, dataset: str) -> list:
    argv = ["datagen", "--problem", wl.problem, "--n", str(wl.n),
            "--seed", str(wl.dataset_seed), "--out", dataset]
    if wl.variant is not None:
        argv += ["--variant", wl.variant]
    return argv


def run_argv(wl: Workload, seed: int, dataset: str, out_dir: str) -> list:
    return ["run", "--problem", wl.problem, "--algo", wl.algo,
            "--dataset", dataset, "--budget", str(wl.budget),
            "--runs", str(wl.runs), "--seed", str(seed),
            "--workers", str(wl.workers), "--out", out_dir]


def cli_main(argv: list) -> int:
    """``evoscm.cli.main`` with its stdout captured, so that the benchmark's
    own result stays the last line of standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def load_dataset(wl: Workload, dataset: str):
    if wl.problem == "hfs":
        return datagen.load_hfs(dataset)
    return datagen.load_makeorbuy(dataset)


@dataclass
class Campaign:
    """One timed campaign and the verdict of its output check."""

    exit_code: object  # int, or the exception's type name
    wall_s: float
    cpu_s: float
    problems: list
    digest: str = ""
    episodes: int = 0
    finals: list = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_campaign(wl: Workload, seed: int, dataset: str, out_dir: str) -> Campaign:
    """Run one campaign into a fresh ``out_dir`` and check its outputs.
    Only the ``bench run`` call is timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = run_argv(wl, seed, dataset, out_dir)
    crash = ""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        code = cli_main(argv)
    except Exception as exc:  # a crash is a failed campaign, not a dead benchmark
        code, crash = type(exc).__name__, "\n" + traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    camp = Campaign(exit_code=code, wall_s=wall, cpu_s=cpu, problems=[])
    if code != 0:
        camp.problems.append(f"bench run exited with {code}{crash}")
        return camp
    check_outputs(wl, dataset, out_dir, camp)
    return camp


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _read_csv(path: Path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def check_outputs(wl: Workload, dataset: str, out_dir: str, camp: Campaign):
    """Append to ``camp.problems`` every way the artifacts in ``out_dir`` break
    the campaign's contract; fill in the digest, episodes and finals."""
    out = Path(out_dir)
    problems = camp.problems
    try:
        finals = _read_csv(out / "finals.csv")
        history = _read_csv(out / "history.csv")
        camp.digest = hashlib.sha256(
            (out / "finals.csv").read_bytes() + (out / "history.csv").read_bytes()
        ).hexdigest()
    except (OSError, csv.Error) as exc:
        problems.append(f"cannot read artifacts: {exc}")
        return
    try:
        values = [float(r["final_objective"]) for r in finals]
        episodes = [int(r["episodes"]) for r in finals]
        rows = [(int(r["run"]), float(r["best"])) for r in history]
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed artifacts: {exc!r}")
        return
    camp.finals = values
    camp.episodes = sum(episodes)
    if len(finals) != wl.runs:
        problems.append(f"finals.csv has {len(finals)} rows, want {wl.runs}")
    for run, eps in enumerate(episodes):
        if eps != wl.budget:
            problems.append(f"run {run}: {eps} episodes, want {wl.budget}")
    for run, final in enumerate(values):
        trace = [best for r, best in rows if r == run]
        if len(trace) != wl.budget:
            problems.append(f"run {run}: {len(trace)} history rows, want {wl.budget}")
        steps = zip(trace, trace[1:])
        if not all((b >= a) if wl.maximize else (b <= a) for a, b in steps):
            problems.append(f"run {run}: best-so-far is not monotone")
        if trace and trace[-1] != final:
            problems.append(f"run {run}: last history row {trace[-1]} != final {final}")
    bound = objective_bound(wl, dataset)
    for run, final in enumerate(values):
        # 1e-9 relative slack: finals are makespans scaled back from rewards.
        if wl.maximize and final > bound * (1 + 1e-9):
            problems.append(f"run {run}: revenue {final} above the all-on-time {bound}")
        if not wl.maximize and final < bound * (1 - 1e-9):
            problems.append(f"run {run}: makespan {final} below the lower bound {bound}")
    for name in ("best_tree.txt", "best_tree.dot"):
        path = out / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"{name} missing or empty")


def objective_bound(wl: Workload, dataset: str) -> float:
    """hfs: the instance's makespan lower bound; make-or-buy: the revenue of
    every order on time."""
    data = load_dataset(wl, dataset)
    if wl.problem == "hfs":
        return flowshop.lower_bounds(data)
    return MakeOrBuyParams().on_time_revenue * len(data)


def quality(wl: Workload, dataset: str, finals: list) -> float:
    """hfs: lower bound / mean final makespan; make-or-buy: mean final revenue
    / all-on-time revenue. 1.0 is the best either can be."""
    mean = sum(finals) / len(finals)
    bound = objective_bound(wl, dataset)
    return mean / bound if wl.maximize else bound / mean
