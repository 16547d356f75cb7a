"""Run records shared by every optimizer and the benchmark harness."""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field


@dataclass
class RunRecord:
    """One optimizer run.

    ``trace`` holds the best-so-far objective after each consumed episode, so
    its length equals ``episodes``. ``solution`` is a serialized final
    solution (bit string, permutation, or one-line policy). ``wall_time`` and
    ``artifacts`` are informational only: excluded from equality, so records
    with equal semantic content compare equal (the determinism contract).
    """

    algo: str
    seed: int
    trace: list
    final_objective: float
    solution: str
    episodes: int
    params: dict = field(default_factory=dict)
    wall_time: float = field(default=0.0, compare=False)
    artifacts: dict = field(default_factory=dict, compare=False, repr=False)


class BudgetExhausted(RuntimeError):
    """Raised when an evaluation is recorded past the budget limit."""


class BestTrace:
    """Per-episode best-so-far trace, the run's episode budget and its clock,
    which starts when the trace is made; ``run_record`` turns it into the
    run's RunRecord.

    An evaluation that cost ``count`` episodes finishes before its result is
    known, so it appends count-1 entries at the previous best and one entry
    at the updated best. The trace is monotone in the optimization direction.
    It holds one entry per consumed episode, so it never grows past
    ``limit`` entries; one episode is one simulation execution.
    """

    def __init__(self, maximize: bool, limit: int):
        if not isinstance(limit, numbers.Integral) or isinstance(limit, bool) or limit < 1:
            raise ValueError(f"budget must be >= 1 and an integer, got {limit!r}")
        self.maximize = maximize
        self.limit = int(limit)
        self.values: list = []
        self.best = None
        self.best_payload = None
        self.t0 = time.perf_counter()

    def improves(self, value: float) -> bool:
        if self.best is None:
            return True
        return value > self.best if self.maximize else value < self.best

    @property
    def remaining(self) -> int:
        return self.limit - len(self.values)

    def record(self, value: float, count: int = 1, payload=None):
        """Record an evaluation that consumed ``count`` episodes; refused
        (BudgetExhausted, nothing recorded) past the limit."""
        if count < 1:
            raise ValueError("an evaluation must consume at least one episode")
        if count > self.remaining:
            raise BudgetExhausted(f"budget exhausted: {len(self.values)}/{self.limit} "
                                  f"consumed, wanted {count} more")
        value = float(value)
        previous = value if self.best is None else self.best
        if self.improves(value):
            self.best = value
            self.best_payload = payload
        self.values.extend([previous] * (count - 1))
        self.values.append(self.best)

    def run_record(self, algo: str, seed, solution: str, params: dict, scale: float = 1.0,
                   artifacts: dict = None) -> RunRecord:
        """The run's record: trace and best times ``scale`` (objective
        units), the budget first in ``params``, and the wall time since the
        trace was made."""
        return RunRecord(
            algo=algo, seed=seed, trace=[v * scale for v in self.values],
            final_objective=self.best * scale, solution=solution,
            episodes=len(self.values), params={"budget": self.limit, **params},
            wall_time=time.perf_counter() - self.t0, artifacts=dict(artifacts or {}))
