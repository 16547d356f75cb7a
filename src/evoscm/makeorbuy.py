"""Make-or-buy supply chain: three component plants, a cyclic truck, and an
assembly plant.

Plants A, B, and C produce the per-order component quantities of every
internally fulfilled (MAKE) order, one unit at a time, FIFO in order-list
order. A truck departs plant D at time 0 and cycles A -> B -> C -> D forever,
at each stop loading every unit finished by its arrival (skipping the stop
when nothing is ready) and unloading at D. Plant D assembles an order once
all its components have arrived, one order at a time, FIFO by readiness.
Outsourced (BUY) orders are delivered on time by construction.

Revenue: on-time orders earn 100, late ones 50, and every outsourced order
costs 30 -- by default an outsourced order counts both as on time and as
outsourced, for a net 70.

All processing, travel, load/unload, and assembly times are uniform draws;
the default production range is calibrated so that making everything
overloads the plants and tail orders miss their deadlines, which is what
makes the make-or-buy decision non-trivial.

A seed fixes the outcome because the draws come in one fixed order from one
generator. First the production times: one vectorized uniform per unit for
plant A, then B, then C, in FIFO unit order. Every later time comes from a
single stream of the generator's uniforms, drawn in blocks of 1024 as each
block runs out, and is ``lo + (hi - lo) * u`` for the next uniform ``u``.
The stream is consumed cycle by cycle while units remain undelivered: the
leg to A, a load at A if a unit is ready there, the leg to B, a load at B,
the leg to C, a load at C, the leg back to D, and an unload at D if anything
was loaded. Then comes one assembly draw per internal order, in service
order (ready day, ties in order-list order). Any change to this order
changes every seed's outcome; ``tests/oracles.py`` holds a reference that
pins it.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .envs import Env, EnvSpec, FeatureSpec

MAKE = 0
BUY = 1


@dataclass(frozen=True)
class Order:
    """Component quantities and a deadline, in days from the start date."""

    id: int
    qty_a: int
    qty_b: int
    qty_c: int
    deadline_day: float

    def __post_init__(self):
        if min(self.qty_a, self.qty_b, self.qty_c) < 0:
            raise ValueError(f"order {self.id}: quantities must be >= 0")
        if not 0 <= self.deadline_day < math.inf:
            raise ValueError(f"order {self.id}: deadline_day must be a finite number >= 0")


@dataclass(frozen=True)
class MakeOrBuyParams:
    """Simulation distributions (uniform lo/hi, in days) and revenue terms.

    ``outsourced_count_on_time`` switches how outsourced orders enter the
    revenue counts: by default they appear in both n_on_time and
    n_outsourced; with False they appear in n_outsourced only (and the
    n_on_time + n_late == n identity then covers internal orders only).
    """

    production_a: tuple = (1.5, 2.5)
    production_b: tuple = (1.5, 2.5)
    production_c: tuple = (1.5, 2.5)
    travel: tuple = (0.1, 0.3)
    load: tuple = (0.02, 0.08)
    unload: tuple = (0.02, 0.08)
    assembly: tuple = (0.1, 0.2)
    on_time_revenue: float = 100.0
    late_revenue: float = 50.0
    outsource_cost: float = 30.0
    outsourced_count_on_time: bool = True

    def __post_init__(self):
        for name in ("production_a", "production_b", "production_c",
                     "travel", "load", "unload", "assembly"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(map(_is_number, pair))):
                raise ValueError(f"{name} must be a 'lo, hi' pair of numbers, "
                                 f"got {pair!r}")
            lo, hi = pair
            if not 0 <= lo <= hi < math.inf:
                raise ValueError(f"{name} range must satisfy 0 <= lo <= hi < inf")
        if self.travel[0] <= 0:
            raise ValueError("travel time must be strictly positive")
        for name in ("on_time_revenue", "late_revenue", "outsource_cost"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.outsourced_count_on_time, bool):
            raise ValueError("outsourced_count_on_time must be true or false, "
                             f"got {self.outsourced_count_on_time!r}")

    @classmethod
    def from_settings(cls, settings: dict) -> "MakeOrBuyParams":
        """Params from ``--sim-params`` key/value settings; a key that is not
        a field is an error, and so is any value ``__post_init__`` rejects."""
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(settings) - set(known))
        if unknown:
            raise ValueError(f"unknown makeorbuy sim params: {unknown} "
                             f"(known: {sorted(known)})")
        return cls(**settings)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def revenue(n_on_time: int, n_late: int, n_outsourced: int, *,
            on_time_revenue: float = 100.0, late_revenue: float = 50.0,
            outsource_cost: float = 30.0) -> float:
    """R = 100 * n_on_time + 50 * n_late - 30 * n_outsourced (defaults)."""
    if min(n_on_time, n_late, n_outsourced) < 0:
        raise ValueError("order counts must be >= 0")
    return (on_time_revenue * n_on_time + late_revenue * n_late
            - outsource_cost * n_outsourced)


@dataclass
class SimOutcome:
    n_on_time: int
    n_late: int
    n_outsourced: int
    revenue: float
    completion_day: list


def _uniform_stream(rng):
    """``next()`` over rng's uniforms, drawn in blocks of 1024 as each block
    runs out (``iter(f, None)`` calls ``f`` forever: a block is never None)."""
    blocks = iter(lambda: rng.random(1024).tolist(), None)
    return chain.from_iterable(blocks).__next__


def simulate(orders, decisions, params: MakeOrBuyParams, seed) -> SimOutcome:
    """Run the supply chain once for a full decision vector.

    ``decisions[i]`` is 0 (MAKE) or 1 (BUY) for orders[i]. Internal orders
    complete when plant D finishes assembling them; an order is on time iff
    its completion day is <= its deadline day. Outsourced orders complete on
    their deadline. The draws follow the fixed order of the module docstring,
    so a seed fully determines the outcome.
    """
    n = len(orders)
    if len(decisions) != n:
        raise ValueError("need exactly one decision per order")
    if not set(decisions) <= {MAKE, BUY}:
        raise ValueError("decisions must be 0 (MAKE) or 1 (BUY)")
    decisions = [int(d) for d in decisions]
    rng = np.random.default_rng(seed)
    internal = [i for i in range(n) if decisions[i] == MAKE]
    qty = ([orders[i].qty_a for i in internal],
           [orders[i].qty_b for i in internal],
           [orders[i].qty_c for i in internal])
    ranges = (params.production_a, params.production_b, params.production_c)
    # Completion times per plant, each ending in an inf sentinel that no
    # stop is late enough to load, so a pick index never runs off the end.
    done_a, done_b, done_c = [
        np.cumsum(rng.uniform(lo, hi, int(sum(q)))).tolist() + [math.inf]
        for q, (lo, hi) in zip(qty, ranges)]
    units_left = len(done_a) + len(done_b) + len(done_c) - 3

    draw = _uniform_stream(rng)
    arrive_t = ([], [], [])  # per plant: unload times at D ...
    arrive_cum = ([], [], [])  # ... and the units of that plant shipped by then
    (arrive_a, arrive_b, arrive_c), (cum_a, cum_b, cum_c) = arrive_t, arrive_cum
    travel_lo, travel_hi = params.travel
    travel_w = travel_hi - travel_lo
    load_lo, load_hi = params.load
    load_w = load_hi - load_lo
    unload_lo, unload_hi = params.unload
    unload_w = unload_hi - unload_lo
    k_a = k_b = k_c = 0  # per plant: units picked so far
    t = 0.0
    # One truck cycle per pass, its stops written out: a stop loads (and
    # draws a load time) only if its next unit is done, and usually that
    # unit alone, so the one after it is tested before any bisect.
    while units_left:
        t += travel_lo + travel_w * draw()
        loaded_a = done_a[k_a] <= t
        if loaded_a:
            k = k_a + 1
            if done_a[k] <= t:
                k = bisect_right(done_a, t, k + 1)
            t += load_lo + load_w * draw()
            units_left -= k - k_a
            k_a = k
            cum_a.append(k)
        t += travel_lo + travel_w * draw()
        loaded_b = done_b[k_b] <= t
        if loaded_b:
            k = k_b + 1
            if done_b[k] <= t:
                k = bisect_right(done_b, t, k + 1)
            t += load_lo + load_w * draw()
            units_left -= k - k_b
            k_b = k
            cum_b.append(k)
        t += travel_lo + travel_w * draw()
        loaded_c = done_c[k_c] <= t
        if loaded_c:
            k = k_c + 1
            if done_c[k] <= t:
                k = bisect_right(done_c, t, k + 1)
            t += load_lo + load_w * draw()
            units_left -= k - k_c
            k_c = k
            cum_c.append(k)
        t += travel_lo + travel_w * draw()
        if loaded_a or loaded_b or loaded_c:
            t += unload_lo + unload_w * draw()
            if loaded_a:
                arrive_a.append(t)
            if loaded_b:
                arrive_b.append(t)
            if loaded_c:
                arrive_c.append(t)

    ready_day = []
    need = [0, 0, 0]
    for pos in range(len(internal)):
        r = 0.0
        for comp in (0, 1, 2):
            q = qty[comp][pos]
            if q:
                need[comp] += q
                arrived = arrive_t[comp][bisect_left(arrive_cum[comp], need[comp])]
                if arrived > r:
                    r = arrived
        ready_day.append(r)

    completion = [0.0] * n
    asm_lo, asm_hi = params.assembly
    asm_w = asm_hi - asm_lo
    server = 0.0
    # stable sort: ties in ready day keep order-list order
    for pos in sorted(range(len(internal)), key=ready_day.__getitem__):
        start = max(server, ready_day[pos])
        server = start + (asm_lo + asm_w * draw())
        completion[internal[pos]] = server

    n_outsourced = n - len(internal)
    internal_on_time = 0
    for i in internal:
        if completion[i] <= orders[i].deadline_day:
            internal_on_time += 1
    for i in range(n):
        if decisions[i] == BUY:
            completion[i] = float(orders[i].deadline_day)
    n_late = len(internal) - internal_on_time
    n_on_time = internal_on_time
    if params.outsourced_count_on_time:
        n_on_time += n_outsourced
    total = revenue(n_on_time, n_late, n_outsourced,
                    on_time_revenue=params.on_time_revenue,
                    late_revenue=params.late_revenue,
                    outsource_cost=params.outsource_cost)
    return SimOutcome(n_on_time=n_on_time, n_late=n_late,
                      n_outsourced=n_outsourced, revenue=total,
                      completion_day=completion)


class MakeOrBuyEnv(Env):
    """Episodic wrapper: step i observes order i as (qty_a, qty_b, qty_c,
    days_to_deadline) and decides MAKE (0) or BUY (1). The terminal step runs
    the simulation and pays revenue / 100; ``reset(seed)`` derives the
    episode's simulation seed from ``seed``."""

    objective_scale = 100.0

    def __init__(self, orders, params: MakeOrBuyParams = None):
        if not orders:
            raise ValueError("cannot build an environment without orders")
        self.orders = tuple(orders)
        self.params = params if params is not None else MakeOrBuyParams()
        # Order i's observation is row i, as Python floats.
        self._rows = tuple((float(o.qty_a), float(o.qty_b), float(o.qty_c),
                            float(o.deadline_day)) for o in self.orders)
        qa = [o.qty_a for o in self.orders]
        qb = [o.qty_b for o in self.orders]
        qc = [o.qty_c for o in self.orders]
        dd = [o.deadline_day for o in self.orders]
        self.spec = EnvSpec(
            features=(
                FeatureSpec("qty_a", 0, max(qa)),
                FeatureSpec("qty_b", 0, max(qb)),
                FeatureSpec("qty_c", 0, max(qc)),
                FeatureSpec("days_to_deadline", min(dd), max(dd)),
            ),
            action_count=2,
            episode_len=len(self.orders),
            stochastic=True,
            action_labels=("MAKE", "BUY"),
        )
        self._i = 0
        self._decisions = []
        self._sim_seed = 0
        self.last_outcome = None

    def reset(self, seed=None) -> tuple:
        self._i = 0
        self._decisions = []
        self._sim_seed = int(np.random.default_rng(seed).integers(2**63 - 1))
        return self._rows[0]

    def step(self, action: int):
        if self._i == len(self._rows):
            raise ValueError("the episode is over; call reset() to start the next one")
        a = int(action)
        if a != action or a not in (MAKE, BUY):
            raise ValueError(f"action must be 0 (MAKE) or 1 (BUY), got {action}")
        self._decisions.append(a)
        self._i += 1
        if self._i < len(self._rows):
            return self._rows[self._i], 0.0, False
        self.last_outcome = simulate(self.orders, self._decisions,
                                     self.params, self._sim_seed)
        return ((0.0,) * len(self.spec.features),
                self.last_outcome.revenue / 100.0, True)
