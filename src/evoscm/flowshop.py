"""Hybrid flow shop scheduling with human-resource categories.

Jobs pass through their machine type's ordered phase list. Each phase needs
one unit of its category (M, E, or R) for its whole duration; every category
has a fixed capacity, and at most ``assembly_areas`` jobs may be open (between
first phase start and last phase end) at once. A job's first M phase cannot
start before its basement arrives, its first E phase not before its panels
arrive, and the finished machine ships after a constant transport time.

``decode_list_schedule`` is a serial list scheduler: jobs are placed one at a
time in permutation order, each phase at its earliest feasible start given
everything placed so far. The assembly-area constraint spans the whole job,
so a placement whose open interval would overflow the areas is retried with
the first phase pushed past the next area release.

Everything placed so far lives in capacity profiles, one per category and one
for the jobs' open windows: two flat lists, the sorted breakpoints (between
-inf and +inf sentinels) and the usage of each segment between them (the
serial schedule-generation scheme's data structure). A phase query bisects to
its ready time and walks forward until it reaches ``start + duration`` with no
segment at the capacity; the area check walks the job's window the same way,
and a retry finds the next release by bisecting a sorted list of window ends.
Each walk ends knowing the segment that holds its start and the first
breakpoint at or after its end. The job's intervals are placed from those
indices, last first so that no insert shifts an earlier interval's indices:
the end and then the start become breakpoints if they are not, and the
segments between them gain one. A phase that starts where the previous one on
its profile ended extends that interval. Starts are always the ready time or
an existing breakpoint and ends are ``start + duration``; no time is computed
by any other arithmetic. A phase whose duration rounds away at its ready time
starts there, and a zero-length job window always fits: neither covers an
instant.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass, field

from .envs import HORIZON_DAYS, EnvSpec, FeatureSpec, RowEnv

CATEGORIES = ("M", "E", "R")

DEFAULT_CAPACITY = 5

HFS_SIM_PARAMS = ("assembly_areas", "capacity_e", "capacity_m", "capacity_r",
                  "machine_types", "transport_days")

# Priority levels an ``HfsEnv`` step chooses from (its action count).
PRIORITY_LEVELS = 10

LT7_FAMILY = ("LT7", "LT7p", "LT7 INS", "LT7p INS")
LT8_FAMILY = ("LT8", "LT8p", "LT8 ULA", "LT8p ULA",
              "LT8 12", "LT8p 12", "LT8 12 ULA", "LT8p 12 ULA")
ALL_MACHINE_TYPES = LT7_FAMILY + LT8_FAMILY


@dataclass(frozen=True)
class Job:
    """One machine to build. Days are offsets from the scheduling origin."""

    id: int
    machine_type: str
    due_day: float
    basement_day: float
    panel_day: float

    def __post_init__(self):
        for name in ("due_day", "basement_day", "panel_day"):
            day = getattr(self, name)
            if not 0 <= day <= HORIZON_DAYS:
                raise ValueError(f"job {self.id}: {name} must be a finite number "
                                 f">= 0 and <= {HORIZON_DAYS}, got {day!r}")
        if self.due_day < self.basement_day:
            raise ValueError(f"job {self.id}: due_day before basement_day")


def validate_type_specs(type_specs: dict):
    """Each machine type maps to a non-empty ordered (category, duration)
    phase list with known categories and durations in (0, HORIZON_DAYS]."""
    for name, phases in type_specs.items():
        if not phases:
            raise ValueError(f"machine type {name!r} has no phases")
        for k, (category, duration) in enumerate(phases):
            if category not in CATEGORIES:
                raise ValueError(
                    f"machine type {name!r} phase {k}: unknown category {category!r}")
            if not 0 < duration <= HORIZON_DAYS:
                raise ValueError(f"machine type {name!r} phase {k}: duration must be a "
                                 f"finite number > 0 and <= {HORIZON_DAYS}, got {duration!r}")


@dataclass(frozen=True)
class HfsInstance:
    jobs: tuple
    type_specs: dict
    capacities: dict = field(default_factory=lambda: dict.fromkeys(CATEGORIES, DEFAULT_CAPACITY))
    assembly_areas: int = 20
    transport_days: float = 2.0

    def __post_init__(self):
        validate_type_specs(self.type_specs)
        counts = [(f"capacity for {c}", self.capacities.get(c)) for c in CATEGORIES]
        for name, value in counts + [("assembly_areas", self.assembly_areas)]:
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 <= self.transport_days <= HORIZON_DAYS:
            raise ValueError(f"transport_days must be a finite number >= 0 and "
                             f"<= {HORIZON_DAYS}, got {self.transport_days!r}")
        for job in self.jobs:
            if job.machine_type not in self.type_specs:
                raise ValueError(f"job {job.id}: unknown machine type {job.machine_type!r}")


def shop_settings(sim_params: dict) -> dict:
    """``HfsInstance`` keywords from flow-shop ``--sim-params``: the
    ``capacity_*`` keys give ``capacities`` (a category not named keeps
    ``DEFAULT_CAPACITY``), and ``machine_types`` stays the path of a
    machine-type table, for the caller to read into ``type_specs``. An
    unknown key or a malformed value is a ValueError."""
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
            ok = 0 <= value <= HORIZON_DAYS
            want = f"a finite number >= 0 and <= {HORIZON_DAYS}"
        else:
            ok, want = isinstance(value, numbers.Integral) and value >= 1, "an integer >= 1"
        if not ok:
            raise ValueError(f"hfs sim param {key} must be {want}, got {value!r}")
    shop = {key: sim_params[key] for key in ("assembly_areas", "machine_types", "transport_days")
            if key in sim_params}
    shop["capacities"] = {c: sim_params.get(f"capacity_{c.lower()}", DEFAULT_CAPACITY)
                          for c in CATEGORIES}
    return shop


@dataclass
class Schedule:
    """Phase assignments per job, in instance job order.

    ``phases[i]`` is a list of (category, start, end) for jobs[i];
    ``delivery[i]`` is its last phase end plus transport.
    """

    job_ids: list
    phases: list
    delivery: list


def makespan(schedule: Schedule) -> float:
    """Latest delivery across jobs (0 for an empty schedule)."""
    return max(schedule.delivery, default=0.0)


def _first_phase_index(phases, category):
    for k, (cat, _) in enumerate(phases):
        if cat == category:
            return k
    return None


def decode_list_schedule(instance: HfsInstance, permutation) -> Schedule:
    """Serial list scheduling: place jobs in permutation order, each phase at
    its earliest feasible start.

    Per job: phase k starts no earlier than phase k-1 ends; the first M phase
    waits for the basement, the first E phase for the panels; every instant
    respects the per-category capacity and the open-jobs area limit. A phase
    whose duration rounds away at its ready time (``ready + duration ==
    ready``) starts there, and a zero-length job window always fits. Raises
    ValueError unless ``permutation`` is a bijection over 0..n-1 given as
    integers.
    """
    n = len(instance.jobs)
    entries = list(permutation)
    try:
        perm = [int(p) for p in entries]
    except (TypeError, ValueError, OverflowError):
        perm = None
    if perm != entries or sorted(perm) != list(range(n)):
        raise ValueError("permutation must be a bijection over job indices 0..n-1")
    # A profile is piecewise-constant usage: usage[k] intervals cover every
    # instant of [times[k], times[k + 1]). The -inf sentinel puts every query
    # time in a segment, and the +inf one ends every walk and is never an
    # interval's end.
    profiles = {category: ([-math.inf, math.inf], [0, 0]) for category in CATEGORIES}
    area_times, area_usage = [-math.inf, math.inf], [0, 0]
    areas = instance.assembly_areas
    plans = {}
    for name, phases in instance.type_specs.items():
        first_m = _first_phase_index(phases, "M")
        first_e = _first_phase_index(phases, "E")
        plans[name] = tuple(
            (category, dur, *profiles[category], instance.capacities[category],
             k == first_m, k == first_e, k > 0 and phases[k - 1][0] == category)
            for k, (category, dur) in enumerate(phases))
    window_ends = []
    placed = [None] * n
    for j in perm:
        job = instance.jobs[j]
        plan = plans[job.machine_type]
        basement, panels = job.basement_day, job.panel_day
        push = 0.0
        while True:
            spans = []
            # (times, usage, start segment, end index, start, end) per interval.
            places = []
            lo = push
            for category, dur, times, usage, cap, first_m, first_e, follows in plan:
                if first_m and basement > lo:
                    lo = basement
                if first_e and panels > lo:
                    lo = panels
                # Earliest start >= lo with fewer than cap intervals over
                # [start, end): lo or a breakpoint, and lo if end == lo. Segment
                # ks holds start and k is the first breakpoint at or after end.
                start = lo
                end = lo + dur
                k = bisect_right(times, lo)
                ks = k - 1
                while end > lo:
                    t = times[k]
                    if usage[k - 1] >= cap:
                        start = t
                        end = t + dur
                        ks = k
                    elif t >= end:
                        break
                    k += 1
                spans.append((category, start, end))
                # A zero-length phase covers no instant and is not placed; a
                # phase that starts where the previous one on its profile ends
                # extends that interval.
                if end > start:
                    if (follows and places and places[-1][5] == start
                            and places[-1][0] is times):
                        _, _, ks, _, start, _ = places.pop()
                    places.append((times, usage, ks, k, start, end))
                lo = end
            window_start, window_end = spans[0][1], lo
            # An empty window fits; another fits if no segment of it is at the
            # limit, and then k is the first breakpoint at or after window_end.
            ks = k = bisect_right(area_times, window_start) - 1
            while area_times[k] < window_end and area_usage[k] < areas:
                k += 1
            if area_times[k] >= window_end or window_end == window_start:
                break
            k = bisect_right(window_ends, window_start)
            if k == len(window_ends):
                raise RuntimeError("area overflow with no pending release")
            push = window_ends[k]
        if window_end > window_start:
            places.append((area_times, area_usage, ks, k, window_start, window_end))
        for times, usage, ks, ke, start, end in reversed(places):
            if times[ke] != end:
                times.insert(ke, end)
                usage.insert(ke, usage[ke - 1])
            if times[ks] != start:
                ks += 1
                ke += 1
                times.insert(ks, start)
                usage.insert(ks, usage[ks - 1])
            while ks < ke:
                usage[ks] += 1
                ks += 1
        insort(window_ends, window_end)
        placed[j] = spans
    delivery = [placed[j][-1][2] + instance.transport_days for j in range(n)]
    return Schedule(job_ids=[job.id for job in instance.jobs],
                    phases=placed, delivery=delivery)


def check_feasible(instance: HfsInstance, schedule: Schedule) -> list:
    """Every constraint violation as a human-readable string (empty == ok)."""
    out = []
    n = len(instance.jobs)
    if len(schedule.phases) != n or len(schedule.delivery) != n:
        return [f"schedule covers {len(schedule.phases)} jobs, instance has {n}"]
    eps = 1e-9
    # One sweep over the nonempty intervals on M, E, R (0-2) and the assembly
    # areas (3); ends sort before starts at equal t, matching half-open intervals.
    resource = {category: r for r, category in enumerate(CATEGORIES)}
    caps = [instance.capacities[category] for category in CATEGORIES] + [instance.assembly_areas]
    events = []
    for i, job in enumerate(instance.jobs):
        spec = instance.type_specs[job.machine_type]
        spans = schedule.phases[i]
        if len(spans) != len(spec):
            out.append(f"job {job.id}: {len(spans)} phases, type has {len(spec)}")
            continue
        first_m = _first_phase_index(spec, "M")
        first_e = _first_phase_index(spec, "E")
        prev_end = None
        for k, ((category, start, end), (want_cat, want_dur)) in enumerate(zip(spans, spec)):
            if category != want_cat:
                out.append(f"job {job.id} phase {k}: category {category}, expected {want_cat}")
            if abs((end - start) - want_dur) > eps:
                out.append(f"job {job.id} phase {k}: duration {end - start}, expected {want_dur}")
            if prev_end is not None and start < prev_end - eps:
                out.append(f"job {job.id} phase {k}: starts before phase {k - 1} ends")
            if k == first_m and start < job.basement_day - eps:
                out.append(f"job {job.id} phase {k}: first M phase before basement day "
                           f"({start} < {job.basement_day})")
            if k == first_e and start < job.panel_day - eps:
                out.append(f"job {job.id} phase {k}: first E phase before panel day "
                           f"({start} < {job.panel_day})")
            prev_end = end
            name = f"job {job.id} phase {k}: category {category}"
            if category in resource and end > start:
                r = resource[category]
                events += [(r, start, 1, name), (r, end, -1, name)]
        want_delivery = spans[-1][2] + instance.transport_days
        if abs(schedule.delivery[i] - want_delivery) > eps:
            out.append(f"job {job.id}: delivery {schedule.delivery[i]}, "
                       f"expected {want_delivery}")
        if spans[-1][2] > spans[0][1]:
            name = f"job {job.id}: assembly areas"
            events += [(3, spans[0][1], 1, name), (3, spans[-1][2], -1, name)]
    usage = [0] * 4
    for r, t, delta, name in sorted(events, key=lambda ev: ev[:3]):
        usage[r] += delta
        if usage[r] > caps[r]:
            out.append(f"{name} over capacity {caps[r]} at t={t}")
    return out


def lower_bounds(instance: HfsInstance) -> float:
    """Max of the category work/capacity bound and the per-job critical-path
    bound (earliest arrival + phase durations + transport)."""
    if not instance.jobs:
        return 0.0
    best = 0.0
    work = {category: 0.0 for category in CATEGORIES}
    for job in instance.jobs:
        phases = instance.type_specs[job.machine_type]
        first_m = _first_phase_index(phases, "M")
        first_e = _first_phase_index(phases, "E")
        t = 0.0
        for k, (category, dur) in enumerate(phases):
            if k == first_m:
                t = max(t, job.basement_day)
            if k == first_e:
                t = max(t, job.panel_day)
            t += dur
            work[category] += dur
        best = max(best, t + instance.transport_days)
    for category in CATEGORIES:
        if work[category] > 0:
            best = max(best, work[category] / instance.capacities[category]
                       + instance.transport_days)
    return best


def edd_order(jobs) -> list:
    """Job indices by earlier due date, ties by input index."""
    return sorted(range(len(jobs)), key=lambda i: (jobs[i].due_day, i))


def priorities_to_permutation(priorities, edd) -> list:
    """Scheduling order from per-job priorities: descending priority, ties in
    the order ``edd = edd_order(jobs)`` (earlier due date, then input index).
    The sort is stable under ``reverse``, so equal priorities keep that order."""
    if len(priorities) != len(edd):
        raise ValueError("need exactly one priority per job")
    return sorted(edd, key=priorities.__getitem__, reverse=True)


class HfsEnv(RowEnv):
    """Episodic wrapper: step i observes job i as (machine type code, due day,
    basement day, panel day) and assigns it one of ``PRIORITY_LEVELS``
    priorities. The terminal step decodes the resulting permutation and pays
    -makespan/1000. The episode is deterministic, so ``reset`` ignores its
    seed.

    A whole solution is a job permutation, and ``score`` gives its makespan.
    The environment memoizes the makespan of each permutation it decodes, so
    the episodes and scores of one run decode each permutation once.
    """

    objective_scale = -1000.0
    solution_kind = "permutation"

    def __init__(self, instance: HfsInstance):
        if not instance.jobs:
            raise ValueError("cannot build an environment for an empty instance")
        self.instance = instance
        self._makespans = {}
        self._edd = edd_order(instance.jobs)
        self.type_names = tuple(sorted(instance.type_specs))
        code = {name: float(i) for i, name in enumerate(self.type_names)}
        self._key_type = "H" if len(instance.jobs) <= 1 << 16 else "I"
        # Job i's observation is row i, as Python floats.
        rows = tuple((code[job.machine_type], float(job.due_day),
                      float(job.basement_day), float(job.panel_day))
                     for job in instance.jobs)
        _, dd, db, de = zip(*rows)
        super().__init__(rows, EnvSpec(
            features=(
                FeatureSpec("machine_type", 0, len(self.type_names) - 1,
                            categories=self.type_names),
                FeatureSpec("due_day", min(dd), max(dd)),
                FeatureSpec("basement_day", min(db), max(db)),
                FeatureSpec("panel_day", min(de), max(de)),
            ),
            action_count=PRIORITY_LEVELS,
            episode_len=len(instance.jobs),
            stochastic=False,
        ))

    def objective(self, priorities) -> float:
        """The makespan of the permutation that ``priorities`` give."""
        return self.score(priorities_to_permutation(priorities, self._edd))

    def score(self, perm, rng=None) -> float:
        """The makespan of the job permutation ``perm``, which the decoder checks;
        ``rng`` is unused, as the shop is deterministic."""
        try:
            key = array(self._key_type, perm).tobytes()
        except (TypeError, OverflowError):  # not integers that fit a key: no memo
            return makespan(decode_list_schedule(self.instance, perm))
        value = self._makespans.get(key)
        if value is None:
            value = self._makespans[key] = makespan(decode_list_schedule(self.instance, perm))
        return value
