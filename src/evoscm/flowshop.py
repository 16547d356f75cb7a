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
for the jobs' open windows: sorted breakpoints with the usage of each segment
between them (the serial schedule-generation scheme's data structure). A
phase query bisects to its ready time and walks forward over the segments
until a gap of the phase's length fits under the capacity, so it costs a
bisect plus a walk over the segments the phase crosses. The area check walks
the segments of the job's window the same way, and a retry finds the next
release by bisecting a sorted list of window ends. Placing an interval splits
its profile at the interval's two ends and increments the segments between.
Starts are always the ready time or an existing breakpoint and ends are
``start + duration``; no time is computed by any other arithmetic.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from .envs import Env, EnvSpec, FeatureSpec

CATEGORIES = ("M", "E", "R")

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
        if not all(map(math.isfinite, (self.due_day, self.basement_day, self.panel_day))):
            raise ValueError(f"job {self.id}: days must be finite numbers")
        if self.basement_day < 0 or self.panel_day < 0:
            raise ValueError(f"job {self.id}: arrival days must be >= 0")
        if self.due_day < self.basement_day:
            raise ValueError(f"job {self.id}: due_day before basement_day")


def validate_type_specs(type_specs: dict):
    """Each machine type maps to a non-empty ordered (category, duration)
    phase list with known categories and positive finite durations."""
    for name, phases in type_specs.items():
        if not phases:
            raise ValueError(f"machine type {name!r} has no phases")
        for k, (category, duration) in enumerate(phases):
            if category not in CATEGORIES:
                raise ValueError(
                    f"machine type {name!r} phase {k}: unknown category {category!r}")
            if not 0 < duration < math.inf:
                raise ValueError(f"machine type {name!r} phase {k}: duration must be "
                                 f"a finite number > 0, got {duration!r}")


@dataclass(frozen=True)
class HfsInstance:
    jobs: tuple
    type_specs: dict
    capacities: dict = field(default_factory=lambda: {"M": 5, "E": 5, "R": 5})
    assembly_areas: int = 20
    transport_days: float = 2.0

    def __post_init__(self):
        validate_type_specs(self.type_specs)
        for category in CATEGORIES:
            if self.capacities.get(category, 0) < 1:
                raise ValueError(f"capacity for {category} must be >= 1")
        if self.assembly_areas < 1:
            raise ValueError("assembly_areas must be >= 1")
        if self.transport_days < 0:
            raise ValueError("transport_days must be >= 0")
        for job in self.jobs:
            if job.machine_type not in self.type_specs:
                raise ValueError(f"job {job.id}: unknown machine type {job.machine_type!r}")


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


def save_schedule(schedule: Schedule, path):
    """Write one CSV row per phase: job_id,phase_index,category,start,end."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job_id", "phase_index", "category", "start", "end"])
        for job_id, spans in zip(schedule.job_ids, schedule.phases):
            for k, (category, start, end) in enumerate(spans):
                writer.writerow([job_id, k, category, repr(float(start)),
                                 repr(float(end))])


def _first_phase_index(phases, category):
    for k, (cat, _) in enumerate(phases):
        if cat == category:
            return k
    return None


class _Profile:
    """Piecewise-constant usage over time: ``usage[k]`` half-open intervals
    cover every instant of [times[k], times[k + 1]); the last segment runs to
    +inf. ``times`` starts at a -inf sentinel, so every query time falls in a
    segment."""

    __slots__ = ("times", "usage")

    def __init__(self):
        self.times = [-math.inf]
        self.usage = [0]

    def earliest(self, cap, ready, dur):
        """Earliest t >= ready such that fewer than ``cap`` intervals cover
        every instant of [t, t + dur). Always ``ready`` or a breakpoint."""
        times, usage = self.times, self.usage
        candidate = ready
        for k in range(bisect_right(times, ready), len(times)):
            t = times[k]
            if usage[k - 1] >= cap:
                candidate = t
            elif t - candidate >= dur:
                return candidate
        return candidate

    def _split(self, t, lo):
        """Make ``t`` a breakpoint (searching from index ``lo``); its index."""
        times = self.times
        k = bisect_left(times, t, lo)
        if k == len(times) or times[k] != t:
            times.insert(k, t)
            self.usage.insert(k, self.usage[k - 1])
        return k

    def add(self, start, end):
        """Count one more interval over [start, end)."""
        i = self._split(start, 1)
        j = self._split(end, i)
        usage = self.usage
        for k in range(i, j):
            usage[k] += 1

    def peak(self, start, end):
        """Highest usage at any instant of [start, end)."""
        times, usage = self.times, self.usage
        k = bisect_right(times, start) - 1
        last = len(times)
        peak = 0
        while k < last and times[k] < end:
            if usage[k] > peak:
                peak = usage[k]
            k += 1
        return peak


def decode_list_schedule(instance: HfsInstance, permutation) -> Schedule:
    """Serial list scheduling: place jobs in permutation order, each phase at
    its earliest feasible start.

    Per job: phase k starts no earlier than phase k-1 ends; the first M phase
    waits for the basement, the first E phase for the panels; every instant
    respects the per-category capacity and the open-jobs area limit. Raises
    ValueError unless ``permutation`` is a bijection over 0..n-1.
    """
    n = len(instance.jobs)
    perm = [int(p) for p in permutation]
    if sorted(perm) != list(range(n)):
        raise ValueError("permutation must be a bijection over job indices 0..n-1")
    profiles = {category: _Profile() for category in CATEGORIES}
    areas = _Profile()
    window_ends = []
    placed = [None] * n
    for j in perm:
        job = instance.jobs[j]
        phases = instance.type_specs[job.machine_type]
        first_m = _first_phase_index(phases, "M")
        first_e = _first_phase_index(phases, "E")
        push = 0.0
        while True:
            spans = []
            prev_end = None
            for k, (category, dur) in enumerate(phases):
                lo = push if prev_end is None else prev_end
                if k == first_m:
                    lo = max(lo, job.basement_day)
                if k == first_e:
                    lo = max(lo, job.panel_day)
                start = profiles[category].earliest(instance.capacities[category], lo, dur)
                spans.append((category, start, start + dur))
                prev_end = start + dur
            window_start, window_end = spans[0][1], spans[-1][2]
            if areas.peak(window_start, window_end) < instance.assembly_areas:
                break
            k = bisect_right(window_ends, window_start)
            if k == len(window_ends):
                raise RuntimeError("area overflow with no pending release")
            push = window_ends[k]
        for category, start, end in spans:
            profiles[category].add(start, end)
        areas.add(window_start, window_end)
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
    cat_events = {category: [] for category in CATEGORIES}
    windows = []
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
            cat_events[category].append((start, 1, job.id, k))
            cat_events[category].append((end, -1, job.id, k))
        want_delivery = spans[-1][2] + instance.transport_days
        if abs(schedule.delivery[i] - want_delivery) > eps:
            out.append(f"job {job.id}: delivery {schedule.delivery[i]}, "
                       f"expected {want_delivery}")
        windows.append((spans[0][1], spans[-1][2], job.id))
    for category in CATEGORIES:
        cap = instance.capacities[category]
        usage = 0
        for t, delta, job_id, k in sorted(cat_events[category], key=lambda ev: (ev[0], ev[1])):
            usage += delta
            if usage > cap:
                out.append(f"job {job_id} phase {k}: category {category} over capacity "
                           f"{cap} at t={t}")
        # (ends sort before starts at equal t, matching half-open intervals)
    area_events = []
    for s, e, job_id in windows:
        if e > s:
            area_events.append((s, 1, job_id))
            area_events.append((e, -1, job_id))
    usage = 0
    for t, delta, job_id in sorted(area_events, key=lambda ev: (ev[0], ev[1])):
        usage += delta
        if usage > instance.assembly_areas:
            out.append(f"job {job_id}: assembly areas over capacity "
                       f"{instance.assembly_areas} at t={t}")
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


def priorities_to_permutation(priorities, jobs) -> list:
    """Scheduling order from per-job priorities: descending priority, ties by
    earlier due date, then by input index."""
    if len(priorities) != len(jobs):
        raise ValueError("need exactly one priority per job")
    return sorted(range(len(jobs)),
                  key=lambda i: (-priorities[i], jobs[i].due_day, i))


class HfsEnv(Env):
    """Episodic wrapper: step i observes job i as (machine type code, due day,
    basement day, panel day) and assigns it one of ``PRIORITY_LEVELS``
    priorities. The terminal step decodes the resulting permutation and pays
    -makespan/1000. The episode is deterministic, so ``reset`` ignores its
    seed.

    The environment memoizes the makespan of each permutation it decodes, so
    the episodes of one run decode each permutation once. Only the float is
    kept, so ``last_schedule`` decodes again on request.
    """

    objective_scale = -1000.0

    def __init__(self, instance: HfsInstance):
        if not instance.jobs:
            raise ValueError("cannot build an environment for an empty instance")
        self.instance = instance
        self._makespans = {}
        self.type_names = tuple(sorted(instance.type_specs))
        code = {name: float(i) for i, name in enumerate(self.type_names)}
        # Job i's observation is row i, as Python floats.
        self._rows = tuple((code[job.machine_type], float(job.due_day),
                            float(job.basement_day), float(job.panel_day))
                           for job in instance.jobs)
        self._key_dtype = np.uint16 if len(instance.jobs) <= 1 << 16 else np.uint32
        dd = [job.due_day for job in instance.jobs]
        db = [job.basement_day for job in instance.jobs]
        de = [job.panel_day for job in instance.jobs]
        self.spec = EnvSpec(
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
        )
        self._i = 0
        self._priorities = []
        self._last_perm = None

    def reset(self, seed=None) -> tuple:
        self._i = 0
        self._priorities = []
        return self._rows[0]

    def step(self, action: int):
        if self._i == len(self._rows):
            raise ValueError("the episode is over; call reset() to start the next one")
        a = int(action)
        if a != action or not 0 <= a < self.spec.action_count:
            raise ValueError(f"priority {action} outside 0..{self.spec.action_count - 1}")
        self._priorities.append(a)
        self._i += 1
        if self._i < len(self._rows):
            return self._rows[self._i], 0.0, False
        perm = priorities_to_permutation(self._priorities, self.instance.jobs)
        self._last_perm = perm
        key = np.array(perm, dtype=self._key_dtype).tobytes()
        value = self._makespans.get(key)
        if value is None:
            value = self._makespans[key] = makespan(decode_list_schedule(self.instance, perm))
        return (0.0,) * len(self.spec.features), -value / 1000.0, True

    @property
    def last_schedule(self):
        """The schedule of the last finished episode (None before one)."""
        if self._last_perm is None:
            return None
        return decode_list_schedule(self.instance, self._last_perm)
