"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different mechanism than the
code under test: one scheduler scans integer time cells, another re-sorts
every placed interval into an event sweep for each phase instead of keeping
capacity profiles, the make-or-buy simulator makes one tape method call per
uniform and searches arrival lists with ``np.searchsorted``, the policy step
runs on numpy scalars over a fresh observation array per step, a read-only
episode steps through the environment one row at a time, the rank-sum
p-value enumerates labelings directly, and the Bellman step is recomputed
from the raw formula. Keep these naive and slow.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from evoscm.flowshop import HfsEnv
from evoscm.makeorbuy import BUY, MAKE, MakeOrBuyEnv, SimOutcome, revenue
from evoscm.tree import NUMERIC_GT, Split


def bellman_oracle(q, alpha, reward, gamma, max_next):
    return (1 - alpha) * q + alpha * (reward + gamma * max_next)


# scheduling oracle: integer-time brute force ------------------------------

def _cells(start, end):
    return range(int(start), int(end))


def schedule_oracle(jobs, type_specs, capacities, assembly_areas, transport_days,
                    permutation):
    """Serial list scheduling by unit-cell scanning; integer data only.

    jobs: list of dicts with machine_type, basement_day, panel_day (integers).
    Places each job of ``permutation`` in turn: phases go to the earliest
    integer start that respects phase order, the basement/panel arrival
    floors on the first M/E phase, and per-category capacity; if the job's
    busy window then exceeds the assembly-area cap anywhere, the whole job is
    retried with its first phase pushed past the next finishing job. Returns
    (makespan, phases_per_job) with phases in input-job order.
    """
    for job in jobs:
        if job["basement_day"] != int(job["basement_day"]):
            raise ValueError("oracle needs integer arrival days")
        if job["panel_day"] != int(job["panel_day"]):
            raise ValueError("oracle needs integer arrival days")
    for spec in type_specs.values():
        for _, dur in spec:
            if dur != int(dur):
                raise ValueError("oracle needs integer durations")

    horizon = 1 + int(max((j["basement_day"] for j in jobs), default=0)) \
        + int(max((j["panel_day"] for j in jobs), default=0)) \
        + sum(int(d) for j in jobs for _, d in type_specs[j["machine_type"]])

    cat_busy = {"M": [], "E": [], "R": []}   # lists of (start, end)
    windows = []                             # job busy spans (start, end)
    placed = {}

    def cell_load(intervals, cell):
        return sum(1 for a, b in intervals if a <= cell < b)

    def fits(category, start, dur):
        return all(cell_load(cat_busy[category], c) < capacities[category]
                   for c in _cells(start, start + dur))

    def earliest(category, floor, dur):
        t = int(floor)
        while t <= horizon:
            if fits(category, t, dur):
                return t
            t += 1
        raise RuntimeError("oracle horizon too small")

    for j in permutation:
        job = jobs[j]
        spec = type_specs[job["machine_type"]]
        first_m = next((k for k, (c, _) in enumerate(spec) if c == "M"), None)
        first_e = next((k for k, (c, _) in enumerate(spec) if c == "E"), None)
        base = 0
        while True:
            spans = []
            prev_end = base
            for k, (category, dur) in enumerate(spec):
                floor = prev_end
                if k == first_m:
                    floor = max(floor, int(job["basement_day"]))
                if k == first_e:
                    floor = max(floor, int(job["panel_day"]))
                start = earliest(category, floor, int(dur))
                spans.append((category, start, start + int(dur)))
                prev_end = start + int(dur)
            w_start, w_end = spans[0][1], spans[-1][2]
            crowded = any(
                cell_load(windows, c) >= assembly_areas
                for c in _cells(w_start, w_end))
            if not crowded:
                break
            later_ends = sorted(b for a, b in windows if b > w_start)
            if not later_ends:
                raise RuntimeError("area retry with no window to wait for")
            base = later_ends[0]
        placed[j] = spans
        windows.append((spans[0][1], spans[-1][2]))
        for category, a, b in spans:
            cat_busy[category].append((a, b))

    phases = [placed[j] for j in range(len(jobs))]
    deliveries = [spans[-1][2] + transport_days for spans in phases]
    return (max(deliveries, default=0.0), phases)


# scheduling oracle: event sweep over every placed interval ----------------

def _earliest_slot(intervals, cap, ready, dur):
    """Earliest t >= ready such that fewer than ``cap`` of the half-open
    ``intervals`` cover every instant of [t, t + dur)."""
    events = {}
    for s, e in intervals:
        if e <= ready:
            continue
        s = max(s, ready)
        events[s] = events.get(s, 0) + 1
        events[e] = events.get(e, 0) - 1
    candidate = ready
    usage = 0
    for t in sorted(events):
        if usage >= cap:
            candidate = t
        elif t >= candidate + dur:
            return candidate
        usage += events[t]
    return candidate


def _window_peak(windows, start, end):
    """Maximum number of half-open ``windows`` covering an instant of
    [start, end)."""
    events = {}
    for s, e in windows:
        s2, e2 = max(s, start), min(e, end)
        if e2 <= s2:
            continue
        events[s2] = events.get(s2, 0) + 1
        events[e2] = events.get(e2, 0) - 1
    usage = peak = 0
    for t in sorted(events):
        usage += events[t]
        if usage > peak:
            peak = usage
    return peak


def sweep_schedule_oracle(instance, permutation):
    """Serial list scheduling with float times, re-sweeping every placed
    interval for each query; same placement rule as
    ``decode_list_schedule``. Returns (phases_per_job, deliveries) in
    input-job order."""
    cat_intervals = {"M": [], "E": [], "R": []}
    job_windows = []
    placed = {}
    for j in permutation:
        job = instance.jobs[j]
        phases = instance.type_specs[job.machine_type]
        first_m = next((k for k, (c, _) in enumerate(phases) if c == "M"), None)
        first_e = next((k for k, (c, _) in enumerate(phases) if c == "E"), None)
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
                start = _earliest_slot(cat_intervals[category],
                                       instance.capacities[category], lo, dur)
                spans.append((category, start, start + dur))
                prev_end = start + dur
            window = (spans[0][1], spans[-1][2])
            if _window_peak(job_windows, *window) < instance.assembly_areas:
                break
            releases = [e for _, e in job_windows if e > window[0]]
            if not releases:
                raise RuntimeError("area overflow with no pending release")
            push = min(releases)
        for category, start, end in spans:
            cat_intervals[category].append((start, end))
        job_windows.append(window)
        placed[j] = spans
    phases = [placed[j] for j in range(len(instance.jobs))]
    return phases, [spans[-1][2] + instance.transport_days for spans in phases]


# make-or-buy oracle: one tape method call per draw -----------------------

class _UniformTape:
    """Block-buffered uniform draws with a fixed consumption order."""

    def __init__(self, rng, block: int = 1024):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block)
        self._i = 0

    def draw(self, lo: float, hi: float) -> float:
        if self._i >= len(self._buf):
            self._buf = self._rng.random(self._block)
            self._i = 0
        u = self._buf[self._i]
        self._i += 1
        return lo + (hi - lo) * float(u)


def simulate_oracle(orders, decisions, params, seed):
    """Run the supply chain once for a full decision vector, drawing every
    truck, load, unload and assembly time through a method call on the tape
    and scanning arrivals with ``np.searchsorted``; the reference that pins
    the draw order of ``makeorbuy.simulate``.

    ``decisions[i]`` is 0 (MAKE) or 1 (BUY) for orders[i]. Internal orders
    complete when plant D finishes assembling them; an order is on time iff
    its completion day is <= its deadline day. Outsourced orders complete on
    their deadline. Draw order is fixed (production blocks for A, B, C, then
    truck legs/loads/unloads as the cycle unfolds, then assembly in service
    order), so a seed fully determines the outcome.
    """
    n = len(orders)
    if len(decisions) != n:
        raise ValueError("need exactly one decision per order")
    decisions = [int(d) for d in decisions]
    if any(d not in (MAKE, BUY) for d in decisions):
        raise ValueError("decisions must be 0 (MAKE) or 1 (BUY)")
    rng = np.random.default_rng(seed)
    internal = [i for i in range(n) if decisions[i] == MAKE]

    comp_qty = {
        "a": [orders[i].qty_a for i in internal],
        "b": [orders[i].qty_b for i in internal],
        "c": [orders[i].qty_c for i in internal],
    }
    ranges = {"a": params.production_a, "b": params.production_b,
              "c": params.production_c}
    done_times = {}
    need_cum = {}
    for comp in ("a", "b", "c"):
        total = int(sum(comp_qty[comp]))
        lo, hi = ranges[comp]
        done_times[comp] = np.cumsum(rng.uniform(lo, hi, total))
        need_cum[comp] = np.cumsum(comp_qty[comp])
    total_units = sum(len(done_times[comp]) for comp in ("a", "b", "c"))

    tape = _UniformTape(rng)
    arrive_t = {comp: [] for comp in ("a", "b", "c")}
    arrive_cum = {comp: [] for comp in ("a", "b", "c")}
    if total_units:
        picked = {comp: 0 for comp in ("a", "b", "c")}
        shipped = {comp: 0 for comp in ("a", "b", "c")}
        onboard = {comp: 0 for comp in ("a", "b", "c")}
        delivered = 0
        t = 0.0
        while delivered < total_units:
            for comp in ("a", "b", "c"):
                t += tape.draw(*params.travel)
                done = done_times[comp]
                k = picked[comp]
                while k < len(done) and done[k] <= t:
                    k += 1
                ready = k - picked[comp]
                if ready:  # empty stops are skipped with zero dwell
                    t += tape.draw(*params.load)
                    picked[comp] = k
                    onboard[comp] += ready
            t += tape.draw(*params.travel)
            if any(onboard.values()):
                t += tape.draw(*params.unload)
                for comp in ("a", "b", "c"):
                    if onboard[comp]:
                        shipped[comp] += onboard[comp]
                        arrive_t[comp].append(t)
                        arrive_cum[comp].append(shipped[comp])
                        delivered += onboard[comp]
                        onboard[comp] = 0

    ready_day = []
    for pos in range(len(internal)):
        r = 0.0
        for comp in ("a", "b", "c"):
            req = need_cum[comp][pos] if len(need_cum[comp]) else 0
            if comp_qty[comp][pos] == 0 or req == 0:
                continue
            idx = int(np.searchsorted(arrive_cum[comp], req, side="left"))
            r = max(r, arrive_t[comp][idx])
        ready_day.append(r)

    completion = [0.0] * n
    server = 0.0
    for pos in sorted(range(len(internal)), key=lambda p: (ready_day[p], p)):
        start = max(server, ready_day[pos])
        server = start + tape.draw(*params.assembly)
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


# policy-step oracle: numpy scalars over ndarray observations ---------------

class NdarrayObsEnv:
    """Wraps an environment so that every observation is a fresh float
    ndarray: for ``HfsEnv`` and ``MakeOrBuyEnv`` rebuilt from the job or
    order, as their ``_obs`` did before they served rows of floats, and for
    any other environment converted from the row it serves."""

    def __init__(self, env):
        self.env = env
        self.spec = env.spec
        self.objective_scale = env.objective_scale
        self._i = 0

    def _obs(self, i, row) -> np.ndarray:
        env = self.env
        if isinstance(env, HfsEnv):
            code = {name: i for i, name in enumerate(env.type_names)}
            job = env.instance.jobs[i]
            return np.array([code[job.machine_type], job.due_day,
                             job.basement_day, job.panel_day], dtype=float)
        if isinstance(env, MakeOrBuyEnv):
            o = env.orders[i]
            return np.array([o.qty_a, o.qty_b, o.qty_c, o.deadline_day], dtype=float)
        return np.array(row, dtype=float)

    def reset(self, seed=None) -> np.ndarray:
        self._i = 0
        return self._obs(0, self.env.reset(seed))

    def step(self, action):
        row, reward, done = self.env.step(action)
        self._i += 1
        if done:
            return np.zeros(len(self.spec.features)), reward, True
        return self._obs(self._i, row), reward, False


def _condition_test_oracle(condition, obs) -> bool:
    if condition.op == NUMERIC_GT:
        return bool(obs[condition.feature] > condition.value)
    return bool(obs[condition.feature] == condition.value)


def traverse_oracle(tree, obs):
    node = tree.root
    while isinstance(node, Split):
        node = node.yes if _condition_test_oracle(node.condition, obs) else node.no
    node.visits += 1
    return node


def epsilon_greedy_oracle(leaf, epsilon, rng) -> int:
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, len(leaf.q)))
    return int(np.argmax(leaf.q))


def q_update_oracle(leaf, action, reward, max_next_q, alpha, gamma) -> float:
    new = (1.0 - alpha) * leaf.q[action] + alpha * (reward + gamma * max_next_q)
    leaf.q[action] = new
    return float(new)


def run_episode_oracle(env, tree, learning, rng, seed=None) -> float:
    """``envs.run_episode`` with every step on numpy: ``np.argmax``/``np.max``
    over the leaf's Q-array, comparisons on numpy scalars and a Q-update in
    float64 scalars. Wrap ``env`` in ``NdarrayObsEnv`` for the observations
    environments served as ndarrays."""
    alpha, gamma, eps = learning.alpha, learning.gamma, learning.epsilon
    learn = alpha != 0.0
    obs = env.reset(seed)
    leaf = traverse_oracle(tree, obs)
    total = 0.0
    for _ in range(env.spec.episode_len):
        action = epsilon_greedy_oracle(leaf, eps, rng)
        obs, reward, done = env.step(action)
        total += reward
        if done:
            if learn:
                q_update_oracle(leaf, action, reward, 0.0, alpha, gamma)
            break
        nxt = traverse_oracle(tree, obs)
        if learn:
            q_update_oracle(leaf, action, reward, float(np.max(nxt.q)), alpha, gamma)
        leaf = nxt
    return total


def read_only_episode_oracle(env, tree, seed=None) -> float:
    """A read-only episode (no learning, no exploration) one step at a time:
    each observation's leaf acts through ``env.step`` until the episode
    ends. Returns the sum of the step rewards."""
    obs = env.reset(seed)
    total, done = 0.0, False
    while not done:
        obs, reward, done = env.step(tree.traverse(obs).action)
        total += reward
    return total


# rank-sum oracle: direct labeling enumeration ------------------------------

def ranksum_p_oracle(a, b):
    """Exact two-sided rank-sum p by enumerating every group labeling.

    Uses Fractions over midranks (scaled to integers) so ties are exact.
    Returns (U of sample a, p).
    """
    pooled = sorted(list(a) + list(b))
    n, m = len(a), len(b)
    ranks = {}
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j] == pooled[i]:
            j += 1
        mid = Fraction(i + 1 + j, 2)
        for k in range(i, j):
            ranks.setdefault(pooled[i], mid)
        i = j

    def rank_sum(sample):
        return sum((ranks[v] for v in sample), Fraction(0))

    w_obs = rank_sum(a)
    mu = Fraction(n * (n + m + 1), 2)
    dev_obs = abs(w_obs - mu)
    pooled_vals = list(a) + list(b)
    total = 0
    hits = 0
    for combo in itertools.combinations(range(n + m), n):
        total += 1
        w = sum((ranks[pooled_vals[i]] for i in combo), Fraction(0))
        if abs(w - mu) >= dev_obs:
            hits += 1
    u = float(w_obs - Fraction(n * (n + 1), 2))
    return u, hits / total


# binomial / frequency helpers ----------------------------------------------

def binom_interval(n, p, coverage=0.999):
    """Central coverage interval of Binomial(n, p) by direct CDF walk."""
    tail = (1 - coverage) / 2
    logs = []
    log_p, log_q = math.log(p), math.log1p(-p)
    lgn = math.lgamma(n + 1)
    for k in range(n + 1):
        logs.append(lgn - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * log_p + (n - k) * log_q)
    probs = [math.exp(v) for v in logs]
    acc = 0.0
    lo = 0
    for k, pr in enumerate(probs):
        acc += pr
        if acc > tail:
            lo = k
            break
    acc = 0.0
    hi = n
    for k in range(n, -1, -1):
        acc += probs[k]
        if acc > tail:
            hi = k
            break
    return lo, hi
