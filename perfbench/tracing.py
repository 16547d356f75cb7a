"""Spans around the public functions of each evoscm layer, recorded from the
benchmark's own files.

``Tracer.install`` replaces each traced function at the module attributes
where callers look it up, with a wrapper that records a span (layer, name,
parent, start, end). ``Tracer.restore`` puts every original back. Nothing
under ``src/`` knows about tracing, and the untraced run never installs it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

# (layer, function, modules whose attribute callers look it up through)
SITES = (
    ("flowshop", "decode_list_schedule",
     ("evoscm.flowshop", "evoscm.bench", "evoscm.baselines")),
    ("makeorbuy", "simulate", ("evoscm.makeorbuy", "evoscm.bench")),
    ("envs", "run_episode", ("evoscm.envs",)),
    ("envs", "evaluate_fitness", ("evoscm.evolve", "evoscm.baselines")),
    ("envs", "greedy_rollout", ("evoscm.evolve", "evoscm.baselines")),
    ("grammar", "decode", ("evoscm.evolve",)),
    ("evolve", "run_eldt", ("evoscm.bench",)),
    ("evolve", "replace_steady_state", ("evoscm.evolve",)),
    ("baselines", "gp_evolve", ("evoscm.bench",)),
    ("baselines", "subtree_crossover", ("evoscm.baselines",)),
    ("baselines", "subtree_mutation", ("evoscm.baselines",)),
    ("bench", "run_experiment", ("evoscm.cli",)),
    ("bench", "write_artifacts", ("evoscm.bench",)),
) + tuple(("datagen", f"{verb}_{problem}", ("evoscm.datagen",))
          for verb in ("gen", "save", "load") for problem in ("hfs", "makeorbuy"))


class Span:
    __slots__ = ("layer", "name", "parent", "thread", "t0", "t1", "error", "info")

    def __init__(self, layer, name, parent, thread, t0):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.thread = thread
        self.t0 = t0
        self.t1 = t0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self, ids: dict) -> dict:
        return {"id": ids[id(self)], "parent": ids.get(id(self.parent)),
                "layer": self.layer, "name": self.name, "thread": self.thread,
                "t0": self.t0, "t1": self.t1, "error": self.error,
                "info": self.info}


def _observe(name, args, result):
    """The per-call fact a layer metric needs, taken after the span closes."""
    if name == "decode_list_schedule":
        return hash(tuple(int(p) for p in args[1]))
    if name == "run_episode":
        return args[0].spec.episode_len
    if name == "decode":
        return len(result.leaves())
    return None


class Tracer:
    """Spans are kept in memory, one open-span stack per thread. A span
    opened on a thread with an empty stack (a campaign worker) takes as its
    parent the innermost open span of the thread that installed the tracer."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._saved = []
        self._main_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span = Span(layer, name, parent, threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            span.info = _observe(name, args, result)
            return result

        return wrapper

    def install(self):
        self._main_stack = self._stack()
        wrappers = {}
        for layer, name, modules in SITES:
            for modname in modules:
                module = importlib.import_module(modname)
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(layer, name, original)
                self._saved.append((module, name, original))
                setattr(module, name, wrappers[id(original)])

    def restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _covered(span, children) -> float:
    """Length of the part of ``span`` that the children's intervals cover."""
    total = 0.0
    end = span.t0
    for c in sorted(children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def self_time(span, children) -> float:
    """The layer's own time in ``span``: its duration minus the part covered
    by child spans of other layers (a same-layer child is the layer's work)."""
    return span.duration - _covered(span, [c for c in children if c.layer != span.layer])


def percentile(values, p) -> float:
    """The p-th percentile (0 < p < 100, in steps of 0.1) by
    ``statistics.quantiles``; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced campaign (plus its traced set-up)."""
    children, by_name = {}, {}
    for s in spans:
        children.setdefault(id(s.parent), []).append(s)
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def kids(s):
        return children.get(id(s), [])

    m = {}
    for layer, fn in (("flowshop", "decode_list_schedule"), ("makeorbuy", "simulate")):
        calls = named(fn)
        ms = [s.duration * 1e3 for s in calls]
        m[f"{layer}.calls"] = len(calls)
        m[f"{layer}.busy_s"] = sum(s.duration for s in calls)
        m[f"{layer}.call_ms_p50"] = percentile(ms, 50)
        m[f"{layer}.call_ms_p95"] = percentile(ms, 95)
    decodes = named("decode_list_schedule")
    m["flowshop.distinct_ratio"] = (len({s.info for s in decodes}) / len(decodes)
                                    if decodes else 0.0)

    episodes = named("run_episode")
    ep_ms = [s.duration * 1e3 for s in episodes]
    policy_self = sum(self_time(s, kids(s)) for s in episodes)
    steps = sum(s.info for s in episodes if s.info)
    m["envs.episodes"] = len(episodes)
    m["envs.episode_ms_p50"] = percentile(ep_ms, 50)
    m["envs.episode_ms_p95"] = percentile(ep_ms, 95)
    m["envs.policy_self_s"] = policy_self
    m["envs.policy_step_us"] = policy_self / steps * 1e6 if steps else 0.0
    m["envs.rollout_s"] = sum(s.duration for s in named("greedy_rollout"))

    derivations = named("decode")
    leaves = [s.info for s in derivations if s.error is None]
    m["grammar.calls"] = len(derivations)
    m["grammar.busy_s"] = sum(s.duration for s in derivations)
    m["grammar.fail_ratio"] = (sum(s.error == "IncompleteDerivation" for s in derivations)
                               / len(derivations) if derivations else 0.0)
    m["grammar.leaves_mean"] = sum(leaves) / len(leaves) if leaves else 0.0

    m["evolve.self_s"] = sum(self_time(s, kids(s)) for s in named("run_eldt"))
    m["evolve.generations"] = len(named("replace_steady_state"))
    m["baselines.self_s"] = sum(self_time(s, kids(s)) for s in named("gp_evolve"))
    m["baselines.variations"] = len(named("subtree_crossover", "subtree_mutation"))

    loads = named("load_hfs", "load_makeorbuy")
    m["bench.load_s"] = sum(s.duration for s in loads
                            if s.parent is not None and s.parent.name == "run_experiment")
    m["bench.artifacts_s"] = sum(s.duration for s in named("write_artifacts"))
    m["datagen.busy_s"] = sum(s.duration for s in spans
                              if s.layer == "datagen" and s.parent is None)
    return m


# Metrics that count work rather than time it: fixed by the campaign's seed.
DETERMINISTIC = (
    "flowshop.calls", "flowshop.distinct_ratio", "makeorbuy.calls",
    "envs.episodes", "grammar.calls", "grammar.fail_ratio",
    "grammar.leaves_mean", "evolve.generations", "baselines.variations",
)
