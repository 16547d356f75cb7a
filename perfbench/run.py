"""Benchmark of evoscm campaigns: end-to-end metrics untraced, per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload hfs-eldt --seed 0 --seconds 55 --trace 0

Run from any directory; it works in the checkout that holds this file and
builds nothing. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones. Human-readable lines come first, then the result as one
JSON object on the last line of standard output; the full record (metadata,
percentiles, checks, digests) goes to ``perfbench/out/``. Exits 2 without a
result when the evoscm sources are not under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"  # relative to ROOT: dataset paths land in artifact headers

MIN_CAMPAIGNS = 3  # untraced campaigns per run, even past --seconds
MIN_REPEATS = 2  # untraced campaigns per campaign seed, even past --seconds

END_TO_END = {
    "campaign_s": "s",
    "episodes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
    "fail_ratio": "ratio",
}
# fail_ratio is 0 whenever the program is right, so the result line carries
# it as the contract's ``attempted``/``failed`` counts instead.
RESULT_END_TO_END = tuple(m for m in END_TO_END if m != "fail_ratio")

PER_LAYER = {
    "flowshop.calls": "count",
    "flowshop.busy_s": "s",
    "flowshop.call_ms_p50": "ms",
    "flowshop.call_ms_p95": "ms",
    "flowshop.distinct_ratio": "ratio",
    **{f"flowshop.probe_ms.{v}.n{n}": "ms" for v in ("d1", "d4") for n in (50, 100, 200, 400)},
    "makeorbuy.calls": "count",
    "makeorbuy.busy_s": "s",
    "makeorbuy.call_ms_p50": "ms",
    "makeorbuy.call_ms_p95": "ms",
    "envs.episodes": "count",
    "envs.episode_ms_p50": "ms",
    "envs.episode_ms_p95": "ms",
    "envs.policy_self_s": "s",
    "envs.policy_step_us": "us",
    "envs.rollout_s": "s",
    "grammar.calls": "count",
    "grammar.busy_s": "s",
    "grammar.fail_ratio": "ratio",
    "grammar.leaves_mean": "count",
    "evolve.self_s": "s",
    "evolve.generations": "count",
    "baselines.self_s": "s",
    "baselines.variations": "count",
    "bench.load_s": "s",
    "bench.artifacts_s": "s",
    "bench.cpu_per_wall": "ratio",
    "datagen.busy_s": "s",
    "trace_overhead_ratio": "ratio",
}


def timing(samples: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (None when there are fewer than twenty samples), the count and the
    samples."""
    tail = None
    for p in (99.9, 99, 95, 90, 75, 50):
        # round() so that 100 samples count 10 beyond p90 despite float error
        if round(len(samples) * (100 - p) / 100, 6) >= 10:
            tail = {"p": p, "value": tracing.percentile(samples, p)}
            break
    return {"median": statistics.median(samples), "n": len(samples), "tail": tail,
            "samples": samples}


def metadata(wl, load1: float) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg_1m": load1, "workload": asdict(wl)}


def workdir(wl, seed: int) -> tuple:
    """The run's working directory and dataset path, relative to the checkout
    so that artifact headers, and hence digests, are the same in any checkout."""
    work = OUT / "work" / f"{wl.name}-s{seed}"
    work.mkdir(parents=True, exist_ok=True)
    return work, (work / "dataset.csv").as_posix()


def fresh_setup(wl, dataset: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), json.dumps(asdict(wl)), dataset],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def repeat(fn, deadline: float, minimum: int) -> list:
    """Call ``fn(i)`` for i = 0, 1, ... at least ``minimum`` times, then again
    while one more call is expected to end by ``deadline``."""
    done, walls = [], []
    while True:
        if len(done) >= minimum and time.perf_counter() + statistics.median(walls) > deadline:
            return done
        t0 = time.perf_counter()
        done.append(fn(len(done)))
        walls.append(time.perf_counter() - t0)


def mark_digests(campaigns: list):
    """Repeats of one campaign must write byte-identical finals and history."""
    digests = [c.digest for c in campaigns if c.digest]
    if not digests:
        return None
    for c in campaigns:
        if c.digest and c.digest != digests[0]:
            c.problems.append(f"digest {c.digest[:12]} differs from first repeat {digests[0][:12]}")
    return digests[0]


def measure_end_to_end(wl, seed: int, seconds: float) -> tuple:
    import workloads

    start = time.perf_counter()
    work, dataset = workdir(wl, seed)
    seeds = wl.campaign_seeds(seed)
    setups = [fresh_setup(wl, dataset)]

    def setup_and_campaign(i):
        # One more set-up per campaign spreads the set-up samples over the
        # run, as the campaigns are, instead of bunching them at its start.
        setups.append(fresh_setup(wl, dataset))
        return workloads.run_campaign(wl, seeds[i % len(seeds)], dataset,
                                      (work / "campaign").as_posix())

    campaigns = repeat(setup_and_campaign, start + seconds,
                       max(MIN_CAMPAIGNS, MIN_REPEATS * len(seeds)))
    # Campaign i ran seed seeds[i % len(seeds)].
    by_seed = {s: campaigns[j::len(seeds)] for j, s in enumerate(seeds)}
    digest = {str(s): mark_digests(group) for s, group in by_seed.items()}
    ok = [c for c in campaigns if not c.failed]
    firsts = [next((c for c in group if not c.failed), None) for group in by_seed.values()]
    finals = [v for c in firsts if c is not None for v in c.finals]
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    walls = [c.wall_s for c in campaigns]
    # Each seed's median campaign, averaged over the seeds: a seed's trees
    # decide how much simulation its campaign does.
    campaign_s = statistics.fmean(statistics.median(c.wall_s for c in group)
                                  for group in by_seed.values())
    values = {
        "campaign_s": campaign_s,
        "episodes_per_s": ok[0].episodes / campaign_s if ok else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
        "quality": workloads.quality(wl, dataset, finals) if finals else 0.0,
        "fail_ratio": (len(campaigns) - len(ok)) / len(campaigns),
    }
    details = {"campaign_s": timing(walls), "setup_s": timing(setups)}
    return values, details, campaigns, digest


def measure_per_layer(wl, seed: int, seconds: float) -> tuple:
    import probe
    import workloads

    start = time.perf_counter()
    work, dataset = workdir(wl, seed)
    out_dir = (work / "campaign").as_posix()
    seed0 = wl.campaign_seeds(seed)[0]  # the traced run repeats one campaign seed
    with tracing.Tracer() as setup_trace:
        code = workloads.cli_main(workloads.datagen_argv(wl, dataset))
        if code != 0:
            raise RuntimeError(f"bench datagen exited with {code}")
        workloads.load_dataset(wl, dataset)
    values = probe.probe_decode(seed)
    untraced, traced, per_campaign, spans = [], [], [], []

    def pair(_):
        untraced.append(workloads.run_campaign(wl, seed0, dataset, out_dir))
        with tracing.Tracer() as tracer:
            traced.append(workloads.run_campaign(wl, seed0, dataset, out_dir))
        per_campaign.append(tracing.layer_metrics(setup_trace.spans + tracer.spans))
        spans.append(tracer.spans)
        return tracer.missing

    missing = repeat(pair, start + seconds, 1)[0]
    campaigns = untraced + traced
    digest = {str(seed0): mark_digests(campaigns)}
    for name in per_campaign[0]:
        seen = [m[name] for m in per_campaign]
        if name not in tracing.DETERMINISTIC:
            values[name] = statistics.median(seen)
            continue
        values[name] = seen[0]
        if len(set(seen)) > 1:
            traced[-1].problems.append(f"{name} differs between traced repeats: {seen}")
    values["bench.cpu_per_wall"] = statistics.median(c.cpu_s / c.wall_s for c in untraced)
    plain = statistics.median(c.wall_s for c in untraced)
    values["trace_overhead_ratio"] = statistics.median(c.wall_s for c in traced) / plain - 1
    details = {"untraced_campaign_s": timing([c.wall_s for c in untraced]),
               "traced_campaign_s": timing([c.wall_s for c in traced]),
               "sites_missing": setup_trace.missing + missing}
    _write_spans(OUT / f"spans-{wl.name}-s{seed}.jsonl", setup_trace.spans, spans)
    return values, details, campaigns, digest


def _write_spans(path: Path, setup_spans: list, campaigns: list):
    with open(path, "w", encoding="utf-8") as fh:
        for index, spans in enumerate([setup_spans] + campaigns):
            ids = {id(s): i for i, s in enumerate(spans)}
            for s in spans:
                fh.write(json.dumps({"campaign": index - 1 if index else None,
                                     **s.as_dict(ids)}) + "\n")


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the full record, including the result line."""
    load1 = os.getloadavg()[0]
    measure = measure_per_layer if trace else measure_end_to_end
    values, details, campaigns, digest = measure(wl, seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    reported = tuple(PER_LAYER) if trace else RESULT_END_TO_END
    failed = sum(c.failed for c in campaigns)
    baselines = json.loads((HERE / "baseline_digests.json").read_text(encoding="utf-8"))
    known = baselines.get(wl.name, {})
    baseline = {s: known.get(s) for s in digest}
    return {
        "meta": metadata(wl, load1),
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "timings": details,
        "campaigns": [{"exit_code": c.exit_code, "wall_s": c.wall_s,
                       "problems": c.problems} for c in campaigns],
        "digest": digest,
        "baseline_digest": baseline,
        "result": {
            "correct": failed == 0,
            "attempted": len(campaigns),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in reported},
        },
    }


def report(record: dict, result_path: Path) -> str:
    meta, wl = record["meta"], record["meta"]["workload"]
    lines = [f"# evoscm benchmark: workload={wl['name']} seed={record['seed']} "
             f"trace={record['trace']}",
             f"# why: {wl['why']}",
             f"# meta: {json.dumps({k: v for k, v in meta.items() if k != 'workload'})}"]
    for name, m in record["metrics"].items():
        lines.append(f"{name:32s} {m['value']:<14.6g} {m['unit']}")
    for name, t in record["timings"].items():
        if name == "sites_missing":
            if t:
                lines.append(f"# tracing found no attribute at: {', '.join(t)}")
            continue
        tail = (f"p{t['tail']['p']:g} = {t['tail']['value']:.6g} s" if t["tail"]
                else "no percentile has 10 samples beyond it")
        lines.append(f"# {name}: median {t['median']:.6g} s of {t['n']} samples; {tail}")
    for c in record["campaigns"]:
        for problem in c["problems"]:
            lines.append(f"# check failed: {problem}")
    for s, digest in record["digest"].items():
        base = record["baseline_digest"][s]
        verdict = ("no baseline" if base is None
                   else "matches baseline" if base == digest else "DIFFERS from baseline")
        lines.append(f"# campaign seed {s}: digest {digest} ({verdict})")
    lines.append(f"# full record: {result_path.as_posix()}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evoscm" / "__init__.py").is_file():
        print(f"error: no evoscm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.chdir(ROOT)
    import evoscm
    import workloads

    if Path(evoscm.__file__).resolve().parent != (SRC / "evoscm").resolve():
        print(f"error: imported evoscm from {evoscm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(report(record, path))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
