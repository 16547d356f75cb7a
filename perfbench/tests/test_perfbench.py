"""The benchmark's own tests, at tiny budgets:

    python3 -m pytest -q perfbench/tests
"""

import csv
import importlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "hfs-eldt": replace(workloads.WORKLOADS["hfs-eldt"], name="tiny-hfs-eldt", n=20, budget=40),
    "mob-eldt": replace(workloads.WORKLOADS["mob-eldt"], name="tiny-mob-eldt", n=20, budget=99,
                        seeds=2),
    "hfs-gp-campaign": replace(workloads.WORKLOADS["hfs-gp-campaign"], name="tiny-hfs-gp",
                               n=20, budget=35),
}


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert listed == {n: workloads.WORKLOADS[n].why for n in listed}
    assert set(run.END_TO_END) == {"campaign_s", "episodes_per_s", "setup_s",
                                   "peak_rss_mb", "quality", "fail_ratio"}
    assert declared("end_to_end") == {m: run.END_TO_END[m] for m in run.RESULT_END_TO_END}
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = run.run(TINY[name], seed=0, seconds=0, trace=trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in record["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared(
        "per_layer" if trace else "end_to_end")
    values = {k: m["value"] for k, m in record["metrics"].items()}
    if not trace:
        assert values["fail_ratio"] == 0 and 0 < values["quality"] <= 1
        return
    hfs = TINY[name].problem == "hfs"
    assert (values["flowshop.calls"] > 0) == hfs
    assert (values["makeorbuy.calls"] > 0) != hfs
    assert (values["baselines.variations"] > 0) == (TINY[name].algo == "gp")
    assert (values["evolve.generations"] > 0) == (TINY[name].algo == "eldt")
    assert values["envs.episodes"] == TINY[name].budget * TINY[name].runs


def _edit_csv(path: Path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = "".join(ln for ln in lines if ln.startswith("#"))
    rows = edit(list(csv.reader(ln for ln in lines if not ln.startswith("#"))))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(head + buf.getvalue(), encoding="utf-8")


def _set(row: int, col: int, fn):
    def edit(rows):
        rows[row][col] = fn(rows[row][col])
        return rows
    return edit


TAMPERS = {
    "run dropped": ("finals.csv", lambda rows: rows[:-1]),
    "episodes short": ("finals.csv", _set(1, 4, lambda v: str(int(v) - 1))),
    "final off history": ("finals.csv", _set(1, 3, lambda v: repr(float(v) + 1.0))),
    "makespan below bound": ("finals.csv", _set(1, 3, lambda v: "1.0")),
    "history not monotone": ("history.csv", _set(2, 4, lambda v: repr(float(v) + 50.0))),
}


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_tampered_artifacts_raise_fail_ratio(tamper, monkeypatch):
    filename, edit = TAMPERS[tamper]
    check = workloads.check_outputs

    def tampered(wl, dataset, out_dir, camp):
        _edit_csv(Path(out_dir) / filename, edit)
        check(wl, dataset, out_dir, camp)

    monkeypatch.setattr(workloads, "check_outputs", tampered)
    values, _, campaigns, _ = run.measure_end_to_end(TINY["hfs-gp-campaign"], 0, 0)
    assert values["fail_ratio"] == 1.0
    assert all(c.problems for c in campaigns)


def test_a_repeat_with_other_bytes_fails_the_digest_check(monkeypatch):
    check = workloads.check_outputs
    calls = []

    def second_differs(wl, dataset, out_dir, camp):
        calls.append(out_dir)
        if len(calls) == 2:
            path = Path(out_dir) / "history.csv"
            path.write_text("# edited\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        check(wl, dataset, out_dir, camp)

    monkeypatch.setattr(workloads, "check_outputs", second_differs)
    values, _, campaigns, _ = run.measure_end_to_end(TINY["hfs-eldt"], 0, 0)
    assert [bool(c.problems) for c in campaigns] == [False, True, False]
    assert values["fail_ratio"] == pytest.approx(1 / 3)


def test_a_run_cycles_through_its_campaign_seeds():
    wl = TINY["mob-eldt"]
    values, _, campaigns, digest = run.measure_end_to_end(wl, 3, 0)
    assert wl.campaign_seeds(3) == [6, 7] and list(digest) == ["6", "7"]
    assert len(campaigns) == run.MIN_REPEATS * wl.seeds
    assert not any(c.problems for c in campaigns)
    assert digest["6"] != digest["7"]  # each seed's repeats matched each other, not the other seed
    assert values["episodes_per_s"] == pytest.approx(wl.budget / values["campaign_s"])


def test_a_crashing_campaign_is_a_failed_campaign(monkeypatch):
    def crash(argv):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(workloads, "cli_main", crash)
    camp = workloads.run_campaign(TINY["hfs-eldt"], 0, "unused.csv", "perfbench/out/work/crash")
    assert camp.failed and camp.exit_code == "RuntimeError"
    assert "simulated crash" in camp.problems[0]


def _sites():
    return {(mod, name): getattr(importlib.import_module(mod), name)
            for _, name, mods in tracing.SITES for mod in mods}


def test_traced_run_restores_every_wrapped_attribute():
    import evoscm.flowshop

    decode = evoscm.flowshop.decode_list_schedule
    originals = _sites()
    record = run.run(TINY["hfs-eldt"], seed=0, seconds=0, trace=True)
    assert record["metrics"]["flowshop.calls"]["value"] > 0  # the wrappers were live
    assert record["timings"]["sites_missing"] == []
    assert evoscm.flowshop.decode_list_schedule is decode
    assert all(fn is originals[site] for site, fn in _sites().items())

    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert evoscm.flowshop.decode_list_schedule is not decode
            1 / 0
    assert all(fn is originals[site] for site, fn in _sites().items())


def test_worker_thread_spans_nest_under_their_own_thread():
    wl = TINY["hfs-gp-campaign"]
    dataset = "perfbench/out/work/tiny-threads.csv"
    Path(dataset).parent.mkdir(parents=True, exist_ok=True)
    assert workloads.cli_main(workloads.datagen_argv(wl, dataset)) == 0
    with tracing.Tracer() as tracer:
        camp = workloads.run_campaign(wl, 0, dataset, "perfbench/out/work/tiny-threads")
    assert not camp.problems
    (root,) = [s for s in tracer.spans if s.name == "run_experiment"]
    runs = [s for s in tracer.spans if s.name == "gp_evolve"]
    assert len(runs) == wl.runs and all(s.parent is root for s in runs)
    assert len({s.thread for s in runs}) == wl.workers
    for s in tracer.spans:
        if s.name == "decode_list_schedule" and s.parent.name == "run_episode":
            anc = s
            while anc.name != "gp_evolve":
                assert anc.thread == s.thread
                anc = anc.parent


def test_self_time_subtracts_the_union_of_other_layer_children():
    parent = tracing.Span("bench", "run_experiment", None, 1, 0.0)
    parent.t1 = 10.0
    kids = []
    for layer, t0, t1 in (("baselines", 1.0, 6.0), ("baselines", 4.0, 9.0),
                          ("bench", 9.0, 9.5), ("baselines", 9.8, 11.0)):
        span = tracing.Span(layer, "x", parent, 2, t0)
        span.t1 = t1
        kids.append(span)
    assert tracing.self_time(parent, kids) == pytest.approx(10.0 - 8.0 - 0.2)


@pytest.mark.parametrize("n, p", [(12, None), (20, 50), (40, 75), (100, 90), (200, 95)])
def test_timing_reports_the_highest_percentile_with_ten_samples_beyond(n, p):
    t = run.timing([float(i) for i in range(n)])
    assert t["n"] == n and t["median"] == (n - 1) / 2
    assert (t["tail"] and t["tail"]["p"]) == p
