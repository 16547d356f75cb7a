"""
Benchmark campaigns, artifacts, and statistical comparison
==========================================================

run_experiment executes one algorithm for several independent runs (run i
uses seed base + i), writes diff-able CSV artifacts, and compare_dirs runs
a pairwise Wilcoxon rank-sum test over the final objectives. Everything is
byte-reproducible: rerunning a config, with any worker count, rewrites the
identical files. The same machinery backs the `bench` command line.
"""

import tempfile
from pathlib import Path

from evoscm import (
    ExperimentConfig,
    aggregate,
    compare_dirs,
    gen_hfs,
    run_experiment,
    save_hfs,
    wilcoxon_rank_sum,
)

# The work directory, with every campaign artifact in it, is removed on exit.
with tempfile.TemporaryDirectory(prefix="bench_demo_") as tmp:
    workdir = Path(tmp)
    dataset = workdir / "jobs.csv"
    save_hfs(gen_hfs("d1", 30, seed=7), dataset)
    print(f"working under {workdir}")

    # ----------------------------------------------------------------------
    # 1. Two campaigns on the same dataset and budget.
    run_dirs = []
    for algo in ("rs", "ga"):
        out = workdir / algo
        cfg = ExperimentConfig(problem="hfs", algo=algo, dataset=str(dataset),
                               budget=500, runs=8, seed=0, out_dir=str(out),
                               workers=4)
        records = run_experiment(cfg)
        mean, std = aggregate([r.final_objective for r in records])
        print(f"{algo:3s} final makespan over {len(records)} runs: "
              f"{mean:.2f} +/- {std:.2f}")
        run_dirs.append(str(out))

    print("\nartifacts of the ga campaign:")
    for p in sorted((workdir / "ga").iterdir()):
        print(f"  {p.name} ({p.stat().st_size} bytes)")

    print("\nfirst lines of trend.csv (config header, then per-episode means):")
    for line in (workdir / "ga" / "trend.csv").read_text().splitlines()[:5]:
        print(f"  {line}")

    # ----------------------------------------------------------------------
    # 2. Statistical comparison straight from the artifact directories.
    rows = compare_dirs(run_dirs, out_path=workdir / "comparison.csv")
    print("\npairwise Wilcoxon rank-sum matrix:")
    for a, b, n_a, n_b, u, p in rows:
        flag = "significant at 0.05" if p < 0.05 else "not significant at 0.05"
        print(f"  {a} vs {b} (n={n_a},{n_b}): U={u:g}, p={p:.4f} ({flag})")

    # ----------------------------------------------------------------------
    # 3. The test itself: exact enumeration for small samples, tie-corrected
    #    normal approximation for large ones.
    u, p = wilcoxon_rank_sum([1, 2, 3], [10, 20, 30])
    print(f"\ncomplete separation, 3 vs 3: p = {p} (the smallest reachable value"
          f" is 2/C(6,3) = 0.1)")
    u, p = wilcoxon_rank_sum([5, 5, 5], [5, 5, 5])
    print(f"identical samples:          p = {p}")

    # ----------------------------------------------------------------------
    # 4. Determinism check: run one campaign again into a fresh directory and
    #    compare bytes.
    rerun = workdir / "ga_again"
    run_experiment(ExperimentConfig(problem="hfs", algo="ga", dataset=str(dataset),
                                    budget=500, runs=8, seed=0,
                                    out_dir=str(rerun), workers=1))
    same = all((workdir / "ga" / p.name).read_bytes() == p.read_bytes()
               for p in rerun.iterdir())
    print(f"\nrerun with different worker count byte-identical: {same}")
