"""The ``bench`` command line.

    bench run --problem hfs --algo ga --dataset jobs.csv --budget 5000 \
              --runs 10 --seed 1 --out results/ga
    bench compare --in results/ga results/rs --out comparison.csv
    bench datagen --problem hfs --variant d1 --n 100 --seed 1 --out jobs.csv

Exit code 0 on success; 1 for data/config errors (message on stderr); 2 for
usage errors (argparse).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import datagen
from .bench import ALGORITHMS, PROBLEMS, ExperimentConfig, compare_dirs, run_experiment
from .kvconfig import load_kv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark campaigns for supply-chain policy optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one dataset")
    run.add_argument("--problem", required=True, choices=PROBLEMS)
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--dataset", required=True, help="dataset CSV path")
    run.add_argument("--budget", type=int, default=5000,
                     help="episode budget per run (default 5000)")
    run.add_argument("--runs", type=int, default=10,
                     help="independent runs, seeds base..base+runs-1 (default 10)")
    run.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--params", help="key=value file of algorithm hyperparameters")
    run.add_argument("--sim-params", help="key=value file of simulator settings")
    run.add_argument("--grammar", help="BNF grammar file for eldt (default: auto)")
    run.add_argument("--workers", type=int, default=1,
                     help="threads running the campaign's runs; results are "
                          "identical for any value, but the runs are pure Python, "
                          "so under the GIL more threads take turns on one core "
                          "and run slower, not faster (default 1)")

    comp = sub.add_parser("compare", help="pairwise rank-sum matrix over run dirs")
    comp.add_argument("--in", dest="in_dirs", nargs="+", required=True,
                      help="output directories of bench run")
    comp.add_argument("--out", help="write the matrix to this CSV")
    comp.add_argument("--alpha", type=float, default=0.05,
                      help="significance level to flag, a finite number > 0 "
                           "(default 0.05)")

    gen = sub.add_parser("datagen", help="generate a dataset CSV")
    gen.add_argument("--problem", required=True, choices=PROBLEMS)
    gen.add_argument("--variant", choices=datagen.HFS_VARIANTS,
                     help="hfs dataset family (--problem hfs only, where it is required)")
    gen.add_argument("--n", type=int, required=True, help="number of orders/jobs")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output CSV path")
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        problem=args.problem,
        algo=args.algo,
        dataset=args.dataset,
        budget=args.budget,
        runs=args.runs,
        seed=args.seed,
        out_dir=args.out,
        params=load_kv(args.params) if args.params else {},
        sim_params=load_kv(args.sim_params) if args.sim_params else {},
        grammar_path=args.grammar,
        workers=args.workers,
    )
    records = run_experiment(cfg)
    finals = [rec.final_objective for rec in records]
    print(f"{cfg.algo} on {cfg.problem} ({cfg.dataset}): "
          f"{len(records)} run(s), best {max(finals) if cfg.maximize else min(finals)}, "
          f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_compare(args) -> int:
    if not (math.isfinite(args.alpha) and args.alpha > 0):
        raise ValueError(f"--alpha must be a finite number > 0, got {args.alpha}")
    rows = compare_dirs(args.in_dirs, args.out)
    print("algo_a,algo_b,n_a,n_b,u_statistic,p_value,significant")
    for a, b, na, nb, u, p in rows:
        print(f"{a},{b},{na},{nb},{u},{p},{'yes' if p < args.alpha else 'no'}")
    return 0


def _cmd_datagen(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.problem != "hfs" and args.variant is not None:
        raise ValueError("--variant applies to --problem hfs only")
    parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(parent, exist_ok=True)
    if args.problem == "makeorbuy":
        datagen.save_makeorbuy(datagen.gen_makeorbuy(args.n, args.seed), args.out)
    else:
        if args.variant is None:
            raise ValueError("--variant is required for --problem hfs")
        datagen.save_hfs(datagen.gen_hfs(args.variant, args.n, args.seed), args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "compare": _cmd_compare, "datagen": _cmd_datagen}
    try:
        return handler[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
