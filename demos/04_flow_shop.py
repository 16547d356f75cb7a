"""
Hybrid flow shop scheduling of machine assembly jobs
====================================================

Every job is one machine to assemble. Its type fixes a phase sequence over
three work categories (M mechanical, E electrical, R run-in test), each
category has a few parallel stations, jobs cannot start before their parts
arrive, the hall holds a limited number of assembly areas, and a constant
transport time follows the last phase. A schedule is a job permutation fed
to a serial list-scheduling decoder; the objective is the makespan.
"""

import numpy as np

from evoscm import (
    SearchSpace,
    check_feasible,
    decode_list_schedule,
    default_machine_types,
    edd_order,
    ga_run,
    gen_hfs,
    greedy_edd,
    lower_bounds,
    makespan,
    priorities_to_permutation,
    random_search,
)

# ----------------------------------------------------------------------
# 1. The machine-type table: each type is a phase list over M/E/R.
types = default_machine_types()
print(f"{len(types)} machine types; three of them:")
for name in ("LT7", "LT8p", "LT8 12 ULA"):
    phases = " -> ".join(f"{cat}:{dur:g}d" for cat, dur in types[name])
    print(f"  {name:12s} {phases}")

# ----------------------------------------------------------------------
# 2. A small instance and a direct look at one decoded schedule.
inst = gen_hfs("d1", 6, seed=3)
print(f"\ninstance: {len(inst.jobs)} jobs, capacities {inst.capacities}, "
      f"{inst.assembly_areas} assembly areas, transport {inst.transport_days}d")

schedule = decode_list_schedule(inst, [0, 1, 2, 3, 4, 5])
print(f"identity permutation makespan: {makespan(schedule):g} days "
      f"(lower bound {lower_bounds(inst):g})")
print(f"constraint violations: {check_feasible(inst, schedule) or 'none'}")
for job, phases in zip(inst.jobs, schedule.phases):
    spans = ", ".join(f"{cat} {a:g}-{b:g}" for cat, a, b in phases)
    print(f"  job {job.id} ({job.machine_type}): {spans}")

# ----------------------------------------------------------------------
# 3. Heuristics and search on a bigger instance. Greedy earliest-due-date
#    is instant; random search and a GA spend a 500-evaluation budget.
big = gen_hfs("d1", 30, seed=7)
print(f"\n30-job instance, budget 500 evaluations per optimizer")
print(f"greedy EDD makespan: {greedy_edd(big).final_objective:g}")


def space():
    return SearchSpace(
        kind="permutation", size=len(big.jobs),
        score=lambda p, rng: makespan(decode_list_schedule(big, p)),
        maximize=False, budget=500)


for label, algo in (("random search", random_search), ("GA", ga_run)):
    finals = [algo(space(), seed=s).final_objective for s in range(5)]
    print(f"{label:14s} best makespans over 5 seeds: "
          f"{[round(v, 1) for v in finals]}")

# ----------------------------------------------------------------------
# 4. Priority vectors: a policy that scores jobs maps to a permutation by
#    sorting on (priority, due date, index), which is how tree policies
#    drive this problem.
priorities = np.array([2.0, 2.0, 5.0, 1.0, 1.0, 3.0])
perm = priorities_to_permutation(priorities, edd_order(inst.jobs))
print(f"\npriorities {priorities.tolist()} with dues "
      f"{[round(j.due_day) for j in inst.jobs]} -> permutation {perm}")
print(f"that permutation's makespan: "
      f"{makespan(decode_list_schedule(inst, perm)):g}")
