"""Placement order of the flow-shop decoder: a job's phases are found by their
search walks and placed afterwards, last first, with a phase that starts where
the previous one on its profile ends extending that interval. These cases use
machine types with several same-category phases in a row, which the packaged
table has only as one M -> M pair."""

import itertools

import numpy as np

from evoscm import HfsInstance, Job, check_feasible, decode_list_schedule, makespan
from oracles import schedule_oracle, sweep_schedule_oracle

# Fractional types: runs of two or three same-category phases, and M phases
# with another category between them.
FRACTIONAL = {
    "MMME": (("M", 1.3), ("M", 0.7), ("M", 0.1), ("E", 0.7)),
    "MEM": (("M", 0.4), ("E", 1.1), ("M", 0.9)),
    "EERR": (("E", 0.3), ("E", 2.2), ("R", 0.7), ("R", 0.1)),
    "M": (("M", 0.6),),
}
# Integer types for the brute-force oracle, with the same shapes.
INTEGER = {
    "MMME": (("M", 2.0), ("M", 1.0), ("M", 1.0), ("E", 1.0)),
    "MEM": (("M", 1.0), ("E", 2.0), ("M", 1.0)),
    "EER": (("E", 1.0), ("E", 2.0), ("R", 1.0)),
    "M": (("M", 1.0),),
}


def make_instance(jobs, specs, cap, areas, transport=0.0):
    return HfsInstance(jobs=tuple(jobs), type_specs=specs,
                       capacities={"M": cap, "E": cap, "R": cap},
                       assembly_areas=areas, transport_days=transport)


def random_jobs(rng, specs, n, scale):
    names = sorted(specs)
    return [Job(id=i, machine_type=names[int(rng.integers(len(names)))],
                due_day=1000.0, basement_day=int(rng.integers(0, 4 * scale)) / scale,
                panel_day=int(rng.integers(0, 4 * scale)) / scale)
            for i in range(n)]


class TestFractionalEndOnBreakpoint:
    """A phase whose end rounds to an existing breakpoint is judged by its own
    segments only, not by the full segment after its end."""

    def test_phase_ending_on_a_breakpoint_fills_the_gap(self):
        specs = {"A": (("M", 4.0),), "C": (("M", 4.2),)}
        jobs = [Job(0, "A", 100.0, 0.1, 0.0), Job(1, "C", 100.0, 4.1, 0.0),
                Job(2, "C", 100.0, 4.1, 0.0), Job(3, "A", 100.0, 0.1, 0.0)]
        assert 0.1 + 4.0 == 4.1 and 4.1 - 0.1 < 4.0
        inst = HfsInstance(jobs=tuple(jobs), type_specs=specs,
                           capacities={"M": 2, "E": 1, "R": 1})
        got = decode_list_schedule(inst, [0, 1, 2, 3])
        want_phases, _ = sweep_schedule_oracle(inst, [0, 1, 2, 3])
        assert got.phases[3] == [("M", 0.1, 4.1)]
        assert want_phases[3] == [("M", 0.1, 4.1)]
        assert got.phases == want_phases
        assert check_feasible(inst, got) == []


class TestSameCategoryRuns:
    def test_second_phase_delayed_by_a_competing_job(self):
        specs = {"X": (("M", 2.0), ("M", 3.0)), "Y": (("M", 1.0),)}
        jobs = [Job(0, "Y", 100.0, 2.0, 0.0), Job(1, "X", 100.0, 0.0, 0.0),
                Job(2, "X", 100.0, 0.0, 0.0), Job(3, "Y", 100.0, 0.0, 0.0)]
        inst = make_instance(jobs, specs, cap=1, areas=20)
        got = decode_list_schedule(inst, [0, 1, 2, 3])
        assert got.phases == [
            [("M", 2.0, 3.0)],
            [("M", 0.0, 2.0), ("M", 3.0, 6.0)],
            [("M", 6.0, 8.0), ("M", 8.0, 11.0)],
            [("M", 11.0, 12.0)],
        ]
        want_cm, want_phases = schedule_oracle(
            [{"machine_type": j.machine_type, "basement_day": j.basement_day,
              "panel_day": j.panel_day} for j in jobs],
            specs, inst.capacities, 20, 0.0, [0, 1, 2, 3])
        assert makespan(got) == want_cm == 12.0
        assert check_feasible(inst, got) == []

    def test_back_to_back_phases_count_once_per_instant(self):
        # Two three-phase M runs fill capacity 2 over [0, 3), each placed as
        # one interval; later one-phase jobs start when both runs end.
        specs = {"MMM": (("M", 1.5), ("M", 0.5), ("M", 1.0)), "M": (("M", 0.5),)}
        jobs = [Job(0, "MMM", 100.0, 0.0, 0.0), Job(1, "MMM", 100.0, 0.0, 0.0),
                Job(2, "M", 100.0, 1.0, 0.0), Job(3, "M", 100.0, 3.0, 0.0)]
        inst = make_instance(jobs, specs, cap=2, areas=20)
        got = decode_list_schedule(inst, [0, 1, 2, 3])
        assert got.phases[2] == [("M", 3.0, 3.5)]
        assert got.phases[3] == [("M", 3.0, 3.5)]
        assert got.phases == sweep_schedule_oracle(inst, [0, 1, 2, 3])[0]
        assert check_feasible(inst, got) == []

    def test_fractional_runs_match_sweep_oracle(self):
        rng = np.random.default_rng(25)
        for n in (8, 30):
            jobs = random_jobs(rng, FRACTIONAL, n, scale=10)
            for areas in (1, 2, 3, 20):
                for cap in (1, 2):
                    inst = make_instance(jobs, FRACTIONAL, cap, areas, transport=0.3)
                    for _ in range(3):
                        perm = [int(p) for p in rng.permutation(n)]
                        got = decode_list_schedule(inst, perm)
                        want_phases, want_delivery = sweep_schedule_oracle(inst, perm)
                        assert got.phases == want_phases, (n, areas, cap, perm)
                        assert got.delivery == want_delivery
                        assert check_feasible(inst, got) == []

    def test_integer_runs_match_bruteforce_oracle(self):
        rng = np.random.default_rng(2025)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            jobs = random_jobs(rng, INTEGER, n, scale=1)
            for areas in (1, 2, 3):
                for cap in (1, 2):
                    inst = make_instance(jobs, INTEGER, cap, areas, transport=1.0)
                    oracle_jobs = [{"machine_type": j.machine_type,
                                    "basement_day": j.basement_day,
                                    "panel_day": j.panel_day} for j in jobs]
                    for perm in itertools.permutations(range(n)):
                        got = decode_list_schedule(inst, list(perm))
                        want_cm, want_phases = schedule_oracle(
                            oracle_jobs, INTEGER, inst.capacities, areas, 1.0, list(perm))
                        assert makespan(got) == want_cm, (areas, cap, perm)
                        assert got.phases == [
                            [(c, float(a), float(b)) for c, a, b in spans]
                            for spans in want_phases]


class TestZeroLengthIntervals:
    """A duration far below its start's float spacing rounds away; such an
    interval covers no instant and is not placed."""

    def test_a_zero_length_phase_blocks_no_instant(self):
        # At day 1e5 a 1e-20 duration rounds away: the E phase of job 0 is
        # [1e5 + 5, 1e5 + 5), so job 1's E phase still starts at its panels.
        specs = {"T": (("M", 5.0), ("E", 1e-20)), "E": (("E", 10.0),)}
        jobs = [Job(0, "T", 2e5, 1e5, 0.0), Job(1, "E", 2e5, 0.0, 1e5)]
        inst = make_instance(jobs, specs, cap=1, areas=20)
        got = decode_list_schedule(inst, [0, 1])
        assert got.phases[0][1] == ("E", 1e5 + 5, 1e5 + 5)
        assert got.phases[1] == [("E", 1e5, 1e5 + 10)]
        assert got.phases == sweep_schedule_oracle(inst, [0, 1])[0]

    def test_a_zero_length_window_blocks_no_area(self):
        specs = {"Z": (("M", 1e-20),), "M": (("M", 5.0),)}
        jobs = [Job(0, "Z", 2e5, 1e5, 0.0), Job(1, "M", 2e5, 1e5 - 2, 0.0)]
        inst = make_instance(jobs, specs, cap=2, areas=1)
        got = decode_list_schedule(inst, [0, 1])
        assert got.phases == [[("M", 1e5, 1e5)], [("M", 1e5 - 2, 1e5 + 3)]]
        assert got.phases == sweep_schedule_oracle(inst, [0, 1])[0]
