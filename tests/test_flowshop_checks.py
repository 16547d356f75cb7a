"""The flow shop's feasibility report, its schedule file, and the rule for a
phase whose duration rounds away at its start: such a phase starts at its
ready time, and a zero-length job window always fits."""

import numpy as np

from evoscm import (HfsInstance, Job, Schedule, check_feasible, decode_list_schedule,
                    save_schedule)
from oracles import sweep_schedule_oracle

TWO_PHASE = {"J": (("M", 2.0), ("E", 3.0))}


def shop(jobs, specs, m=1, e=1, r=1, areas=20):
    return HfsInstance(jobs=tuple(jobs), type_specs=specs,
                       capacities={"M": m, "E": e, "R": r},
                       assembly_areas=areas, transport_days=0.0)


class TestCheckFeasibleMessages:
    def test_categories_then_areas_in_sweep_order(self):
        # Three identical jobs on one M and one E unit and two areas: each
        # category overflows at its starts and is still over at its first
        # end, the areas overflow once, and job 2's bad delivery comes first.
        inst = shop([Job(i, "J", 100.0, 0.0, 0.0) for i in range(3)], TWO_PHASE, areas=2)
        spans = [("M", 0.0, 2.0), ("E", 2.0, 5.0)]
        bad = Schedule(job_ids=[0, 1, 2], phases=[list(spans) for _ in range(3)],
                       delivery=[5.0, 5.0, 6.5])
        assert check_feasible(inst, bad) == [
            "job 2: delivery 6.5, expected 5.0",
            "job 1 phase 0: category M over capacity 1 at t=0.0",
            "job 2 phase 0: category M over capacity 1 at t=0.0",
            "job 0 phase 0: category M over capacity 1 at t=2.0",
            "job 1 phase 1: category E over capacity 1 at t=2.0",
            "job 2 phase 1: category E over capacity 1 at t=2.0",
            "job 0 phase 1: category E over capacity 1 at t=5.0",
            "job 2: assembly areas over capacity 2 at t=0.0",
        ]

    def test_a_zero_length_window_at_full_areas_is_not_flagged(self):
        # Job 1's only phase lasts 1e-20, which rounds away at day 1e5: its
        # window covers no instant of job 0's, though one area and one M unit
        # are all there is.
        specs = {"Z": (("M", 1e-20),), "M": (("M", 5.0),)}
        inst = shop([Job(0, "M", 2e5, 0.0, 0.0), Job(1, "Z", 2e5, 0.0, 0.0)], specs,
                    areas=1)
        ok = Schedule(job_ids=[0, 1],
                      phases=[[("M", 1e5 - 2, 1e5 + 3)], [("M", 1e5, 1e5)]],
                      delivery=[1e5 + 3, 1e5])
        assert check_feasible(inst, ok) == []

    def test_an_area_overflow_names_a_window_that_covers_it(self):
        # Jobs 0 and 1 overflow the one area at day 1e5; job 2's zero-length
        # window there covers no instant, so the report names job 1.
        specs = {"Z": (("M", 1e-20),), "M": (("M", 5.0),)}
        inst = shop([Job(0, "M", 2e5, 0.0, 0.0), Job(1, "M", 2e5, 0.0, 0.0),
                     Job(2, "Z", 2e5, 0.0, 0.0)], specs, m=3, areas=1)
        bad = Schedule(job_ids=[0, 1, 2],
                       phases=[[("M", 1e5, 1e5 + 5)], [("M", 1e5, 1e5 + 5)], [("M", 1e5, 1e5)]],
                       delivery=[1e5 + 5, 1e5 + 5, 1e5])
        assert check_feasible(inst, bad) == [
            "job 1: assembly areas over capacity 1 at t=100000.0"]

    def test_a_category_overflow_names_a_phase_that_covers_it(self):
        # Jobs 0 and 1 overflow the one M unit at day 1e5; job 2's M phase
        # there lasts 1e-20, covers no instant, and so is not the one named.
        specs = {"Z": (("M", 1e-20),), "M": (("M", 5.0),)}
        inst = shop([Job(0, "M", 2e5, 0.0, 0.0), Job(1, "M", 2e5, 0.0, 0.0),
                     Job(2, "Z", 2e5, 0.0, 0.0)], specs)
        bad = Schedule(job_ids=[0, 1, 2],
                       phases=[[("M", 1e5, 1e5 + 5)], [("M", 1e5, 1e5 + 5)], [("M", 1e5, 1e5)]],
                       delivery=[1e5 + 5, 1e5 + 5, 1e5])
        assert check_feasible(inst, bad) == [
            "job 1 phase 0: category M over capacity 1 at t=100000.0"]

    def test_an_unknown_category_is_reported_not_raised(self):
        inst = shop([Job(0, "M", 10.0, 0.0, 0.0)], {"M": (("M", 5.0),)})
        bad = Schedule(job_ids=[0], phases=[[("X", 0.0, 5.0)]], delivery=[5.0])
        assert check_feasible(inst, bad) == ["job 0 phase 0: category X, expected M"]


class TestSaveSchedule:
    def test_exact_bytes(self, tmp_path):
        s = Schedule(job_ids=[7, 3],
                     phases=[[("M", 0.1, 2.35), ("E", 2, 1e5 + 0.5)], [("R", 1 / 3, 1.0)]],
                     delivery=[1e5 + 0.5, 1.0])
        path = tmp_path / "schedule.csv"
        save_schedule(s, path)
        assert path.read_bytes() == (
            b"job_id,phase_index,category,start,end\r\n"
            b"7,0,M,0.1,2.35\r\n"
            b"7,1,E,2.0,100000.5\r\n"
            b"3,0,R,0.3333333333333333,1.0\r\n")


class TestDurationsThatRoundAway:
    def test_decoder_matches_sweep_oracle(self):
        rng = np.random.default_rng(33)
        durations = (1e-20, 1e-12, 0.5, 1.0, 2.0)
        for _ in range(300):
            specs = {}
            for name in ("A", "B", "C"):
                specs[name] = tuple(
                    ("MER"[int(rng.integers(3))], durations[int(rng.integers(len(durations)))])
                    for _ in range(int(rng.integers(1, 5))))
            n = int(rng.integers(2, 8))
            jobs = [Job(i, "ABC"[int(rng.integers(3))], 2e5,
                        1e5 + int(rng.integers(5)), 1e5 + int(rng.integers(5)))
                    for i in range(n)]
            cap = int(rng.integers(1, 3))
            inst = shop(jobs, specs, m=cap, e=cap, r=cap, areas=int(rng.integers(1, 4)))
            perm = [int(p) for p in rng.permutation(n)]
            got = decode_list_schedule(inst, perm)
            assert got.phases == sweep_schedule_oracle(inst, perm)[0], (specs, jobs, perm)
            assert check_feasible(inst, got) == []
