import dataclasses
import itertools
import math

import numpy as np
import pytest

import evoscm.flowshop
from evoscm import (
    DecisionTree,
    HfsEnv,
    HfsInstance,
    Job,
    Leaf,
    LearningConfig,
    Schedule,
    check_feasible,
    decode_list_schedule,
    edd_order,
    gen_hfs,
    load_hfs,
    load_machine_types,
    lower_bounds,
    makespan,
    priorities_to_permutation,
    run_episode,
    save_hfs,
    save_schedule,
)
from evoscm.datagen import default_machine_types
from oracles import schedule_oracle, sweep_schedule_oracle

TWO_PHASE = {"J": (("M", 2.0), ("E", 3.0))}
ONE_PHASE = {"J": (("M", 5.0),)}


def instance(jobs, type_specs, m=1, e=1, r=1, areas=20, transport=0.0):
    return HfsInstance(jobs=jobs, type_specs=type_specs,
                       capacities={"M": m, "E": e, "R": r},
                       assembly_areas=areas, transport_days=transport)


def job(i, mt="J", dd=1000.0, db=0.0, de=0.0):
    return Job(id=i, machine_type=mt, due_day=dd, basement_day=db, panel_day=de)


def rand_instance(rng, max_jobs=5, max_phases=3, max_cap=2):
    n_types = int(rng.integers(1, 4))
    specs = {}
    for t in range(n_types):
        phases = tuple(
            (("M", "E", "R")[int(rng.integers(3))], float(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, max_phases + 1))))
        specs[f"T{t}"] = phases
    jobs = []
    for i in range(int(rng.integers(1, max_jobs + 1))):
        jobs.append(Job(
            id=i, machine_type=f"T{int(rng.integers(n_types))}",
            due_day=float(rng.integers(50, 100)),
            basement_day=float(rng.integers(0, 6)),
            panel_day=float(rng.integers(0, 6))))
    caps = {c: int(rng.integers(1, max_cap + 1)) for c in ("M", "E", "R")}
    areas = int(rng.integers(1, 4))
    return HfsInstance(jobs=jobs, type_specs=specs, capacities=caps,
                       assembly_areas=areas, transport_days=float(rng.integers(0, 3)))


def oracle_args(inst):
    jobs = [{"machine_type": j.machine_type, "basement_day": j.basement_day,
             "panel_day": j.panel_day} for j in inst.jobs]
    return (jobs, inst.type_specs, inst.capacities, inst.assembly_areas,
            inst.transport_days)


class TestDecodeAnchors:
    def test_two_jobs_serial_capacity_one(self):
        inst = instance([job(0), job(1)], TWO_PHASE)
        s = decode_list_schedule(inst, [0, 1])
        assert s.phases[0] == [("M", 0.0, 2.0), ("E", 2.0, 5.0)]
        assert s.phases[1] == [("M", 2.0, 4.0), ("E", 5.0, 8.0)]
        assert makespan(s) == 8.0

    def test_panel_arrival_delays_first_e_phase(self):
        inst = instance([job(0, de=10.0), job(1)], TWO_PHASE)
        s = decode_list_schedule(inst, [0, 1])
        assert s.phases[0][1] == ("E", 10.0, 13.0)
        assert makespan(s) == 13.0

    def test_capacity_two_runs_in_parallel(self):
        inst = instance([job(0), job(1)], ONE_PHASE, m=2)
        s = decode_list_schedule(inst, [0, 1])
        assert s.phases[0] == [("M", 0.0, 5.0)]
        assert s.phases[1] == [("M", 0.0, 5.0)]
        assert makespan(s) == 5.0

    def test_capacity_one_serializes(self):
        inst = instance([job(0), job(1)], ONE_PHASE, m=1)
        assert makespan(decode_list_schedule(inst, [0, 1])) == 10.0

    def test_basement_arrival_delays_first_m_phase(self):
        inst = instance([job(0, db=7.0)], TWO_PHASE)
        s = decode_list_schedule(inst, [0])
        assert s.phases[0][0] == ("M", 7.0, 9.0)

    def test_later_job_can_fill_earlier_gap(self):
        # job0's E waits for panels; job1's E slots in before it
        inst = instance([job(0, de=10.0), job(1)], TWO_PHASE)
        s = decode_list_schedule(inst, [0, 1])
        assert s.phases[1][1] == ("E", 4.0, 7.0)

    def test_assembly_area_cap_delays_whole_job(self):
        inst = instance([job(0), job(1)], ONE_PHASE, m=2, areas=1)
        s = decode_list_schedule(inst, [0, 1])
        assert s.phases[0] == [("M", 0.0, 5.0)]
        assert s.phases[1] == [("M", 5.0, 10.0)]

    def test_transport_shifts_makespan_exactly(self):
        jobs = [job(0), job(1, db=3.0)]
        base = makespan(decode_list_schedule(instance(jobs, TWO_PHASE), [0, 1]))
        shifted = makespan(decode_list_schedule(
            instance(jobs, TWO_PHASE, transport=2.0), [0, 1]))
        assert shifted == base + 2.0

    def test_invalid_permutation_rejected(self):
        inst = instance([job(0), job(1)], TWO_PHASE)
        with pytest.raises(ValueError):
            decode_list_schedule(inst, [0, 0])
        with pytest.raises(ValueError):
            decode_list_schedule(inst, [0])

    @pytest.mark.parametrize("perm", [[2.7, 0, 1], ["2", 0, 1], [math.inf, 0, 1],
                                      [math.nan, 0, 1], [None, 0, 1]])
    def test_non_integer_entries_rejected(self, perm):
        inst = instance([job(0), job(1), job(2)], TWO_PHASE)
        with pytest.raises(ValueError, match="bijection"):
            decode_list_schedule(inst, perm)

    def test_integral_entries_of_any_type_accepted(self):
        inst = instance([job(0), job(1), job(2)], TWO_PHASE)
        want = decode_list_schedule(inst, [2, 0, 1])
        assert decode_list_schedule(inst, [2.0, 0, 1]) == want
        assert decode_list_schedule(inst, np.array([2, 0, 1])) == want

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        inst = rand_instance(rng)
        perm = list(rng.permutation(len(inst.jobs)))
        a = decode_list_schedule(inst, perm)
        b = decode_list_schedule(inst, perm)
        assert a == b


class TestOracleEquivalence:
    def test_anchor_cases_match_oracle(self):
        inst = instance([job(0), job(1)], TWO_PHASE)
        cm, _ = schedule_oracle(*oracle_args(inst), [0, 1])
        assert cm == makespan(decode_list_schedule(inst, [0, 1])) == 8.0

        inst2 = instance([job(0, de=10.0), job(1)], TWO_PHASE)
        cm2, _ = schedule_oracle(*oracle_args(inst2), [0, 1])
        assert cm2 == makespan(decode_list_schedule(inst2, [0, 1])) == 13.0

    def test_every_permutation_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            inst = rand_instance(rng)
            n = len(inst.jobs)
            for perm in itertools.permutations(range(n)):
                got = decode_list_schedule(inst, list(perm))
                want_cm, want_phases = schedule_oracle(*oracle_args(inst),
                                                       list(perm))
                assert makespan(got) == want_cm, (inst, perm)
                assert got.phases == [
                    [(c, float(a), float(b)) for c, a, b in spans]
                    for spans in want_phases]

    def test_best_over_all_permutations_matches_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            inst = rand_instance(rng, max_jobs=4)
            n = len(inst.jobs)
            perms = list(itertools.permutations(range(n)))
            ours = min(makespan(decode_list_schedule(inst, list(p)))
                       for p in perms)
            oracle = min(schedule_oracle(*oracle_args(inst), list(p))[0]
                         for p in perms)
            assert ours == oracle


class TestSweepOracleEquivalence:
    """Float-time decodes against the event-sweep reference, including tight
    areas and capacities that force the area-retry path, which generated
    instances at the default 20 areas take rarely or never."""

    @pytest.mark.parametrize("variant", ["d1", "d2", "d3", "d4"])
    def test_generated_instances_match_sweep_oracle(self, variant):
        rng = np.random.default_rng(["d1", "d2", "d3", "d4"].index(variant))
        for n in (20, 60, 200):
            base = gen_hfs(variant, n, int(rng.integers(1_000_000)))
            cases = [base]
            if n < 200:
                cases += [dataclasses.replace(
                    base, assembly_areas=areas,
                    capacities={"M": cap, "E": cap, "R": cap})
                    for areas in (1, 2, 3) for cap in (1, 2)]
            for inst in cases:
                perm = [int(p) for p in rng.permutation(n)]
                got = decode_list_schedule(inst, perm)
                want_phases, want_delivery = sweep_schedule_oracle(inst, perm)
                assert got.phases == want_phases, (variant, n, inst.assembly_areas)
                assert got.delivery == want_delivery

    def test_fractional_times_match_sweep_oracle(self):
        # Every packaged type has integer-day phases with its M phases
        # adjacent; these do not, so ends like 0.1 + 0.7 carry float rounding.
        specs = {
            "A": (("M", 1.3), ("E", 0.7), ("M", 0.1), ("R", 2.9)),
            "B": (("E", 0.7), ("R", 0.1), ("M", 1.3)),
            "C": (("R", 0.3), ("M", 2.2), ("E", 1.1), ("M", 0.7), ("R", 0.1)),
        }
        rng = np.random.default_rng(15)
        n = 60
        jobs = tuple(
            Job(id=i, machine_type=("A", "B", "C")[int(rng.integers(3))],
                due_day=100.0, basement_day=int(rng.integers(0, 300)) / 10,
                panel_day=int(rng.integers(0, 300)) / 10)
            for i in range(n))
        for areas in (1, 2, 3):
            for cap in (1, 2):
                inst = instance(jobs, specs, m=cap, e=cap, r=cap, areas=areas,
                                transport=0.3)
                perm = [int(p) for p in rng.permutation(n)]
                got = decode_list_schedule(inst, perm)
                want_phases, want_delivery = sweep_schedule_oracle(inst, perm)
                assert got.phases == want_phases, (areas, cap)
                assert got.delivery == want_delivery


class TestMakespan:
    def test_max_of_deliveries(self):
        s = Schedule(job_ids=[0, 1], phases=[[], []], delivery=[8.0, 13.0])
        assert makespan(s) == 13.0

    def test_single_job(self):
        s = Schedule(job_ids=[0], phases=[[]], delivery=[4.5])
        assert makespan(s) == 4.5

    def test_empty_schedule(self):
        assert makespan(Schedule(job_ids=[], phases=[], delivery=[])) == 0.0


class TestCheckFeasible:
    def test_decoder_output_is_clean(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            inst = rand_instance(rng)
            perm = list(rng.permutation(len(inst.jobs)))
            s = decode_list_schedule(inst, perm)
            assert check_feasible(inst, s) == []

    def test_capacity_overlap_reported(self):
        inst = instance([job(0), job(1)], ONE_PHASE, m=1)
        bad = Schedule(job_ids=[0, 1],
                       phases=[[("M", 0.0, 5.0)], [("M", 0.0, 5.0)]],
                       delivery=[5.0, 5.0])
        viol = check_feasible(inst, bad)
        assert len(viol) == 1
        assert "capacity" in viol[0]

    def test_early_m_phase_reported(self):
        inst = instance([job(0, db=4.0)], TWO_PHASE)
        bad = Schedule(job_ids=[0],
                       phases=[[("M", 0.0, 2.0), ("E", 2.0, 5.0)]],
                       delivery=[5.0])
        viol = check_feasible(inst, bad)
        assert len(viol) == 1
        assert "basement" in viol[0]
        assert "job 0" in viol[0]

    def test_early_e_phase_reported(self):
        inst = instance([job(0, de=4.0)], TWO_PHASE)
        bad = Schedule(job_ids=[0],
                       phases=[[("M", 0.0, 2.0), ("E", 2.0, 5.0)]],
                       delivery=[5.0])
        assert any("panel" in v for v in check_feasible(inst, bad))

    def test_phase_order_violation_reported(self):
        inst = instance([job(0)], TWO_PHASE)
        bad = Schedule(job_ids=[0],
                       phases=[[("M", 3.0, 5.0), ("E", 0.0, 3.0)]],
                       delivery=[5.0])
        assert check_feasible(inst, bad) != []

    def test_wrong_duration_reported(self):
        inst = instance([job(0)], TWO_PHASE)
        bad = Schedule(job_ids=[0],
                       phases=[[("M", 0.0, 1.0), ("E", 1.0, 4.0)]],
                       delivery=[4.0])
        assert any("duration" in v for v in check_feasible(inst, bad))

    def test_area_overflow_reported(self):
        inst = instance([job(0), job(1)], ONE_PHASE, m=2, areas=1)
        bad = Schedule(job_ids=[0, 1],
                       phases=[[("M", 0.0, 5.0)], [("M", 0.0, 5.0)]],
                       delivery=[5.0, 5.0])
        assert any("area" in v for v in check_feasible(inst, bad))


class TestLowerBounds:
    def test_single_job_critical_path(self):
        inst = instance([job(0, db=3.0)], TWO_PHASE, transport=2.0)
        # ready 3 + (2 + 3) + transport 2
        assert lower_bounds(inst) == 10.0

    def test_work_bound_identical_jobs(self):
        jobs = [job(i) for i in range(6)]
        inst = instance(jobs, ONE_PHASE, m=2)
        assert lower_bounds(inst) >= 6 * 5.0 / 2

    def test_decoder_never_beats_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            inst = rand_instance(rng)
            perm = list(rng.permutation(len(inst.jobs)))
            assert makespan(decode_list_schedule(inst, perm)) \
                >= lower_bounds(inst) - 1e-9


class TestPriorities:
    def jobs(self, dues):
        return [job(i, dd=d) for i, d in enumerate(dues)]

    def test_declared_rule_with_ties(self):
        perm = priorities_to_permutation([2, 2, 5], edd_order(self.jobs([7.0, 3.0, 9.0])))
        assert list(perm) == [2, 1, 0]

    def test_equal_priorities_fall_back_to_edd(self):
        perm = priorities_to_permutation([1, 1, 1], edd_order(self.jobs([7.0, 3.0, 9.0])))
        assert list(perm) == [1, 0, 2]

    def test_distinct_priorities_descending(self):
        perm = priorities_to_permutation([3, 9, 5], edd_order(self.jobs([1.0, 1.0, 1.0])))
        assert list(perm) == [1, 2, 0]

    def test_due_tie_falls_back_to_input_index(self):
        perm = priorities_to_permutation([1, 1, 1], edd_order(self.jobs([5.0, 5.0, 5.0])))
        assert list(perm) == [0, 1, 2]

    def test_always_bijection(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            jobs = self.jobs(rng.integers(1, 50, n).astype(float))
            pri = rng.integers(0, 10, n)
            perm = priorities_to_permutation(list(pri), edd_order(jobs))
            assert sorted(perm) == list(range(n))

    def test_matches_the_priority_due_day_index_key(self):
        # The order's first definition, one sort by (-priority, due day, index),
        # is the oracle; few distinct priorities and due days make many ties.
        forms = (lambda p: [int(v) for v in p], lambda p: [float(v) for v in p],
                 np.asarray, lambda p: np.asarray(p, dtype=float) / 4)
        rng = np.random.default_rng(24)
        for case in range(1200):
            n = int(rng.integers(1, 40))
            jobs = self.jobs(rng.integers(0, int(rng.integers(1, 8)), n) / 2)
            levels = rng.integers(-3, int(rng.integers(-2, 10)), n)
            p = forms[case % len(forms)](levels)
            want = sorted(range(n), key=lambda i: (-p[i], jobs[i].due_day, i))
            assert priorities_to_permutation(p, edd_order(jobs)) == want


class TestHfsEnv:
    def test_episode_len_is_job_count(self):
        env = HfsEnv(gen_hfs("d1", 12, seed=0))
        assert env.spec.episode_len == 12
        assert env.spec.action_count == 10
        assert not env.spec.stochastic

    def test_constant_priority_equals_edd(self):
        inst = gen_hfs("d1", 15, seed=1)
        env = HfsEnv(inst)
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        tree = DecisionTree(Leaf([0.0] * 9 + [1.0]))  # always priority 9
        ret = run_episode(env, tree, lc, np.random.default_rng(0))
        edd = priorities_to_permutation([5] * 15, edd_order(inst.jobs))
        want = makespan(decode_list_schedule(inst, edd))
        assert ret == -want / 1000.0

    def test_return_scale_identity(self):
        inst = gen_hfs("d3", 10, seed=2)
        env = HfsEnv(inst)
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        tree = DecisionTree(Leaf([1.0, 0.0] + [0.0] * 8))
        ret = run_episode(env, tree, lc, np.random.default_rng(0))
        perm = priorities_to_permutation(env.actions, edd_order(inst.jobs))
        assert ret * env.objective_scale == makespan(decode_list_schedule(inst, perm))

    def test_shared_makespans_decode_a_permutation_once(self, monkeypatch):
        inst = gen_hfs("d3", 10, seed=2)
        decoded = []

        def counting_decode(instance, perm):
            decoded.append(list(perm))
            return decode_list_schedule(instance, perm)

        monkeypatch.setattr(evoscm.flowshop, "decode_list_schedule", counting_decode)
        env = HfsEnv(inst)
        lc = LearningConfig(alpha=0.0, epsilon=0.0)
        tree = DecisionTree(Leaf([1.0, 0.0] + [0.0] * 8))  # always priority 0
        returns = [run_episode(env, tree, lc, np.random.default_rng(0), seed=seed)
                   for seed in (1, 2)]
        assert returns[0] == returns[1]
        perm = priorities_to_permutation([0] * 10, edd_order(inst.jobs))
        assert decoded == [perm] and len(env._makespans) == 1
        # The second episode hit the memo with the same priorities.
        assert env.actions == [0] * 10
        assert returns[1] * env.objective_scale == makespan(decode_list_schedule(inst, perm))

    def test_shared_makespans_keep_each_permutation_apart(self):
        inst = gen_hfs("d1", 12, seed=0)
        env, rewards = HfsEnv(inst), []
        for priorities in ([0] * 12, [9] * 6 + [0] * 6, [0] * 12):
            env.reset()
            for level in priorities:
                _, reward, done = env.step(level)
            perm = priorities_to_permutation(priorities, edd_order(inst.jobs))
            assert done and reward == -makespan(decode_list_schedule(inst, perm)) / 1000.0
            rewards.append(reward)
        assert rewards[0] != rewards[1] and len(env._makespans) == 2

    @pytest.mark.parametrize("as_array", [False, True])
    def test_score_is_the_makespan_of_a_permutation(self, as_array):
        inst = gen_hfs("d1", 12, seed=0)
        env = HfsEnv(inst)
        assert env.solution_kind == "permutation"
        rng = np.random.default_rng(3)
        for perm in (rng.permutation(12) for _ in range(5)):
            perm = perm if as_array else perm.tolist()
            assert env.score(perm) == makespan(decode_list_schedule(inst, perm))

    def test_objective_then_score_decode_a_permutation_once(self, monkeypatch):
        inst = gen_hfs("d1", 12, seed=0)
        decoded = []

        def counting_decode(instance, perm):
            decoded.append(list(perm))
            return decode_list_schedule(instance, perm)

        monkeypatch.setattr(evoscm.flowshop, "decode_list_schedule", counting_decode)
        env = HfsEnv(inst)
        priorities = [9] * 6 + [0] * 6
        perm = priorities_to_permutation(priorities, edd_order(inst.jobs))
        value = env.objective(priorities)
        assert env.score(np.array(perm), np.random.default_rng(0)) == env.score(perm) == value
        assert decoded == [perm]

    @pytest.mark.parametrize("entry", [1 << 16, -(1 << 16), 0.5])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_score_refuses_an_entry_that_would_wrap_onto_a_memoized_key(self, entry,
                                                                         as_array):
        env = HfsEnv(gen_hfs("d1", 4, seed=0))
        value = env.score([0, 1, 2, 3])
        perm = [entry, 1, 2, 3]
        with pytest.raises(ValueError, match="bijection"):
            env.score(np.array(perm) if as_array else perm)
        assert env.score([0.0, 1.0, 2.0, 3.0]) == value and len(env._makespans) == 1

    def test_no_actions_before_an_episode(self):
        assert HfsEnv(gen_hfs("d1", 4, seed=0)).actions == []

    def test_observation_features(self):
        inst = gen_hfs("d1", 5, seed=3)
        env = HfsEnv(inst)
        obs = env.reset()
        j = inst.jobs[0]
        code = env.spec.features[0].categories.index(j.machine_type)
        assert list(obs) == [float(code), j.due_day, j.basement_day, j.panel_day]

    def test_rewards_zero_until_terminal(self):
        env = HfsEnv(gen_hfs("d2", 6, seed=4))
        env.reset()
        rewards = []
        done = False
        while not done:
            _, r, done = env.step(0)
            rewards.append(r)
        assert rewards[:-1] == [0.0] * 5
        assert rewards[-1] < 0

    @pytest.mark.parametrize("action", [3.7, -1, 10])
    def test_step_rejects_a_non_priority(self, action):
        env = HfsEnv(gen_hfs("d1", 3, seed=0))
        env.reset()
        with pytest.raises(ValueError, match=rf"action {action} outside 0\.\.9"):
            env.step(action)
        assert env.actions == []

    def test_step_after_the_terminal_one_names_reset(self):
        inst = gen_hfs("d1", 2, seed=0)
        env = HfsEnv(inst)
        env.reset()
        env.step(3)
        env.step(4)
        with pytest.raises(ValueError, match=r"episode is over; call reset\(\)"):
            env.step(5)
        assert env.actions == [3, 4]
        fresh = HfsEnv(inst)
        assert [env.reset(), env.step(4), env.step(3)] == \
            [fresh.reset(), fresh.step(4), fresh.step(3)]
        assert env.actions == fresh.actions == [4, 3]


class TestMachineTypeTable:
    def test_twelve_types_with_lt8p_strictly_shortest(self):
        table = default_machine_types()
        assert len(table) == 12
        totals = {mt: sum(d for _, d in spec) for mt, spec in table.items()}
        rest = {mt: t for mt, t in totals.items() if mt != "LT8p"}
        assert totals["LT8p"] < min(rest.values())

    def test_families_partition(self):
        table = default_machine_types()
        lt7 = {mt for mt in table if mt.startswith("LT7")}
        lt8 = {mt for mt in table if mt.startswith("LT8")}
        assert len(lt7) == 4 and len(lt8) == 8

    def test_all_categories_known(self):
        for spec in default_machine_types().values():
            for category, dur in spec:
                assert category in ("M", "E", "R")
                assert dur > 0


class TestValidation:
    def test_job_rejects_due_before_basement(self):
        with pytest.raises(ValueError):
            Job(id=0, machine_type="J", due_day=1.0, basement_day=5.0,
                panel_day=0.0)

    def test_instance_rejects_unknown_machine_type(self):
        with pytest.raises(ValueError):
            instance([job(0, mt="NOPE")], TWO_PHASE)

    def test_instance_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            instance([job(0)], TWO_PHASE, m=0)

    @pytest.mark.parametrize("transport", [math.nan, math.inf])
    def test_generated_instance_rejects_non_finite_transport(self, transport):
        with pytest.raises(ValueError, match="transport_days must be a finite number"):
            gen_hfs("d1", 5, seed=0, transport_days=transport)

    @pytest.mark.parametrize("cap", [1.5, True])
    def test_instance_rejects_non_integer_capacity(self, cap):
        with pytest.raises(ValueError, match="capacity for M must be an integer >= 1"):
            instance([job(0)], TWO_PHASE, m=cap)

    @pytest.mark.parametrize("areas", [1.5, True])
    def test_loaded_instance_rejects_non_integer_assembly_areas(self, tmp_path, areas):
        path = tmp_path / "jobs.csv"
        save_hfs(gen_hfs("d1", 5, seed=0), path)
        with pytest.raises(ValueError, match="assembly_areas must be an integer >= 1"):
            load_hfs(path, assembly_areas=areas)

    def test_type_specs_need_positive_durations(self):
        with pytest.raises(ValueError):
            instance([job(0)], {"J": (("M", 0.0),)})

    def test_type_specs_need_known_categories(self):
        with pytest.raises(ValueError):
            instance([job(0)], {"J": (("X", 1.0),)})


class TestSaveSchedule:
    def test_csv_shape(self, tmp_path):
        inst = instance([job(0), job(1)], TWO_PHASE)
        s = decode_list_schedule(inst, [0, 1])
        path = tmp_path / "sched.csv"
        save_schedule(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "job_id,phase_index,category,start,end"
        assert len(lines) == 5
        assert lines[1] == "0,0,M,0.0,2.0"
