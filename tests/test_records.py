import numpy as np
import pytest

from evoscm import BestTrace, BudgetExhausted


class TestBestTrace:
    def test_remaining_counts_down_by_each_records_count(self):
        trace = BestTrace(maximize=True, limit=6)
        assert trace.remaining == 6
        trace.record(1.0, 3)
        assert trace.remaining == 3
        trace.record(2.0, 1)
        assert trace.remaining == 2
        trace.record(0.5, 2)
        assert trace.remaining == 0
        assert trace.values == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("maximize", [True, False])
    def test_record_past_the_limit_records_nothing(self, maximize):
        trace = BestTrace(maximize, limit=3)
        trace.record(5.0, 2, payload="a")
        with pytest.raises(BudgetExhausted, match="2/3 consumed, wanted 2 more"):
            trace.record(-9.0 if maximize else 9.0, 2, payload="b")
        with pytest.raises(BudgetExhausted):
            trace.record(100.0 if maximize else -100.0, 2, payload="c")
        assert (trace.values, trace.best, trace.best_payload) == ([5.0, 5.0], 5.0, "a")
        assert trace.remaining == 1
        trace.record(7.0 if maximize else 3.0, 1, payload="d")
        with pytest.raises(BudgetExhausted, match="3/3 consumed, wanted 1 more"):
            trace.record(0.0, 1)
        assert len(trace.values) == 3 and trace.best_payload == "d"

    @pytest.mark.parametrize("limit", [0, -1, 2.5, True, None, "3"])
    def test_limit_must_be_an_integer_of_at_least_one(self, limit):
        with pytest.raises(ValueError, match="budget must be >= 1 and an integer"):
            BestTrace(True, limit=limit)

    def test_numpy_integer_limit_is_accepted(self):
        trace = BestTrace(False, limit=np.int64(2))
        assert trace.limit == 2 and type(trace.limit) is int


class TestRunRecord:
    def trace(self):
        trace = BestTrace(maximize=True, limit=5)
        trace.record(1.0, 2)
        trace.record(3.0, 1)
        trace.record(2.0, 2)
        return trace

    def test_scale_applies_to_every_entry_and_the_best(self):
        rec = self.trace().run_record("x", 4, "sol", {}, scale=-2.0)
        assert rec.trace == [-2.0, -2.0, -6.0, -6.0, -6.0]
        assert rec.final_objective == -6.0

    def test_default_scale_keeps_the_trace(self):
        trace = self.trace()
        rec = trace.run_record("x", 4, "sol", {})
        assert rec.trace == trace.values and rec.final_objective == trace.best

    def test_episodes_is_the_trace_length(self):
        rec = self.trace().run_record("x", 4, "sol", {})
        assert rec.episodes == len(rec.trace) == 5

    def test_budget_comes_first_then_the_runner_params_in_order(self):
        rec = self.trace().run_record("x", 4, "sol", {"zeta": 1, "alpha": 2, "mid": 3})
        assert list(rec.params.items()) == [("budget", 5), ("zeta", 1), ("alpha", 2),
                                            ("mid", 3)]

    def test_fields_and_wall_time(self):
        rec = self.trace().run_record("ga", 7, "0 1 2", {})
        assert (rec.algo, rec.seed, rec.solution) == ("ga", 7, "0 1 2")
        assert rec.wall_time >= 0.0

    def test_records_never_share_an_artifacts_dict(self):
        trace = self.trace()
        given = {"tree": "t"}
        a = trace.run_record("x", 0, "", {}, artifacts=given)
        b = trace.run_record("x", 0, "", {}, artifacts=given)
        c, d = trace.run_record("x", 0, "", {}), trace.run_record("x", 0, "", {})
        assert a.artifacts == b.artifacts == given
        assert a.artifacts is not b.artifacts and a.artifacts is not given
        assert c.artifacts is not d.artifacts
        a.artifacts["extra"] = 1
        assert "extra" not in b.artifacts and "extra" not in given
