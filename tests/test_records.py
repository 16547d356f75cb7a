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
