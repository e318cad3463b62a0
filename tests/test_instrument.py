"""Edge cases of the instrumentation layer: deadline remaining-time
queries, counter families, and the counter-reset clamp in
:func:`counter_delta`.
"""

import pytest

from repro.errors import TimeoutError
from tests.helpers import FakeClock

from repro.instrument import (
    Counters,
    Deadline,
    counter_delta,
    counter_snapshot,
)


class TestDeadline:
    def test_unbounded_deadline_never_expires(self):
        d = Deadline(None)
        assert d.remaining() is None
        assert not d.expired()
        d.check("anything")  # must not raise

    def test_remaining_counts_down_and_clamps_at_zero(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        clock.now = 1.5
        assert d.remaining() == pytest.approx(0.5)
        clock.now = 7.0
        assert d.remaining() == 0.0
        assert d.expired()
        with pytest.raises(TimeoutError):
            d.check("enumeration")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestCounters:
    def test_declared_and_counted_names_snapshot_under_prefix(self):
        family = Counters("test.family", ("hot",))
        family.hot += 2
        family.count("cold", 3)
        family.count("hot")
        snap = counter_snapshot()
        assert snap["test.family.hot"] == 3
        assert snap["test.family.cold"] == 3
        assert family.snapshot() == {
            "test.family.hot": 3,
            "test.family.cold": 3,
        }

    def test_delta_clamps_a_reset(self):
        family = Counters("test.resettable", ("hits",))
        family.hits = 5
        before = counter_snapshot()
        family.reset()
        family.hits += 1
        delta = counter_delta(before, counter_snapshot())
        assert delta["test.resettable.hits"] == 0
        assert delta["counters_reset"] == 1


class TestCounterDelta:
    def test_plain_increase(self):
        assert counter_delta({"a": 1}, {"a": 4, "b": 2}) == {"a": 3, "b": 2}

    def test_reset_clamped_and_tallied(self):
        # A pool respawn replaces the worker source: the counter
        # restarts below its previous snapshot.
        delta = counter_delta({"a": 10, "b": 1}, {"a": 3, "b": 5})
        assert delta == {"a": 0, "b": 4, "counters_reset": 1}

    def test_multiple_resets_accumulate(self):
        delta = counter_delta({"a": 10, "b": 10}, {"a": 0, "b": 2})
        assert delta == {"a": 0, "b": 0, "counters_reset": 2}

    def test_no_reset_key_when_monotone(self):
        assert "counters_reset" not in counter_delta({"a": 1}, {"a": 1})
