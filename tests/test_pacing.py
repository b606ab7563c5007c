"""The open-loop pacer: absolute deadlines, exact totals, no drift.

Regression tests for the pacing-drift bug: the old generator slept a
fixed tick *relative to now*, so per-tick scheduling slop (sleep
granularity + tick-body time) compounded across the run -- a nominal
5s/5000-message phase offered measurably fewer messages the higher the
rate.  :class:`~repro.net.cluster.Pacer` fixes every deadline up front
as ``start + k * tick`` (computed multiplicatively from ``k``, never by
summing increments) and makes the cumulative quota a pure function of
the tick index, so the offered count is exact by construction.
"""

import asyncio
import time

import pytest

from repro.net.cluster import Pacer


class TestQuotaExactness:
    @pytest.mark.parametrize(
        "rate,duration",
        [(1000.0, 5.0), (333.0, 1.7), (72400.0, 2.0), (7.0, 0.3), (2.0, 0.1)],
    )
    def test_final_quota_is_round_rate_times_duration(self, rate, duration):
        pacer = Pacer(rate, duration)
        assert pacer.due(pacer.ticks) == max(1, int(round(rate * duration)))
        # Overshooting the schedule never overshoots the quota.
        assert pacer.due(pacer.ticks + 100) == pacer.total

    def test_quota_is_monotone_and_clamped(self):
        pacer = Pacer(950.0, 2.0)
        quotas = [pacer.due(k) for k in range(pacer.ticks + 1)]
        assert quotas[0] == 0
        assert all(a <= b for a, b in zip(quotas, quotas[1:]))
        assert quotas[-1] == pacer.total
        assert pacer.due(-3) == 0

    def test_per_tick_increments_stay_near_rate(self):
        # No tick is asked to emit a burst that would betray drift
        # correction by catch-up (the schedule is exact, so increments
        # only wobble by rounding).
        pacer = Pacer(10_000.0, 1.0)
        per_tick = pacer.total / pacer.ticks
        for k in range(1, pacer.ticks + 1):
            increment = pacer.due(k) - pacer.due(k - 1)
            assert abs(increment - per_tick) <= 1.0


class TestDeadlinesAreAbsolute:
    def test_deadlines_are_multiplicative_not_cumulative(self):
        pacer = Pacer(1000.0, 3.0, tick=0.007)
        # Summing float increments drifts; k * tick must not.  Compare
        # the closed form against naive accumulation at the last tick.
        accumulated = 0.0
        for _ in range(pacer.ticks):
            accumulated += pacer.tick
        assert pacer.deadline(pacer.ticks) == pytest.approx(
            pacer.duration, abs=1e-9
        )
        # The naive sum is measurably off at this tick count; the
        # closed form is what keeps lateness from compounding.
        assert pacer.deadline(pacer.ticks) == pacer.ticks * pacer.tick

    def test_last_deadline_is_the_duration(self):
        for rate, duration in ((100.0, 1.0), (72400.0, 0.5), (3.0, 2.25)):
            pacer = Pacer(rate, duration)
            assert pacer.deadline(pacer.ticks) == pytest.approx(duration)

    def test_tick_divides_duration_evenly(self):
        pacer = Pacer(500.0, 1.0, tick=0.03)
        assert pacer.ticks * pacer.tick == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        for rate, duration in ((0.0, 1.0), (100.0, 0.0), (-5.0, 1.0)):
            with pytest.raises(ValueError):
                Pacer(rate, duration)


class TestPacingAccuracyLive:
    """Drive a real asyncio loop against the schedule and measure.

    The accuracy bound is deliberately loose (CI boxes stall), but it
    would have caught the drift bug: under the old relative-sleep
    scheme this loop at 2000 msgs/s ran ~5-10% long on a busy core,
    while absolute deadlines keep the phase within a few ticks of
    nominal regardless of slop.
    """

    def _drive(self, rate, duration):
        async def loop_body():
            pacer = Pacer(rate, duration)
            loop = asyncio.get_running_loop()
            start = loop.time()
            emitted = 0
            async for tick in pacer.schedule():
                due = pacer.due(tick)
                if due > emitted:
                    emitted = due
                # Simulate tick-body work: a late tick must borrow from
                # the next sleep, not stretch the schedule.
                if tick % 7 == 0:
                    time.sleep(0.001)
            return emitted, loop.time() - start

        return asyncio.run(loop_body())

    def test_offered_count_is_exact_and_phase_does_not_stretch(self):
        rate, duration = 2000.0, 0.5
        emitted, elapsed = self._drive(rate, duration)
        assert emitted == int(round(rate * duration))
        # Injected lateness (~70ms total) must be absorbed, not added:
        # the phase may run at most a tick or two past nominal.
        assert elapsed < duration * 1.15
        assert elapsed >= duration * 0.95
