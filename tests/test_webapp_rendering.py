"""Unit tests for frame timing: VSync quantisation and the planning margin."""

import math

import pytest

from repro.webapp.rendering import (
    PLANNING_MARGIN_MS,
    VSYNC_PERIOD_MS,
    next_vsync_ms,
    planning_deadline_ms,
)


class TestVsync:
    def test_60hz_period(self):
        assert VSYNC_PERIOD_MS == pytest.approx(1000.0 / 60.0)

    def test_next_vsync_rounds_up(self):
        assert next_vsync_ms(0.0) == pytest.approx(0.0)
        assert next_vsync_ms(1.0) == pytest.approx(VSYNC_PERIOD_MS)
        assert next_vsync_ms(VSYNC_PERIOD_MS) == pytest.approx(VSYNC_PERIOD_MS)
        assert next_vsync_ms(VSYNC_PERIOD_MS + 0.1) == pytest.approx(2 * VSYNC_PERIOD_MS)

    def test_next_vsync_rejects_negative_time(self):
        with pytest.raises(ValueError):
            next_vsync_ms(-1.0)


class TestPlanningDeadline:
    def test_subtracts_the_margin(self):
        assert planning_deadline_ms(300.0, 100.0) == 300.0 - PLANNING_MARGIN_MS
        assert planning_deadline_ms(1234.5, 0.0) == 1234.5 - PLANNING_MARGIN_MS

    def test_clamps_at_release(self):
        # A deadline closer than the margin, or already past, plans at release.
        assert planning_deadline_ms(105.0, 100.0) == 100.0
        assert planning_deadline_ms(100.0 + PLANNING_MARGIN_MS, 100.0) == 100.0
        assert planning_deadline_ms(50.0, 100.0) == 100.0

    def test_one_ulp_past_the_clamp_is_kept(self):
        deadline = math.nextafter(100.0 + PLANNING_MARGIN_MS, math.inf)
        assert planning_deadline_ms(deadline, 100.0) == deadline - PLANNING_MARGIN_MS > 100.0
