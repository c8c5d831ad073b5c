"""Unit tests for the rendering pipeline and VSync quantisation."""

import pytest

from repro.webapp.rendering import RenderingPipeline, VSYNC_PERIOD_MS


class TestPipelineConstruction:
    def test_rejects_nonpositive_vsync(self):
        with pytest.raises(ValueError):
            RenderingPipeline(vsync_period_ms=0.0)


class TestVsync:
    def test_60hz_period(self):
        assert VSYNC_PERIOD_MS == pytest.approx(1000.0 / 60.0)

    def test_next_vsync_rounds_up(self):
        pipeline = RenderingPipeline()
        assert pipeline.next_vsync_ms(0.0) == pytest.approx(0.0)
        assert pipeline.next_vsync_ms(1.0) == pytest.approx(VSYNC_PERIOD_MS)
        assert pipeline.next_vsync_ms(VSYNC_PERIOD_MS) == pytest.approx(VSYNC_PERIOD_MS)
        assert pipeline.next_vsync_ms(VSYNC_PERIOD_MS + 0.1) == pytest.approx(2 * VSYNC_PERIOD_MS)

    def test_next_vsync_rejects_negative_time(self):
        with pytest.raises(ValueError):
            RenderingPipeline().next_vsync_ms(-1.0)
