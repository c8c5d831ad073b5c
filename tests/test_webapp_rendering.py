"""Unit tests for the rendering pipeline and VSync quantisation."""

import pytest

from repro.webapp.rendering import DEFAULT_STAGE_SHARES, RenderingPipeline, VSYNC_PERIOD_MS


class TestPipelineConstruction:
    def test_default_shares_sum_to_one(self):
        assert sum(DEFAULT_STAGE_SHARES.values()) == pytest.approx(1.0)

    def test_rejects_shares_not_summing_to_one(self):
        with pytest.raises(ValueError):
            RenderingPipeline(stage_shares={"callback": 0.5, "style": 0.1})

    def test_rejects_negative_share(self):
        with pytest.raises(ValueError):
            RenderingPipeline(stage_shares={"callback": 1.2, "style": -0.2})

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
