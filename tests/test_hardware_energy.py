"""Unit tests for hardware switching costs."""

import pytest

from repro.hardware.acmp import AcmpConfig
from repro.hardware.energy import SwitchingCosts


class TestSwitchingCosts:
    def test_no_cost_when_config_unchanged(self):
        costs = SwitchingCosts()
        config = AcmpConfig("A15", 1000)
        assert costs.switch_latency_ms(config, config) == 0.0

    def test_no_cost_from_cold_start(self):
        costs = SwitchingCosts()
        assert costs.switch_latency_ms(None, AcmpConfig("A15", 1000)) == 0.0

    def test_frequency_switch_cost(self):
        costs = SwitchingCosts(frequency_switch_ms=0.1, core_migration_ms=0.02)
        cost = costs.switch_latency_ms(AcmpConfig("A15", 800), AcmpConfig("A15", 1800))
        assert cost == pytest.approx(0.1)

    def test_migration_includes_frequency_switch(self):
        costs = SwitchingCosts(frequency_switch_ms=0.1, core_migration_ms=0.02)
        cost = costs.switch_latency_ms(AcmpConfig("A15", 800), AcmpConfig("A7", 500))
        assert cost == pytest.approx(0.12)

