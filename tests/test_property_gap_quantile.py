"""Differential tests (hypothesis) of the arrival estimator's gap quantile.

``ArrivalEstimator.expected_gap_ms`` takes numpy's default ``linear``
quantile of its gap window in plain Python (``linear_quantile``).  The
reference is ``np.quantile`` itself; the two must agree bit for bit,
including on windows full of ties, zeros and subnormal gaps.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.optimizer.optimizer import ArrivalEstimator, linear_quantile
from repro.webapp.events import EventType

MAX_SAMPLES = ArrivalEstimator().max_samples

#: Values drawn often enough to repeat: ties, zero and two subnormals.
SPECIAL_GAPS = (0.0, 5e-324, 1e-310, 1.0, 250.0, 250.00000000000003)

gaps = st.one_of(
    st.sampled_from(SPECIAL_GAPS),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
)
quantiles = st.one_of(
    st.sampled_from([0.25, 0.5, 1e-300]),
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
)


def numpy_quantile(values, q) -> float:
    return float(np.quantile(values, q))


class TestLinearQuantileMatchesNumpy:
    @given(values=st.lists(gaps, min_size=1, max_size=MAX_SAMPLES + 1), q=quantiles)
    @example(values=[7.0], q=0.25)
    @example(values=[0.0, 5e-324], q=0.5)
    @example(values=[1.0, 2.0, 3.0, 4.0, 5.0], q=0.5)
    @example(values=[0.1, 0.7, 0.3], q=0.25)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal(self, values, q):
        assert linear_quantile(sorted(values), q).hex() == numpy_quantile(values, q).hex()

    @given(
        arrivals=st.lists(gaps, min_size=1, max_size=MAX_SAMPLES + 2),
        q=quantiles,
        conservatism=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_estimator_over_its_window(self, arrivals, q, conservatism):
        # Taps only, so every gap lands in one window, which drops its
        # oldest gap once it holds more than max_samples.
        estimator = ArrivalEstimator(conservatism=conservatism, quantile=q)
        clock = 0.0
        window = []
        for gap in arrivals:
            clock += gap
            if estimator._last_arrival_ms is not None:
                window = (window + [clock - estimator._last_arrival_ms])[-MAX_SAMPLES:]
            estimator.record_arrival(EventType.CLICK, clock)
        expected = estimator.initial_gap_ms[estimator._last_interaction]
        if window:
            expected = numpy_quantile(window, q)
        assert estimator.expected_gap_ms(EventType.CLICK).hex() == (conservatism * expected).hex()
