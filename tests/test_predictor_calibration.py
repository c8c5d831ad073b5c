"""Tests for confidence (temperature) calibration and the arrival estimator."""

import numpy as np
import pytest

from repro.core.optimizer.optimizer import ArrivalEstimator
from repro.core.predictor.logistic import SoftmaxRegression
from repro.webapp.events import EventType, interaction_of


def argmax_dataset(n=800, seed=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    scores = np.stack([X[:, 0], X[:, 1], -(X[:, 0] + X[:, 1])], axis=1)
    y = scores.argmax(axis=1)
    return np.hstack([X, np.ones((n, 1))]), y


class TestTemperatureCalibration:
    def test_calibration_does_not_change_predictions(self):
        X, y = argmax_dataset()
        model = SoftmaxRegression(n_classes=3, max_iterations=800).fit(X, y)
        before = model.predict_proba(X).argmax(axis=1)
        model.calibrate_temperature(X, y)
        after = model.predict_proba(X).argmax(axis=1)
        assert np.array_equal(before, after)

    def test_calibration_improves_nll(self):
        X, y = argmax_dataset()
        model = SoftmaxRegression(n_classes=3, max_iterations=800).fit(X, y)

        def nll(m):
            probabilities = m.predict_proba(X)
            return -float(np.mean(np.log(probabilities[np.arange(y.shape[0]), y] + 1e-12)))

        before = nll(model)
        model.calibrate_temperature(X, y)
        assert nll(model) <= before + 1e-9

    def test_sharpening_on_nearly_separable_data(self):
        """On data the model classifies almost perfectly, calibrated
        confidence should be high (temperature < 1 sharpens)."""
        X, y = argmax_dataset()
        model = SoftmaxRegression(n_classes=3, max_iterations=1500, learning_rate=1.0).fit(X, y)
        model.calibrate_temperature(X, y)
        assert model.temperature <= 1.0
        confidence = model.predict_proba(X).max(axis=1).mean()
        assert confidence > 0.8

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            SoftmaxRegression(n_classes=3, temperature=0.0)

    def test_calibrate_requires_fit(self):
        model = SoftmaxRegression(n_classes=3)
        with pytest.raises(RuntimeError):
            model.calibrate_temperature(np.zeros((2, 3)), np.zeros(2, dtype=int))

    def test_trained_learner_is_calibrated(self, learner, trained):
        """The conftest learner is trained with calibration enabled: its
        confidence should be in the same band as its accuracy."""
        assert learner.model.temperature <= 1.0


class TestQuantileArrivalEstimator:
    def test_uses_low_quantile_of_bimodal_gaps(self):
        """Bursty gaps (250 ms) mixed with long think times (7 s): the
        estimate must protect against the bursts, not the average."""
        estimator = ArrivalEstimator(conservatism=1.0, quantile=0.25)
        clock = 0.0
        gaps = [250.0, 250.0, 7000.0, 250.0, 250.0, 7000.0, 250.0, 250.0]
        estimator.record_arrival(EventType.SCROLL, clock)
        for gap in gaps:
            clock += gap
            estimator.record_arrival(EventType.SCROLL, clock)
        assert estimator.expected_gap_ms(EventType.SCROLL) <= 300.0

    def test_sample_window_is_bounded(self):
        estimator = ArrivalEstimator(max_samples=10)
        clock = 0.0
        estimator.record_arrival(EventType.CLICK, clock)
        for _ in range(50):
            clock += 100.0
            estimator.record_arrival(EventType.CLICK, clock)
        assert len(estimator._gaps[interaction_of(EventType.CLICK)]) == 10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ArrivalEstimator(quantile=0.9)
        with pytest.raises(ValueError):
            ArrivalEstimator(max_samples=0)
