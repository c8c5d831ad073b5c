"""Unit tests for the from-scratch logistic models.

:class:`SoftmaxRegression` is the model the predictor trains.  The binary
:class:`LogisticRegression` and its one-vs-rest composition
:class:`OneVsRestLogistic` — the paper's literal "set of logistic models"
— live here as the reference the softmax model is compared against, and
:func:`reference_softmax_fit` keeps the plain numpy loop that the
optimised :meth:`SoftmaxRegression.fit` must reproduce bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.predictor.logistic import (
    SoftmaxRegression,
    _mask_and_normalise,
    _weights_equal,
)

from repro.core.predictor.training import PredictorTrainer
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import SEEN_APPS, AppCatalog

from test_train_golden import training_dataset


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() in range; gradients at the clip edge are ~1e-15
    # so training behaviour is unaffected.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


@dataclass
class LogisticRegression:
    """Binary logistic model trained by full-batch gradient descent."""

    learning_rate: float = 0.5
    max_iterations: int = 400
    l2: float = 1e-3
    tolerance: float = 1e-6
    weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        """Fit on a feature matrix (n_samples, n_features) and 0/1 labels."""
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector matching the number of samples")
        if not np.isin(labels, (0.0, 1.0)).all():
            raise ValueError("labels must be binary (0/1)")

        n_samples, n_features = features.shape
        weights = np.zeros(n_features)
        previous_loss = np.inf
        for _ in range(self.max_iterations):
            probabilities = _sigmoid(features @ weights)
            gradient = features.T @ (probabilities - labels) / n_samples + self.l2 * weights
            weights -= self.learning_rate * gradient
            loss = self._loss(features, labels, weights)
            if abs(previous_loss - loss) < self.tolerance:
                break
            previous_loss = loss
        self.weights = weights
        return self

    def _loss(self, features: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> float:
        probabilities = _sigmoid(features @ weights)
        eps = 1e-12
        nll = -np.mean(
            labels * np.log(probabilities + eps) + (1 - labels) * np.log(1 - probabilities + eps)
        )
        return float(nll + 0.5 * self.l2 * np.dot(weights, weights))

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``features``."""
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return _sigmoid(features @ self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogisticRegression):
            return NotImplemented
        return (
            self.learning_rate == other.learning_rate
            and self.max_iterations == other.max_iterations
            and self.l2 == other.l2
            and self.tolerance == other.tolerance
            and _weights_equal(self.weights, other.weights)
        )


@dataclass
class OneVsRestLogistic:
    """A set of binary logistic models, one per class.

    ``predict_proba`` returns the per-class positive probabilities
    normalised to sum to one, which serve both for ranking (argmax = the
    predicted next event) and as the confidence value of the prediction.
    """

    n_classes: int
    learning_rate: float = 0.5
    max_iterations: int = 400
    l2: float = 1e-3
    models: list[LogisticRegression] = field(default_factory=list, repr=False)
    #: Cached stack of the per-class weight vectors, shape (n_classes,
    #: n_features); rebuilt whenever any model's weights change so a whole
    #: candidate set is scored with one ``features @ W.T`` matmul.
    _weight_matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    _weight_refs: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("need at least two classes")

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "OneVsRestLogistic":
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("labels out of range for the configured number of classes")
        self.models = []
        for klass in range(self.n_classes):
            model = LogisticRegression(
                learning_rate=self.learning_rate,
                max_iterations=self.max_iterations,
                l2=self.l2,
            )
            model.fit(features, (labels == klass).astype(float))
            self.models.append(model)
        return self

    @property
    def is_fitted(self) -> bool:
        return len(self.models) == self.n_classes

    def _stacked_weights(self) -> np.ndarray:
        refs = tuple(model.weights for model in self.models)
        if any(weights is None for weights in refs):
            raise RuntimeError("model is not fitted")
        stale = (
            self._weight_matrix is None
            or len(refs) != len(self._weight_refs)
            or any(a is not b for a, b in zip(refs, self._weight_refs))
        )
        if stale:
            self._weight_matrix = np.stack(refs, axis=0)
            self._weight_refs = refs
        return self._weight_matrix

    def raw_proba(self, features: np.ndarray) -> np.ndarray:
        """Unnormalised per-class positive probabilities, shape (n, n_classes)."""
        if not self.is_fitted:
            raise RuntimeError("model is not fitted")
        weights = self._stacked_weights()
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return _sigmoid(features @ weights.T)

    def predict_proba(self, features: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Normalised class probabilities, optionally restricted by ``mask``."""
        return _mask_and_normalise(self.raw_proba(features), mask, self.n_classes)

    def predict(self, features: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        return self.predict_proba(features, mask).argmax(axis=1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OneVsRestLogistic):
            return NotImplemented
        return (
            self.n_classes == other.n_classes
            and self.learning_rate == other.learning_rate
            and self.max_iterations == other.max_iterations
            and self.l2 == other.l2
            and self.models == other.models
        )


def reference_softmax_fit(
    model: SoftmaxRegression, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, int]:
    """The plain softmax fit loop: the weights it reaches and the number of
    iterations it ran.  :meth:`SoftmaxRegression.fit` must match it bit for
    bit."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_samples, n_features = features.shape
    weights = np.zeros((model.n_classes, n_features))
    one_hot = np.eye(model.n_classes)[labels]
    previous_loss = np.inf
    iterations = 0
    for _ in range(model.max_iterations):
        iterations += 1
        scores = features @ weights.T
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probabilities = exp / exp.sum(axis=1, keepdims=True)
        gradient = (probabilities - one_hot).T @ features / n_samples + model.l2 * weights
        weights -= model.learning_rate * gradient
        eps = 1e-12
        nll = -np.mean(np.log(probabilities[np.arange(labels.shape[0]), labels] + eps))
        loss = float(nll + 0.5 * model.l2 * np.sum(weights * weights))
        if abs(previous_loss - loss) < model.tolerance:
            break
        previous_loss = loss
    return weights, iterations


def linearly_separable(n: int = 400, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    X = np.hstack([X, np.ones((n, 1))])
    return X, y


def three_class_problem(n: int = 600, seed: int = 1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    scores = np.stack([X[:, 0], X[:, 1], -(X[:, 0] + X[:, 1])], axis=1)
    y = scores.argmax(axis=1)
    X = np.hstack([X, np.ones((n, 1))])
    return X, y


class TestBinaryLogistic:
    def test_fits_linearly_separable_data(self):
        X, y = linearly_separable()
        model = LogisticRegression(max_iterations=800, learning_rate=1.0)
        model.fit(X, y.astype(float))
        predictions = (model.predict_proba(X) > 0.5).astype(int)
        assert (predictions == y).mean() > 0.95

    def test_probabilities_in_unit_interval(self):
        X, y = linearly_separable()
        model = LogisticRegression().fit(X, y.astype(float))
        probabilities = model.predict_proba(X)
        assert np.all(probabilities >= 0.0) and np.all(probabilities <= 1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(np.zeros((1, 3)))

    def test_rejects_non_binary_labels(self):
        X, _ = linearly_separable()
        with pytest.raises(ValueError):
            LogisticRegression().fit(X, np.full(X.shape[0], 2.0))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((10, 2)), np.zeros(5))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression(learning_rate=0.0)
        with pytest.raises(ValueError):
            LogisticRegression(l2=-1.0)


class TestOneVsRest:
    def test_fits_multiclass_problem(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3, max_iterations=800, learning_rate=1.0)
        model.fit(X, y)
        assert (model.predict(X) == y).mean() > 0.85

    def test_probabilities_normalised(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        probabilities = model.predict_proba(X[:10])
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_mask_restricts_classes(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        mask = np.array([True, False, True])
        predictions = model.predict(X, mask)
        assert set(np.unique(predictions)) <= {0, 2}

    def test_mask_must_keep_at_least_one_class(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_proba(X[:1], np.array([False, False, False]))

    def test_labels_out_of_range_rejected(self):
        X, y = three_class_problem()
        with pytest.raises(ValueError):
            OneVsRestLogistic(n_classes=2).fit(X, y)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            OneVsRestLogistic(n_classes=1)


class TestVectorisedOneVsRest:
    """The stacked-weight-matrix path must match the per-model Python loop."""

    def test_raw_proba_matches_per_model_loop(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        vectorised = model.raw_proba(X)
        looped = np.stack([m.predict_proba(X) for m in model.models], axis=1)
        assert np.allclose(vectorised, looped, rtol=1e-12, atol=1e-15)

    def test_predict_proba_matches_per_model_loop(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        mask = np.array([True, False, True])
        vectorised = model.predict_proba(X, mask)
        looped = np.stack([m.predict_proba(X) for m in model.models], axis=1) * mask
        looped = looped / looped.sum(axis=1, keepdims=True)
        assert np.allclose(vectorised, looped, rtol=1e-12, atol=1e-15)

    def test_weight_matrix_rebuilt_after_refit(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        before = model.raw_proba(X[:5])
        model.fit(X[:300], y[:300])
        after = model.raw_proba(X[:5])
        assert not np.allclose(before, after)
        looped = np.stack([m.predict_proba(X[:5]) for m in model.models], axis=1)
        assert np.allclose(after, looped, rtol=1e-12, atol=1e-15)


class TestPerRowMasks:
    """2-D masks score a whole batch with per-row class restrictions."""

    @pytest.mark.parametrize("model_factory", [
        lambda: OneVsRestLogistic(n_classes=3),
        lambda: SoftmaxRegression(n_classes=3),
    ])
    def test_matches_row_by_row_1d_masks(self, model_factory):
        X, y = three_class_problem()
        model = model_factory().fit(X, y)
        rng = np.random.default_rng(7)
        masks = rng.random((10, 3)) > 0.4
        masks[~masks.any(axis=1), 0] = True  # every row keeps >= 1 class
        batched = model.predict_proba(X[:10], masks)
        rows = np.vstack([model.predict_proba(X[i : i + 1], masks[i]) for i in range(10)])
        assert np.allclose(batched, rows, rtol=1e-12, atol=1e-15)

    def test_rejects_wrong_row_count(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_proba(X[:5], np.ones((4, 3), dtype=bool))

    def test_rejects_row_removing_every_class(self):
        X, y = three_class_problem()
        model = SoftmaxRegression(n_classes=3).fit(X, y)
        masks = np.ones((3, 3), dtype=bool)
        masks[1] = False
        with pytest.raises(ValueError):
            model.predict_proba(X[:3], masks)

    def test_rejects_3d_mask(self):
        X, y = three_class_problem()
        model = OneVsRestLogistic(n_classes=3).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_proba(X[:2], np.ones((2, 3, 1), dtype=bool))


class TestSoftmax:
    def test_recovers_argmax_partition(self):
        X, y = three_class_problem()
        model = SoftmaxRegression(n_classes=3, max_iterations=1500, learning_rate=1.0)
        model.fit(X, y)
        assert (model.predict_proba(X).argmax(axis=1) == y).mean() > 0.95

    def test_probabilities_sum_to_one(self):
        X, y = three_class_problem()
        model = SoftmaxRegression(n_classes=3).fit(X, y)
        probabilities = model.predict_proba(X[:20])
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_mask_restriction_and_renormalisation(self):
        X, y = three_class_problem()
        model = SoftmaxRegression(n_classes=3).fit(X, y)
        mask = np.array([False, True, True])
        probabilities = model.predict_proba(X[:5], mask)
        assert np.allclose(probabilities[:, 0], 0.0)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_beats_or_matches_ovr_on_argmax_data(self):
        """The joint normalisation should not lose accuracy relative to the
        one-vs-rest composition on softmax-generated labels."""
        X, y = three_class_problem(n=900, seed=3)
        softmax = SoftmaxRegression(n_classes=3, max_iterations=1500, learning_rate=1.0).fit(X, y)
        ovr = OneVsRestLogistic(n_classes=3, max_iterations=1500, learning_rate=1.0).fit(X, y)
        assert (softmax.predict_proba(X).argmax(axis=1) == y).mean() >= (ovr.predict(X) == y).mean() - 0.02

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxRegression(n_classes=3).predict_proba(np.zeros((1, 3)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SoftmaxRegression(n_classes=1)
        with pytest.raises(ValueError):
            SoftmaxRegression(n_classes=3, learning_rate=-1.0)


class TestModelEquality:
    """Value equality on fitted models (the PES cache compares learners)."""

    @staticmethod
    def _fitted_pair(model_cls):
        import numpy as np

        rng = np.random.default_rng(0)
        features = rng.normal(size=(60, 4))
        labels = rng.integers(0, 3, size=60)
        a = model_cls(n_classes=3).fit(features, labels)
        b = model_cls(n_classes=3).fit(features, labels)
        return a, b

    def test_identically_fitted_softmax_models_are_equal(self):
        a, b = self._fitted_pair(SoftmaxRegression)
        assert a == b
        b.temperature = 0.5
        assert a != b

    def test_identically_fitted_ovr_models_are_equal(self):
        a, b = self._fitted_pair(OneVsRestLogistic)
        assert a == b
        b.models[0].weights = b.models[0].weights + 1.0
        assert a != b

    def test_unfitted_differs_from_fitted(self):
        a, _ = self._fitted_pair(SoftmaxRegression)
        assert a != SoftmaxRegression(n_classes=3)
        assert SoftmaxRegression(n_classes=3) == SoftmaxRegression(n_classes=3)

    def test_cross_type_comparison_is_false_not_an_error(self):
        a, _ = self._fitted_pair(SoftmaxRegression)
        b, _ = self._fitted_pair(OneVsRestLogistic)
        assert a != b

    def test_deepcopied_learner_compares_equal(self, learner):
        import copy

        clone = copy.deepcopy(learner)
        assert clone == learner
        clone.confidence_threshold = 0.99
        assert clone != learner


def random_problem(seed: int):
    """A random softmax problem: n 1-600, F 1-8, K 2-20, every third one with
    features scaled x30 (large logits, saturated probabilities, ties)."""
    rng = np.random.default_rng(seed)
    n_samples = int(rng.integers(1, 601))
    n_features = int(rng.integers(1, 9))
    n_classes = int(rng.integers(2, 21))
    features = rng.normal(size=(n_samples, n_features))
    if seed % 3 == 0:
        features *= 30.0
    labels = rng.integers(0, n_classes, size=n_samples)
    return features, labels, n_classes, int(rng.integers(1, 301))


class TestSoftmaxFitMatchesReference:
    """The in-place fit reaches exactly the reference loop's weights."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_shapes(self, seed):
        features, labels, n_classes, max_iterations = random_problem(seed)
        model = SoftmaxRegression(n_classes=n_classes, max_iterations=max_iterations)
        expected, _ = reference_softmax_fit(model, features, labels)
        assert np.array_equal(model.fit(features, labels).weights, expected)

    @pytest.mark.parametrize("n_classes", [2, 7, 8, 9, 16])
    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 300])
    def test_iteration_caps(self, n_classes, max_iterations):
        rng = np.random.default_rng(n_classes)
        features = rng.normal(size=(97, 4)) * 30.0
        labels = rng.integers(0, n_classes, size=97)
        model = SoftmaxRegression(n_classes=n_classes, max_iterations=max_iterations)
        expected, _ = reference_softmax_fit(model, features, labels)
        assert np.array_equal(model.fit(features, labels).weights, expected)

    def test_tolerances_that_stop_early(self):
        X, y = three_class_problem()
        stops = set()
        for tolerance in (1e-2, 1e-3, 1e-4, 1e-5):
            model = SoftmaxRegression(n_classes=3, max_iterations=5000, tolerance=tolerance)
            expected, iterations = reference_softmax_fit(model, X, y)
            assert iterations < model.max_iterations
            stops.add(iterations)
            assert np.array_equal(model.fit(X, y).weights, expected)
        assert len(stops) == 4

    def test_default_learner_dataset(self):
        """The default ``scenarios run`` learner: all 2,000 iterations, and
        the same calibrated temperature."""
        features, labels = training_dataset()
        model = SoftmaxRegression(n_classes=6).fit(features, labels)
        reference = SoftmaxRegression(n_classes=6)
        reference.weights, iterations = reference_softmax_fit(reference, features, labels)
        assert iterations == reference.max_iterations
        assert np.array_equal(model.weights, reference.weights)
        assert model.calibrate_temperature(features, labels) == (
            reference.calibrate_temperature(features, labels)
        )

    def test_train_command_dataset(self):
        """``train --traces-per-app 6``'s dataset (12 seen apps x 6 traces,
        seed 0): the class-major forward product equals the sample-major one
        on it for all 2,000 steps, which holds by measurement, not by
        construction."""
        traces = TraceGenerator(catalog=AppCatalog()).generate_many(
            list(SEEN_APPS), 6, base_seed=0
        )
        features, labels = PredictorTrainer(catalog=AppCatalog()).build_dataset(traces)
        assert features.shape == (2575, 6)
        model = SoftmaxRegression(n_classes=6)
        expected, iterations = reference_softmax_fit(model, features, labels)
        assert iterations == model.max_iterations
        assert np.array_equal(model.fit(features, labels).weights, expected)

    @pytest.mark.parametrize("n_classes", [2, 6, 7, 8, 9, 16])
    def test_large_random_problems(self, n_classes):
        rng = np.random.default_rng(1000 + n_classes)
        n_samples = int(rng.integers(1000, 4001))
        features = rng.normal(size=(n_samples, 6))
        features[:, -1] = 1.0
        labels = rng.integers(0, n_classes, size=n_samples)
        model = SoftmaxRegression(n_classes=n_classes, max_iterations=40)
        expected, _ = reference_softmax_fit(model, features, labels)
        assert np.array_equal(model.fit(features, labels).weights, expected)


class TestSoftmaxRejectsBadInput:
    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="at least one sample"):
            SoftmaxRegression(n_classes=3).fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("bad_label", [0.7, 2.9, np.nan, np.inf])
    def test_non_integral_labels(self, bad_label):
        X, y = three_class_problem(n=30)
        labels = y.astype(float)
        labels[5] = bad_label
        with pytest.raises(ValueError, match="integral"):
            SoftmaxRegression(n_classes=3).fit(X, labels)
        model = SoftmaxRegression(n_classes=3).fit(X, y)
        with pytest.raises(ValueError, match="integral"):
            model.calibrate_temperature(X, labels)

    def test_integral_float_labels_fit_like_ints(self):
        X, y = three_class_problem(n=30)
        as_float = SoftmaxRegression(n_classes=3).fit(X, y.astype(float))
        assert as_float == SoftmaxRegression(n_classes=3).fit(X, y)

    @pytest.mark.parametrize("bad_feature", [np.nan, np.inf, -np.inf])
    def test_non_finite_features(self, bad_feature):
        X, y = three_class_problem(n=30)
        model = SoftmaxRegression(n_classes=3).fit(X, y)
        X = X.copy()
        X[4, 1] = bad_feature
        with pytest.raises(ValueError, match="finite"):
            SoftmaxRegression(n_classes=3).fit(X, y)
        with pytest.raises(ValueError, match="finite"):
            model.calibrate_temperature(X, y)
        assert model.temperature == 1.0

    def test_labels_out_of_range(self):
        X, y = three_class_problem(n=30)
        with pytest.raises(ValueError, match="out of range"):
            SoftmaxRegression(n_classes=2).fit(X, y)

    @pytest.mark.parametrize("setting", [
        {"learning_rate": np.nan},
        {"tolerance": -1e-7},
        {"tolerance": np.nan},
        {"l2": np.nan},
        {"temperature": np.nan},
    ])
    def test_bad_settings_rejected_at_construction(self, setting):
        with pytest.raises(ValueError):
            SoftmaxRegression(n_classes=3, **setting)

    def test_zero_tolerance_runs_every_iteration(self):
        X, y = three_class_problem(n=60)
        model = SoftmaxRegression(n_classes=3, max_iterations=50, tolerance=0.0)
        expected, iterations = reference_softmax_fit(model, X, y)
        assert iterations == 50
        assert np.array_equal(model.fit(X, y).weights, expected)
