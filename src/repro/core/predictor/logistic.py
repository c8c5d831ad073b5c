"""Logistic regression, implemented from scratch on numpy.

The paper deliberately chooses logistic regression over heavier temporal
models (LSTMs): "the event sequence learner employs a set of logistic
models, each of which estimates the probability of one possible next event
through ln(p/(1-p)) = xβ".  :class:`LogisticRegression` is one such binary
model; :class:`OneVsRestLogistic` is the set — one model per event class.
Training fits :class:`SoftmaxRegression`, their multinomial counterpart,
whose calibrated class probabilities double as the prediction confidence
values used by the confidence-threshold mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _weights_equal(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Value equality for optional weight arrays (both unset, or identical)."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() in range; gradients at the clip edge are ~1e-15
    # so training behaviour is unaffected.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _mask_and_normalise(
    probabilities: np.ndarray, mask: np.ndarray | None, n_classes: int
) -> np.ndarray:
    """Zero out masked classes and renormalise each row to sum to one.

    ``mask`` may be a single class mask of shape ``(n_classes,)`` applied to
    every row, or a per-row mask of shape ``(n_rows, n_classes)`` — the batched
    form used when scoring a whole trace in one call.  A row whose masked
    probabilities are all (near) zero falls back to uniform over its mask.
    """
    if mask is None:
        totals = probabilities.sum(axis=1, keepdims=True)
        uniform = np.ones(n_classes) / n_classes
        return np.where(totals > 1e-12, probabilities / np.maximum(totals, 1e-12), uniform)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 1:
        if mask.shape != (n_classes,):
            raise ValueError("mask must have one entry per class")
        kept = mask.sum()
    elif mask.ndim == 2:
        if mask.shape != probabilities.shape:
            raise ValueError("a 2-D mask must have one row per sample and one entry per class")
        kept = mask.sum(axis=1, keepdims=True)
    else:
        raise ValueError("mask must be 1-D or 2-D")
    if not np.all(kept > 0):
        raise ValueError("mask removes every class")
    probabilities = probabilities * mask
    totals = probabilities.sum(axis=1, keepdims=True)
    uniform = mask / kept
    return np.where(totals > 1e-12, probabilities / np.maximum(totals, 1e-12), uniform)


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

    def decision_value(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return features @ self.weights

    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ would compare the weight arrays
        # with ``==`` (elementwise, ambiguous truth value); compare by value
        # instead so two separately fitted-but-identical models are equal.
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
    #: n_features); rebuilt lazily whenever any model's weights change so a
    #: whole candidate set is scored with one ``features @ W.T`` matmul
    #: instead of one Python-level dot product per class.
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
        """Normalised class probabilities, optionally restricted by ``mask``.

        ``mask`` is a boolean class mask — either one vector of length
        ``n_classes`` applied to every row, or one row per sample; masked-out
        classes get probability zero before normalisation — this is how the
        DOM analysis narrows the prediction space to the Likely-Next-Event-Set.
        """
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


@dataclass
class SoftmaxRegression:
    """Multinomial logistic regression (one linear score function per class).

    This is the multiclass generalisation of the per-event logistic models:
    every possible next event still gets its own linear model ``x·βk``, but
    the per-class probabilities are normalised jointly (softmax) instead of
    independently.  The joint normalisation recovers a few points of
    accuracy over the one-vs-rest composition and is the default model used
    by :class:`~repro.core.predictor.training.PredictorTrainer`;
    :class:`OneVsRestLogistic` remains available for the strictly binary
    per-event formulation.
    """

    n_classes: int
    learning_rate: float = 0.5
    max_iterations: int = 2000
    l2: float = 1e-4
    tolerance: float = 1e-7
    #: Softmax temperature applied at prediction time.  Values below 1.0
    #: sharpen the distribution.  Fit with :meth:`calibrate_temperature` so
    #: the reported confidence tracks the empirical accuracy — the
    #: confidence-threshold mechanism (prediction degree) depends on it.
    temperature: float = 1.0
    weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.learning_rate <= 0 or self.max_iterations <= 0:
            raise ValueError("learning_rate and max_iterations must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "SoftmaxRegression":
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector matching the number of samples")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("labels out of range for the configured number of classes")

        n_samples, n_features = features.shape
        weights = np.zeros((self.n_classes, n_features))
        one_hot = np.eye(self.n_classes)[labels]
        previous_loss = np.inf
        for _ in range(self.max_iterations):
            probabilities = self._softmax(features @ weights.T)
            gradient = (probabilities - one_hot).T @ features / n_samples + self.l2 * weights
            weights -= self.learning_rate * gradient
            loss = self._loss(probabilities, labels, weights)
            if abs(previous_loss - loss) < self.tolerance:
                break
            previous_loss = loss
        self.weights = weights
        return self

    @staticmethod
    def _softmax(scores: np.ndarray) -> np.ndarray:
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def _loss(self, probabilities: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> float:
        eps = 1e-12
        nll = -np.mean(np.log(probabilities[np.arange(labels.shape[0]), labels] + eps))
        return float(nll + 0.5 * self.l2 * np.sum(weights * weights))

    @property
    def is_fitted(self) -> bool:
        return self.weights is not None

    def raw_proba(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return self._softmax(features @ self.weights.T / self.temperature)

    def calibrate_temperature(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        grid: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0),
    ) -> float:
        """Pick the softmax temperature that minimises NLL on held-out data.

        Temperature scaling only rescales the logits, so the predicted class
        never changes; it aligns the confidence values with the model's
        empirical accuracy, which the prediction-degree mechanism relies on.
        """
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        scores = features @ self.weights.T
        best_temperature, best_nll = self.temperature, np.inf
        for temperature in grid:
            probabilities = self._softmax(scores / temperature)
            nll = -np.mean(
                np.log(probabilities[np.arange(labels.shape[0]), labels] + 1e-12)
            )
            if nll < best_nll:
                best_nll = nll
                best_temperature = temperature
        self.temperature = float(best_temperature)
        return self.temperature

    def predict_proba(self, features: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Class probabilities, optionally restricted to a boolean class mask.

        ``mask`` follows the same convention as
        :meth:`OneVsRestLogistic.predict_proba`: one vector of length
        ``n_classes``, or one row per sample for batched scoring.
        """
        return _mask_and_normalise(self.raw_proba(features), mask, self.n_classes)

    def predict(self, features: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        return self.predict_proba(features, mask).argmax(axis=1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SoftmaxRegression):
            return NotImplemented
        return (
            self.n_classes == other.n_classes
            and self.learning_rate == other.learning_rate
            and self.max_iterations == other.max_iterations
            and self.l2 == other.l2
            and self.tolerance == other.tolerance
            and self.temperature == other.temperature
            and _weights_equal(self.weights, other.weights)
        )
