"""Softmax (multinomial logistic) regression, implemented from scratch on numpy.

The paper deliberately chooses logistic regression over heavier temporal
models (LSTMs): "the event sequence learner employs a set of logistic
models, each of which estimates the probability of one possible next event
through ln(p/(1-p)) = xβ".  :class:`SoftmaxRegression` keeps one such linear
model per event class and normalises their scores jointly; its calibrated
class probabilities double as the prediction confidence values used by the
confidence-threshold mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _weights_equal(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Value equality for optional weight arrays (both unset, or identical)."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


def _class_labels(labels: np.ndarray, n_samples: int, n_classes: int) -> np.ndarray:
    """``labels`` as integer class indices, one per sample.

    Integral floats are accepted; a fractional or non-finite label raises
    instead of being truncated to a class it never named.
    """
    labels = np.asarray(labels)
    if labels.shape != (n_samples,):
        raise ValueError("labels must be a vector matching the number of samples")
    if n_samples == 0:
        raise ValueError("need at least one sample")
    if labels.dtype.kind not in "biu" and not (
        labels.dtype.kind == "f" and np.all(np.isfinite(labels) & (labels == np.trunc(labels)))
    ):
        raise ValueError("labels must be integral class indices")
    labels = labels.astype(int)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("labels out of range for the configured number of classes")
    return labels


def _require_finite(features: np.ndarray) -> None:
    """Reject NaN and infinite features, which would fit (or calibrate on)
    NaN scores without any error."""
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")


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
        # A numpy scalar: its own comparison, not np.all's array machinery.
        if not kept > 0:
            raise ValueError("mask removes every class")
    elif mask.ndim == 2:
        if mask.shape != probabilities.shape:
            raise ValueError("a 2-D mask must have one row per sample and one entry per class")
        kept = mask.sum(axis=1, keepdims=True)
        if not np.all(kept > 0):
            raise ValueError("mask removes every class")
    else:
        raise ValueError("mask must be 1-D or 2-D")
    probabilities = probabilities * mask
    totals = probabilities.sum(axis=1, keepdims=True)
    positive = totals > 1e-12
    if positive.all():
        # Where every total is positive, the where below selects exactly these quotients.
        return probabilities / totals
    uniform = mask / kept
    return np.where(positive, probabilities / np.maximum(totals, 1e-12), uniform)


@dataclass
class SoftmaxRegression:
    """Multinomial logistic regression (one linear score function per class).

    This is the multiclass generalisation of the per-event logistic models:
    every possible next event still gets its own linear model ``x·βk``, but
    the per-class probabilities are normalised jointly (softmax) instead of
    independently.  The joint normalisation recovers a few points of
    accuracy over the one-vs-rest composition and is the model
    :class:`~repro.core.predictor.training.PredictorTrainer` fits.
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
    #: Read-only once fitted (see :meth:`freeze`).
    weights: np.ndarray | None = field(default=None, repr=False)
    #: :meth:`predict_row` results by input row and mask, valid while
    #: :meth:`model_key` equals ``_steps_for``.
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _steps_for: tuple | None = field(default=None, init=False, repr=False, compare=False)
    #: ``(weights, temperature, model_key())`` of the last read-only weights keyed.
    _key_of: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        # Negated comparisons, so that NaN fails them too.
        if not self.learning_rate > 0 or self.max_iterations <= 0:
            raise ValueError("learning_rate and max_iterations must be positive")
        if not self.l2 >= 0:
            raise ValueError("l2 must be non-negative")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be non-negative")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "SoftmaxRegression":
        """Full-batch gradient descent on the L2-penalised softmax NLL."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        _require_finite(features)
        n_samples, n_features = features.shape
        n_classes = self.n_classes
        labels = _class_labels(labels, n_samples, n_classes)

        weights = np.zeros((n_classes, n_features))
        one_hot = np.eye(n_classes)[labels]
        # Every step runs in place on buffers allocated here, and the softmax
        # runs class-major: ``scores`` is (n_classes, n_samples), so each
        # class's scores are one contiguous row and the per-sample max, sum
        # and divide stream over whole rows instead of rows of a few classes.
        # Each step reaches exactly the bits of the plain sample-major loop
        # (``tests/test_predictor_logistic.py``'s ``reference_softmax_fit``):
        # - ``weights @ features_t`` equals ``features @ weights.T``.  This
        #   is verified, not true by construction (BLAS picks its kernel by
        #   layout); the reference-fit tests guard it.  Writing the
        #   sample-major product into ``out=scores.T`` is not equal: numpy
        #   leaves BLAS for a strided ``out``.
        # - The max, subtract, exp and divide are exact per element.
        # - Below 8 classes, ``add.reduce`` over axis 0 adds the class rows
        #   left to right, the order in which the sample-major reduction sums
        #   a short row.  From 8 classes up that reduction sums pairwise, so
        #   there it runs on a sample-major copy.
        # - The gradient stays ``residual.T @ features`` on a sample-major
        #   residual, the call the reference makes: the class-major
        #   ``scores @ features`` takes another BLAS kernel and other bits.
        # - ``add.reduce(picked) / n`` is how ``np.mean`` computes.
        features_t = np.ascontiguousarray(features.T)
        scores = np.empty((n_classes, n_samples))
        residual = np.empty((n_samples, n_classes))
        row = np.empty(n_samples)
        picked = np.empty(n_samples)
        gradient = np.empty_like(weights)
        penalty = np.empty_like(weights)
        label_cells = labels * n_samples + np.arange(n_samples)
        previous_loss = np.inf
        for _ in range(self.max_iterations):
            # Softmax of the scores, in ``scores``.
            np.matmul(weights, features_t, out=scores)
            np.maximum.reduce(scores, axis=0, out=row)
            np.subtract(scores, row, out=scores)
            np.exp(scores, out=scores)
            if n_classes < 8:
                np.add.reduce(scores, axis=0, out=row)
            else:
                np.copyto(residual, scores.T)
                residual.sum(axis=1, out=row)
            np.divide(scores, row, out=scores)
            np.take(scores, label_cells, out=picked)
            # Gradient step on the residual P - one_hot.
            np.subtract(scores.T, one_hot, out=residual)
            np.matmul(residual.T, features, out=gradient)
            np.divide(gradient, n_samples, out=gradient)
            np.multiply(weights, self.l2, out=penalty)
            np.add(gradient, penalty, out=gradient)
            np.multiply(gradient, self.learning_rate, out=gradient)
            np.subtract(weights, gradient, out=weights)
            # Penalised NLL of the probabilities taken before the step.
            np.add(picked, 1e-12, out=picked)
            np.log(picked, out=picked)
            nll = -(np.add.reduce(picked) / n_samples)
            loss = float(nll + 0.5 * self.l2 * np.sum(weights * weights))
            if abs(previous_loss - loss) < self.tolerance:
                break
            previous_loss = loss
        self.weights = weights
        self.freeze()
        return self

    def freeze(self) -> None:
        """Make the weights read-only, so :meth:`model_key` is computed once.

        :meth:`fit` freezes what it fits.  Unpickled and JSON-loaded arrays
        come back writeable, which is why whoever wires a learner into a
        scheduler freezes it again.
        """
        if self.weights is not None:
            self.weights.flags.writeable = False

    def model_key(self) -> tuple:
        """The weights (dtype, shape, bytes) and temperature, by value.

        Computed once per read-only weights array and temperature; writeable
        weights may change in place, so they pay ``tobytes`` on every call.
        """
        weights, temperature = self.weights, self.temperature
        if weights is None:
            raise RuntimeError("model is not fitted")
        cached = self._key_of
        if (
            cached is not None
            and cached[0] is weights
            and cached[1] == temperature
            and not weights.flags.writeable
        ):
            return cached[2]
        key = (weights.dtype.str, weights.shape, weights.tobytes(), temperature)
        self._key_of = (weights, temperature, key)
        return key

    @staticmethod
    def _softmax(scores: np.ndarray) -> np.ndarray:
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

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
        _require_finite(features)
        labels = _class_labels(labels, features.shape[0], self.n_classes)
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

        ``mask`` is a boolean class mask — either one vector of length
        ``n_classes`` applied to every row, or one row per sample for batched
        scoring; masked-out classes get probability zero before
        normalisation — this is how the DOM analysis narrows the prediction
        space to the Likely-Next-Event-Set.
        """
        return _mask_and_normalise(self.raw_proba(features), mask, self.n_classes)

    def predict_step(self, features: np.ndarray, mask: np.ndarray | None = None) -> tuple[int, float]:
        """The most likely class of one feature row and its probability.

        Exactly ``predict_proba(features, mask)[0]``'s argmax and its value,
        computed on every call; :meth:`predict_row` is the memoised form.
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 1:
            raise ValueError("predict_step takes one feature row")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.ndim != 1:
                raise ValueError("predict_step takes one class mask")
        probabilities = self.predict_proba(features, mask)[0]
        index = int(probabilities.argmax())
        return index, float(probabilities[index])

    def predict_row(self, row: tuple[float, ...], mask: np.ndarray | None = None) -> tuple[int, float]:
        """:meth:`predict_step` of ``np.array(row)``, building no array on a memo hit.

        Sessions revisit the same few (features, mask) inputs, so steps are
        memoised by the row's values and the mask's bytes; the memo empties
        whenever :meth:`model_key` no longer equals the one it was filled
        under.  For finite rows with no ``-0.0`` (feature rows are counts and
        area fractions) float equality is byte equality, so a value key
        names one input.  ``mask`` is a 1-D boolean class mask.
        """
        model = self.model_key()
        if model != self._steps_for:
            self._steps = {}
            self._steps_for = model
        key = (row, None if mask is None else mask.tobytes())
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = self.predict_step(np.array(row, dtype=float), mask)
        return step

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
