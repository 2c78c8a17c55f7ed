"""Feed-forward ReLU classifier with manual backpropagation.

One sigmoid output unit, binary cross-entropy loss, and exact analytic
gradients for the loss, the mean predicted probability, and arbitrary
per-sample-weighted sums of either quantity (the building blocks for the
differentiable fairness surrogates). Parameters flatten to a single
float64 vector in canonical layer-major, row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numeric import check_finite, make_rng


@dataclass(frozen=True)
class MlpSpec:
    """Network shape: ``input_dim`` features, ReLU hidden layers, one logit."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (32, 32, 32, 32)

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be nonempty with all dims >= 1")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, 1)

    @property
    def n_params(self) -> int:
        dims = self.layer_dims
        return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


class MlpParams:
    """Per-layer weights (out, in) and biases (out,), flattenable to one vector."""

    def __init__(self, spec: MlpSpec, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        dims = spec.layer_dims
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ValueError("wrong number of layers")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} shape mismatch: {w.shape}, {b.shape}")
        self.spec = spec
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]

    @classmethod
    def init(cls, spec: MlpSpec, seed: int) -> "MlpParams":
        """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
        rng = make_rng(seed)
        dims = spec.layer_dims
        weights, biases = [], []
        for i in range(len(dims) - 1):
            fan_in, fan_out = dims[i], dims[i + 1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(spec, weights, biases)

    @classmethod
    def zeros(cls, spec: MlpSpec) -> "MlpParams":
        dims = spec.layer_dims
        return cls(
            spec,
            [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)],
            [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)],
        )

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, spec: MlpSpec, flat: np.ndarray) -> "MlpParams":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (spec.n_params,):
            raise ValueError(f"expected {spec.n_params} parameters, got {flat.shape}")
        dims = spec.layer_dims
        weights, biases, pos = [], [], 0
        for i in range(len(dims) - 1):
            n_w = dims[i + 1] * dims[i]
            weights.append(flat[pos:pos + n_w].reshape(dims[i + 1], dims[i]).copy())
            pos += n_w
            biases.append(flat[pos:pos + dims[i + 1]].copy())
            pos += dims[i + 1]
        return cls(spec, weights, biases)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (branch form)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_P_CLAMP = 1e-12


def _rows(X) -> np.ndarray:
    """X as a float64 batch of feature rows; an empty batch is an error."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    return X


def _forward_cache(params: MlpParams, X: np.ndarray):
    """Forward pass keeping pre-activations for backprop.

    Returns (probs, logits, activations) where activations[0] is the input.
    """
    if X.ndim != 2 or X.shape[1] != params.spec.input_dim:
        raise ValueError(f"input shape {X.shape} does not match input_dim {params.spec.input_dim}")
    acts = [X]
    a = X
    n_layers = len(params.weights)
    for li in range(n_layers - 1):
        z = a @ params.weights[li].T + params.biases[li]
        a = np.maximum(z, 0.0)
        acts.append(a)
    logits = (a @ params.weights[-1].T + params.biases[-1]).ravel()
    probs = sigmoid(logits)
    check_finite(probs, "forward probabilities")
    return probs, logits, acts


def _backward(params: MlpParams, acts: list[np.ndarray], dlogit: np.ndarray) -> np.ndarray:
    """Flat gradient of sum_i dlogit[i] * logit_i with respect to the parameters."""
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = dlogit[:, None]  # (n, 1)
    for li in range(len(params.weights) - 1, -1, -1):
        a_prev = acts[li]
        grads_w[li] = delta.T @ a_prev
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ params.weights[li]) * (acts[li] > 0.0)
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb)
    flat = np.concatenate(parts)
    check_finite(flat, "gradient")
    return flat


def forward(params: MlpParams, x: np.ndarray) -> float:
    """Predicted probability for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.spec.input_dim,):
        raise ValueError(f"feature shape {x.shape} does not match input_dim {params.spec.input_dim}")
    p, _, _ = _forward_cache(params, x[None, :])
    return float(p[0])


def predict_proba(params: MlpParams, X: np.ndarray) -> np.ndarray:
    p, _, _ = _forward_cache(params, np.asarray(X, dtype=np.float64))
    return p


def per_sample_losses(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy per sample, probabilities clamped away from {0, 1}."""
    p = np.clip(probs, _P_CLAMP, 1.0 - _P_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def loss_and_grad(params: MlpParams, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE loss over the batch (rows of X, labels y) and its exact flat gradient."""
    X, y = _rows(X), np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    probs, _, acts = _forward_cache(params, X)
    loss = float(np.mean(per_sample_losses(probs, y)))
    grad = _backward(params, acts, (probs - y) / n)
    return loss, grad


def prob_and_grad(params: MlpParams, X: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean predicted probability over the rows of X and its exact flat gradient."""
    X = _rows(X)
    n = X.shape[0]
    probs, _, acts = _forward_cache(params, X)
    grad = _backward(params, acts, probs * (1.0 - probs) / n)
    return float(np.mean(probs)), grad


def batch_outputs(params: MlpParams, X: np.ndarray, y: np.ndarray):
    """One forward pass exposing the pieces a local step needs.

    Returns (probs, losses, weighted_grad) where weighted_grad(dlogit, rows)
    reuses the cached activations for any per-sample logit weighting: the
    flat gradient of sum_i dlogit[i] * logit_i. Given an integer index
    ``rows``, only those samples are backpropagated, which equals the full
    pass with dlogit zeroed outside ``rows`` up to summation order; with
    ``rows=None`` every sample is.
    """
    probs, _, acts = _forward_cache(params, np.asarray(X, dtype=np.float64))
    losses = per_sample_losses(probs, np.asarray(y, dtype=np.float64))

    def weighted_grad(dlogit: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        dlogit = np.asarray(dlogit, dtype=np.float64)
        if rows is None:
            return _backward(params, acts, dlogit)
        return _backward(params, [a[rows] for a in acts], dlogit[rows])

    return probs, losses, weighted_grad
