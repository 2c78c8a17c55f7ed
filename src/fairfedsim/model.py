"""Feed-forward ReLU classifier with manual backpropagation.

One sigmoid output unit, binary cross-entropy loss, and exact analytic
gradients for the loss and for any per-sample weighting of the logits
(``batch_outputs``' ``weighted_grad``), the building block for the
differentiable fairness surrogates.

Parameters live in one float64 vector, layer by layer: each layer's
(out, in) weight matrix row-major, then its (out,) biases. The offsets are
computed once per ``MlpSpec`` (``MlpSpec.layout``); ``MlpParams.weights``
and ``biases`` are views into the vector, so ``unflatten`` and ``flatten``
each make one copy, and a backward pass writes every layer's gradient
straight into its slice of one new vector.

Arrays per pass, for a batch of n rows:
- A forward pass allocates one (n, width) product per hidden layer and adds
  the bias and applies the ReLU to it in place; these are the pass's
  activations, kept for its backward passes and written by nothing else.
  The (n,) logits and ``sigmoid`` take a few n-length temporaries.
- A backward pass allocates the flat gradient vector and, per hidden
  layer, the (n, width) product ``delta @ W`` and the bool ReLU mask it is
  multiplied by in place. A pass over a subset of rows first gathers those
  rows of every activation (``take``).
In-place work touches only arrays the pass made itself, never ``X``,
``dlogit`` or the parameters. Every result is bit for bit that of the
out-of-place formulas. Weights enter the products as views (``W.T``), not
as contiguous transposed copies: OpenBLAS rounds its N/T and N/N gemm
paths differently (a 32 x 32 layer over 5 rows differs in the last bits),
so a copy would change the gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .numeric import check_finite, make_rng


def check_hidden_dims(hidden_dims) -> tuple[int, ...]:
    """The hidden layer widths as ints: at least one layer, each >= 1."""
    dims = tuple(int(h) for h in hidden_dims)
    if not dims or any(h < 1 for h in dims):
        raise ValueError("hidden_dims must be nonempty with all dims >= 1")
    return dims


@dataclass(frozen=True)
class MlpSpec:
    """Network shape: ``input_dim`` features, ReLU hidden layers, one logit."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (32, 32, 32, 32)

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        object.__setattr__(self, "hidden_dims", check_hidden_dims(self.hidden_dims))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, 1)

    @cached_property
    def layout(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per layer (weight start, bias start, bias end, fan_in) in the flat
        vector: each layer's (out, in) weights row-major, then its biases."""
        dims = self.layer_dims
        out, pos = [], 0
        for i in range(len(dims) - 1):
            b_start = pos + dims[i + 1] * dims[i]
            out.append((pos, b_start, b_start + dims[i + 1], dims[i]))
            pos = b_start + dims[i + 1]
        return tuple(out)

    @property
    def n_params(self) -> int:
        return self.layout[-1][2]


def _views(spec: MlpSpec, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (out, in) weight and (out,) bias views into ``flat``."""
    weights = [flat[w:b].reshape(e - b, fan_in) for w, b, e, fan_in in spec.layout]
    biases = [flat[b:e] for _, b, e, _ in spec.layout]
    return weights, biases


class MlpParams:
    """One float64 vector ``flat`` in the spec's layout; ``weights`` (out, in)
    and ``biases`` (out,) are views into it, so writes go through."""

    def __init__(self, spec: MlpSpec, flat: np.ndarray):
        """Wrap ``flat`` without copying it."""
        if flat.dtype != np.float64 or flat.shape != (spec.n_params,):
            raise ValueError(f"expected {spec.n_params} float64 parameters, got {flat.dtype} {flat.shape}")
        self.spec = spec
        self.flat = flat
        self.weights, self.biases = _views(spec, flat)

    @classmethod
    def init(cls, spec: MlpSpec, seed: int) -> "MlpParams":
        """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
        rng = make_rng(seed)
        params = cls.zeros(spec)
        for w in params.weights:
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        return params

    @classmethod
    def zeros(cls, spec: MlpSpec) -> "MlpParams":
        return cls(spec, np.zeros(spec.n_params))

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    @classmethod
    def unflatten(cls, spec: MlpSpec, flat: np.ndarray) -> "MlpParams":
        return cls(spec, np.array(flat, dtype=np.float64))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1/(1+e) for z >= 0 and e/(1+e)
    below, with e = exp(-|z|) <= 1, so nothing overflows."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        a = a @ params.weights[li].T
        a += params.biases[li]
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    logits = (a @ params.weights[-1].T + params.biases[-1]).ravel()
    probs = sigmoid(logits)
    check_finite(probs, "forward probabilities")
    return probs, logits, acts


def _backward(params: MlpParams, acts: list[np.ndarray], dlogit: np.ndarray) -> np.ndarray:
    """Flat gradient of sum_i dlogit[i] * logit_i with respect to the parameters."""
    flat = np.empty(params.spec.n_params)
    grads_w, grads_b = _views(params.spec, flat)
    delta = dlogit[:, None]  # (n, 1)
    for li in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[li], out=grads_w[li])
        np.add.reduce(delta, axis=0, out=grads_b[li])
        if li > 0:
            delta = delta @ params.weights[li]
            delta *= acts[li] > 0.0
    check_finite(flat, "gradient")
    return flat


def predict_proba(params: MlpParams, X: np.ndarray) -> np.ndarray:
    p, _, _ = _forward_cache(params, np.asarray(X, dtype=np.float64))
    return p


def per_sample_losses(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy per sample, probabilities clamped away from {0, 1}."""
    p = np.clip(probs, _P_CLAMP, 1.0 - _P_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def loss_and_grad(params: MlpParams, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE loss over the batch (rows of X, labels y) and its exact flat
    gradient: ``batch_outputs``, then ``weighted_grad((p - y) / n)``."""
    X, y = _rows(X), np.asarray(y, dtype=np.float64)
    probs, losses, weighted_grad = batch_outputs(params, X, y)
    return float(np.mean(losses)), weighted_grad((probs - y) / X.shape[0])


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
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":  # take would read a bool mask as indices 0 and 1
            raise TypeError(f"rows must be an integer index, not {rows.dtype}")
        return _backward(params, [a.take(rows, axis=0) for a in acts], dlogit.take(rows))

    return probs, losses, weighted_grad
