"""Feed-forward ReLU classifier with manual backpropagation.

One sigmoid output unit, binary cross-entropy loss, and exact analytic
gradients for the loss and for any per-sample weighting of the logits
(``batch_outputs``' ``weighted_grad``), the building block for the
differentiable fairness surrogates.

Parameters live in one float64 vector, layer by layer: each layer's
(out, in) weight matrix row-major, then its (out,) biases. The slices and
shapes are computed once per ``MlpSpec``, on first use
(``MlpSpec.layout``); ``MlpParams.weights`` and ``biases`` are views into
the vector, so ``unflatten`` and ``flatten`` each make one copy, and a
backward pass writes every layer's gradient straight into its slice of
one new vector.

Arrays per pass, for a batch of n rows: the passes write into a
``Workspace``, arrays made once for up to ``rows`` rows and reused by every
pass over its first n rows. ``baselines.run_federated`` builds one per
training run, sized to its largest shard, and every client, step and round
shares it (clients run one after another); ``predict_proba``,
``loss_and_grad`` and a ``batch_outputs`` call without one build one
sized to their batch. A batch longer than the workspace is refused.
- A forward pass writes each hidden product into its layer's activation
  buffer (``a @ W.T``, written by ``out=``), then adds the bias and
  applies the ReLU in place, and writes ``a > 0`` as 1.0/0.0 into the
  layer's float64 mask buffer, once; these activations and masks are kept
  for the pass's backward passes. It stamps the workspace, and a
  ``weighted_grad`` of an earlier pass, whose activations and masks it
  overwrote, raises instead of reading them. The (n,) logits and
  ``sigmoid`` take a few fresh n-length vectors.
- The masks are float64, not bool, so each backward pass's
  ``delta *= mask`` multiplies two float64 arrays with no bool-to-float64
  cast: at 30 rows x 32 (one OpenBLAS thread) that multiply takes 0.65 us
  against 1.64 us with a bool mask, while writing the mask, once a forward
  pass, takes 1.76 us against 0.80 us. The bytes are the same (a product
  by 1.0 or 0.0 either way). A float64 mask costs 8 bytes a cell: about
  590 KB on the 576-row ``cross-silo`` shard, against 74 KB as bool.
- A backward pass allocates only the flat gradient vector, which it
  returns. Per hidden layer it writes ``delta @ W`` into the layer's
  ``delta`` buffer (two arrays, which the layers take in turn) and
  multiplies it in place by the layer's mask. Each layer's weight gradient
  ``delta.T @ a`` and bias gradient ``ones @ delta`` (the workspace's
  ``ones``) are BLAS products written straight into the layer's slices of
  the flat vector. The pass does not check its result for finiteness:
  ``weighted_grad`` returns an unchecked gradient, and its callers check
  the gradients they read (``loss_and_grad`` its own result, a client step
  the gradient it returns). The forward pass checks its probabilities.
- A pass over some rows reads every activation, mask and ``dlogit`` by
  them, ``a[rows]``, one path for both kinds of ``rows``: a slice (a run of
  rows, as every key of the first sensitive attribute is on a block in
  ``fairness.key_order``) gives views of the workspace, so the pass copies
  nothing; an integer index gathers fresh copies of those rows. A mask is
  read from its first n rows, so an index past the forward pass's batch
  raises rather than reading a longer earlier pass's rows. Either kind
  gives the bytes of a pass over a batch holding just those rows.
- A pass picks its product once, from its row count and the spec
  (``_product``): ``np.dot`` for a pass over two rows or more on a spec
  with no 1 x 1 weight, ``np.matmul`` for every other pass. At 24 to 48
  rows of 32-wide layers ``np.matmul``'s gufunc dispatch costs 0.5 to
  1.5 us a call more than ``np.dot``, as much as the arithmetic, and a
  check of the operands on every product costs 0.2 to 0.4 us more.
  ``np.dot`` takes a one-element operand as a scalar, and a scalar
  product keeps a -0.0 that the BLAS product writes as +0.0. Over
  m >= 2 rows, ``delta``, ``delta.T``, ``ones`` and the row-sliced
  activations each have at least m elements, so only a 1 x 1 weight can
  be a one-element operand (``MlpSpec.unit_weight``). ``np.matmul`` is
  the byte reference, so the other route is exact by construction.
In-place work touches only the workspace and arrays the pass made itself,
never ``X``, ``dlogit`` or the parameters. Every buffer a product writes
is C-contiguous, so it runs the BLAS call a fresh result would, and every
result is bit for bit that of the out-of-place ``@`` formulas. Weights
enter the products as views (``W.T``), not as contiguous transposed
copies: OpenBLAS rounds its N/T and N/N gemm paths differently (a 32 x 32
layer over 5 rows differs in the last bits), so a copy would change the
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .numeric import check_finite, check_int, make_rng


def check_hidden_dims(hidden_dims) -> tuple[int, ...]:
    """The hidden layer widths as ints: at least one layer, each an
    integer >= 1."""
    dims = tuple(check_int(h, "hidden_dims", 1) for h in hidden_dims)
    if not dims:
        raise ValueError("hidden_dims must be nonempty")
    return dims


@dataclass(frozen=True)
class MlpSpec:
    """Network shape: ``input_dim`` features, ReLU hidden layers, one logit."""

    input_dim: int
    hidden_dims: tuple[int, ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        object.__setattr__(self, "hidden_dims", check_hidden_dims(self.hidden_dims))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, 1)

    @cached_property
    def layout(self) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
        """Per layer (weight slice, (out, in) weight shape, bias slice) in the
        flat vector: each layer's (out, in) weights row-major, then its
        biases."""
        dims = self.layer_dims
        out, pos = [], 0
        for fan_in, width in zip(dims, dims[1:]):
            b_start = pos + width * fan_in
            out.append((slice(pos, b_start), (width, fan_in), slice(b_start, b_start + width)))
            pos = b_start + width
        return tuple(out)

    @cached_property
    def unit_weight(self) -> bool:
        """Whether some layer's weight is 1 x 1, a one-element operand of
        that layer's products however many rows a pass has."""
        return (1, 1) in (shape for _, shape, _ in self.layout)

    @property
    def n_params(self) -> int:
        return self.layout[-1][2].stop


def _views(spec: MlpSpec, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (out, in) weight and (out,) bias views into ``flat``."""
    weights = [flat[w].reshape(shape) for w, shape, _ in spec.layout]
    biases = [flat[b] for _, _, b in spec.layout]
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
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


_P_CLAMP = 1e-12


def _rows(X) -> np.ndarray:
    """X as a float64 batch of feature rows; an empty batch is an error."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    return X


class Workspace:
    """The arrays a pass writes, for batches of up to ``rows`` rows of
    ``spec``'s network. Per hidden layer: an activation buffer, a ``delta``
    buffer and a float64 ReLU mask buffer (1.0 where the activation is
    positive, else 0.0), each (rows, width) and C-contiguous.
    The delta buffers are views into two arrays of rows x the widest layer,
    taken in turn from layer to layer; the masks are arrays of their own,
    since each keeps the forward pass's mask for every backward pass after
    it. A pass over n rows uses the first n rows of each. ``ones`` is a
    vector of ones; ``stamp`` counts the forward passes written into it."""

    def __init__(self, spec: MlpSpec, rows: int):
        self.rows = rows
        widths = spec.hidden_dims
        self.acts = [np.empty((rows, h)) for h in widths]
        self.masks = [np.empty((rows, h)) for h in widths]
        size = rows * max(widths)
        pair = np.empty(size), np.empty(size)
        self.deltas = [pair[j % 2][: rows * h].reshape(rows, h) for j, h in enumerate(widths)]
        self.ones = np.ones(rows)
        self.stamp = 0

    def fit(self, n: int) -> None:
        """Refuse a batch of ``n`` rows that the workspace cannot hold."""
        if n > self.rows:
            raise ValueError(f"a batch of {n} rows exceeds the workspace's {self.rows}")


def _product(spec: MlpSpec, rows: int):
    """The function every product of a pass over ``rows`` rows calls:
    ``np.dot``, or ``np.matmul`` on a one-row pass or a spec with a 1 x 1
    weight, the only passes where an operand can have one element."""
    return np.dot if rows >= 2 and not spec.unit_weight else np.matmul


def _forward_cache(params: MlpParams, X: np.ndarray, work: Workspace):
    """Forward pass keeping the activations for backprop, written into
    ``work``'s first len(X) rows with each hidden layer's ReLU mask; stamps
    ``work``.

    Returns (probs, logits, activations) where activations[0] is the input.
    """
    if X.ndim != 2 or X.shape[1] != params.spec.input_dim:
        raise ValueError(f"input shape {X.shape} does not match input_dim {params.spec.input_dim}")
    n = X.shape[0]
    work.fit(n)
    work.stamp += 1
    dot = _product(params.spec, n)
    acts = [X]
    a = X
    for li in range(len(params.weights) - 1):
        a = dot(a, params.weights[li].T, out=work.acts[li][:n])
        a += params.biases[li]
        np.maximum(a, 0.0, out=a)
        np.greater(a, 0.0, out=work.masks[li][:n])
        acts.append(a)
    logits = (dot(a, params.weights[-1].T) + params.biases[-1]).ravel()
    probs = sigmoid(logits)
    check_finite(probs, "forward probabilities")
    return probs, logits, acts


def _backward(
    params: MlpParams, acts: list[np.ndarray], dlogit: np.ndarray, work: Workspace, rows: slice | np.ndarray = slice(None)
) -> np.ndarray:
    """Flat gradient of sum_i dlogit[i] * logit_i over the rows ``rows`` (a
    slice or an integer index) of the forward pass whose activations are
    ``acts``, unchecked; ``dlogit`` holds those rows' weights. The
    temporaries and the pass's ReLU masks are ``work``'s."""
    n, m = acts[0].shape[0], dlogit.shape[0]
    work.fit(m)
    flat = np.empty(params.spec.n_params)
    dot = _product(params.spec, m)
    ones = work.ones[:m]
    delta = dlogit[:, None]  # (m, 1)
    layout = params.spec.layout
    for li in range(len(layout) - 1, -1, -1):
        w, shape, b = layout[li]
        dot(delta.T, acts[li][rows], out=flat[w].reshape(shape))
        dot(ones, delta, out=flat[b])
        if li > 0:
            delta = dot(delta, params.weights[li], out=work.deltas[li - 1][:m])
            delta *= work.masks[li - 1][:n][rows]
    return flat


def predict_proba(params: MlpParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    p, _, _ = _forward_cache(params, X, Workspace(params.spec, len(X)))
    return p


def per_sample_losses(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy per sample, probabilities clamped away from {0, 1}."""
    p = np.clip(probs, _P_CLAMP, 1.0 - _P_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def loss_and_grad(params: MlpParams, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE loss over the batch (rows of X, labels y) and its exact flat
    gradient, checked finite: ``batch_outputs``, then
    ``weighted_grad((p - y) / n)``."""
    X, y = _rows(X), np.asarray(y, dtype=np.float64)
    probs, losses, weighted_grad = batch_outputs(params, X, y)
    grad = weighted_grad((probs - y) / X.shape[0])
    check_finite(grad, "gradient")
    return float(np.mean(losses)), grad


def batch_outputs(
    params: MlpParams, X: np.ndarray, y: np.ndarray, losses: bool = True, work: Optional[Workspace] = None
):
    """One forward pass exposing the pieces a local step needs.

    Returns (probs, losses, weighted_grad) where weighted_grad(dlogit, rows)
    reuses the cached activations for any per-sample logit weighting: the
    flat gradient of sum_i dlogit[i] * logit_i, unchecked. Given ``rows``, a
    slice or an integer index, only those samples are backpropagated, which
    equals the full pass with dlogit zeroed outside ``rows`` up to summation
    order; with ``rows=None`` every sample is. With ``losses=False`` the
    per-sample losses are not computed and None stands in their place.
    The pass writes into ``work``, or into a new workspace sized to the
    batch; once a later pass has written into the same workspace,
    weighted_grad raises ``RuntimeError``.
    """
    X = np.asarray(X, dtype=np.float64)
    work = Workspace(params.spec, len(X)) if work is None else work
    probs, _, acts = _forward_cache(params, X, work)
    stamp = work.stamp
    sample_losses = per_sample_losses(probs, np.asarray(y, dtype=np.float64)) if losses else None

    def weighted_grad(dlogit: np.ndarray, rows: Optional[slice | np.ndarray] = None) -> np.ndarray:
        if work.stamp != stamp:
            raise RuntimeError("stale activations: a later forward pass has overwritten this pass's workspace")
        dlogit = np.asarray(dlogit, dtype=np.float64)  # a float64 array is returned as is
        if rows is None:
            rows = slice(None)
        elif not isinstance(rows, slice):
            rows = np.asarray(rows)
            if rows.dtype.kind not in "iu":  # one kind of row selection: a mask is refused, not applied
                raise TypeError(f"rows must be a slice or an integer index, not {rows.dtype}")
        return _backward(params, acts, dlogit[rows], work, rows)

    return probs, sample_losses, weighted_grad
