"""Dense float64 vector helpers, cosine geometry, and seeded randomness.

Vectors are plain 1-D ``numpy.float64`` arrays throughout the package.
Every public operation validates shapes and rejects non-finite values so
that a NaN produced anywhere in a simulation surfaces immediately instead
of silently poisoning later rounds.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


# the smallest norm whose square is a normal float64
_TINY_NORM = math.sqrt(np.finfo(np.float64).tiny)


class NonFiniteError(ArithmeticError):
    """A computation produced NaN or infinity."""


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical (seed, stream) gives an identical
    stream on every platform.

    Extra ``stream`` integers derive independent sub-streams from one base
    seed (e.g. one per client, or one per experiment cell).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, stream)])))


def check_int(value, name: str, minimum: int) -> int:
    """``value`` as an int: an int or numpy integer (not a bool) of at
    least ``minimum``; anything else, a float included, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_finite(v: np.ndarray | float, context: str = "value") -> None:
    """Raise NonFiniteError if ``v`` contains NaN or infinity."""
    if not np.isfinite(v).all():
        raise NonFiniteError(f"non-finite {context}")


def _check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1].

    The clamp matters: rounding can push |cos| a hair above 1 and a later
    sqrt(1 - cos^2) would go NaN. Zero vectors are rejected, and so are
    inputs with a NaN or an infinite entry, before any division.
    When a norm or the dot product overflows, or a norm is below
    ``_TINY_NORM`` (its square, and the dot product's terms, are then
    subnormal or 0 and have lost digits), each input is divided by its
    largest |entry| first, which leaves the cosine as it is.
    """
    _check_same_length(a, b)
    check_finite(a, "cosine input")
    check_finite(b, "cosine input")
    with np.errstate(over="ignore"):
        na, nb, dot = norm(a), norm(b), np.dot(a, b)
    if not (np.isfinite([na, nb, dot]).all() and min(na, nb) >= _TINY_NORM):
        peak_a, peak_b = np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)
        if peak_a == 0.0 or peak_b == 0.0:
            raise ValueError("cosine of zero-norm vector is undefined")
        a, b = a / peak_a, b / peak_b
        na, nb, dot = norm(a), norm(b), np.dot(a, b)
    c = float(dot / (na * nb))
    check_finite(c, "cosine")
    return min(1.0, max(-1.0, c))


def mean_rows(rows: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Unweighted mean of equal-length vectors, given as a sequence or as
    the rows of a 2-D array (deterministic summation order)."""
    if len(rows) == 0:
        raise ValueError("mean of no vectors")
    stack = rows if isinstance(rows, np.ndarray) else np.stack(rows, axis=0)
    out = np.mean(stack, axis=0)
    check_finite(out, "mean gradient")
    return out
