"""Vector arithmetic, cosine geometry, and RNG determinism."""

import itertools
import math
import warnings

import numpy as np
import pytest

from fairfedsim.numeric import NonFiniteError, check_finite, cosine, make_rng, mean_rows, norm


def test_cosine_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        cosine(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_cosine_hand_values():
    v = np.array([2.0, -1.0, 0.5])
    assert cosine(v, v) == 1.0
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    np.testing.assert_allclose(cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])), 1 / np.sqrt(2), rtol=1e-15)


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine(np.zeros(2), np.ones(2))


def test_cosine_clamped_to_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(500):
        v = rng.normal(size=4)
        c = rng.uniform(0.1, 100)
        assert -1.0 <= cosine(v, c * v) <= 1.0


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(1)
    # finite inputs whose norms, or dot product, overflow float64
    overflowing = [
        (np.array([1e200, 1e200]), np.array([1e200, 0.0])),
        (np.array([1e154, 1e154]), np.array([1e154, 0.0])),
    ]
    drawn = ((rng.normal(size=6), rng.normal(size=6)) for _ in range(300))
    for a, b in itertools.chain(drawn, overflowing):
        c = float(rng.uniform(0.01, 50.0))
        assert cosine(a, b) == cosine(b, a)
        np.testing.assert_allclose(cosine(c * a, b), cosine(a, b), atol=1e-14)
    for a, b in overflowing:
        np.testing.assert_allclose(cosine(a, b), math.sqrt(0.5), rtol=1e-15)


@pytest.mark.parametrize("v", [1e-200, 1e-170, 1e-160, 5e-324])
def test_cosine_of_inputs_whose_squares_underflow(v):
    # the squares are 0 (1e-200, 1e-170, 5e-324) or subnormal with few
    # digits left (1e-160: the unscaled quotient reads 0.70720)
    a, b = np.array([v, v]), np.array([v, 0.0])
    np.testing.assert_allclose(cosine(a, b), math.sqrt(0.5), rtol=1e-15)
    assert cosine(a, b) == cosine(b, a)
    np.testing.assert_allclose(cosine(np.array([1.0, 1.0]), b), math.sqrt(0.5), rtol=1e-15)
    np.testing.assert_allclose(cosine(a, -a), -1.0, rtol=1e-15)
    assert cosine(np.array([v, 0.0]), np.array([0.0, v])) == 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        cosine(np.zeros(2), b)


def test_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        assert abs(float(a @ b)) <= norm(a) * norm(b) * (1 + 1e-12)


def test_nan_rejected():
    with pytest.raises(NonFiniteError):
        cosine(np.array([1.0, np.nan]), np.ones(2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError):
            cosine(np.array([np.inf, 0.0]), np.ones(2))
    assert caught == []


def test_rng_determinism_and_stream_independence():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = make_rng(123, 1).standard_normal(5)
    assert not np.array_equal(a, c)


def test_rng_known_stream_is_stable():
    # PCG64 stream for a fixed SeedSequence must never change
    first = make_rng(7).integers(0, 1_000_000, size=3)
    np.testing.assert_array_equal(first, make_rng(7).integers(0, 1_000_000, size=3))


def test_mean_rows():
    out = mean_rows([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    np.testing.assert_array_equal(out, [2.0, 3.0])
    with pytest.raises(ValueError):
        mean_rows([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_rejects_nan_and_infinities(bad):
    with pytest.raises(NonFiniteError, match="non-finite probe"):
        check_finite(bad, "probe")
    with pytest.raises(NonFiniteError, match="non-finite probe"):
        check_finite(np.float64(bad), "probe")
    with pytest.raises(NonFiniteError, match="non-finite probe"):
        check_finite(np.array([1.0, bad, 2.0]), "probe")
    with pytest.raises(NonFiniteError, match="non-finite probe"):
        check_finite(np.full((2, 3), bad), "probe")


def test_check_finite_accepts_finite_values():
    check_finite(0.0)
    check_finite(-1e308)
    check_finite(np.zeros(0))
    check_finite(np.array([[1.0, -2.0], [3.0, 1e-320]]))
