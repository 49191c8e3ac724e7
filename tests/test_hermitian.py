import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import (
    eigenvalues,
    hilbert_distance_orthant,
    hilbert_distance_psd,
    hilbert_distance_to_identity,
    riemannian_distance,
    spectral_interval,
)
from conesim.hermitian import as_hermitian_array
from helpers import random_conditioned_invertible, random_hermitian, random_positive_definite


class TestHermitianMatrix:
    """The Hermitian-matrix checks, made by `as_hermitian_array`."""

    def test_symmetrized_at_construction(self):
        m = as_hermitian_array(np.array([[1.0, 1.0 + 0.2j], [1.0, 2.0]]))
        assert np.array_equal(m, m.conj().T) and not m.flags.writeable
        assert m[0, 1] == 1.0 + 0.1j

    def test_rejects_non_square(self):
        for bad in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="^expected a nonempty square 2-d array$"):
                as_hermitian_array(bad)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, 1j * np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError, match="^entries must be finite$"):
                as_hermitian_array(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_entries_above_half_the_largest_double_stay_finite(self):
        # the two halves are added, not the entries: no overflow, no warning
        big = 0.9 * np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = as_hermitian_array(np.full((2, 2), big))
        assert np.all(np.isfinite(m.real)) and np.all(m.imag == 0.0)
        assert np.all(m.real == big)


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_array_equal(eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        np.testing.assert_allclose(eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3], atol=0)

    def test_off_diagonal(self):
        np.testing.assert_allclose(
            eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0], atol=1e-15
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_residual_contract(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        x = random_hermitian(rng, n)
        w, v = np.linalg.eigh(x)
        scale = max(np.linalg.norm(x), 1e-300)
        for k in range(n):
            assert np.linalg.norm(x @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale
        np.testing.assert_allclose(eigenvalues(x), w, atol=1e-12 * scale)

    @given(st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
    @settings(deadline=None, max_examples=40)
    def test_shift_by_identity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        x = random_hermitian(rng, n)
        np.testing.assert_allclose(
            eigenvalues(x + alpha * np.eye(n)), eigenvalues(x) + alpha, atol=1e-11
        )


class TestSpectralInterval:
    def test_cases(self):
        assert spectral_interval(np.diag([1.0, 0.0])) == (0.0, 1.0)
        lo, hi = spectral_interval(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert type(lo) is float and type(hi) is float
        assert lo == pytest.approx(-1.0) and hi == pytest.approx(1.0)
        with pytest.raises(ValueError, match="square"):
            spectral_interval(np.ones((2, 3)))


class TestHilbertPsd:
    def test_identity_of_arguments(self):
        x = np.diag([2.0, 5.0])
        assert hilbert_distance_psd(x, x) <= 1e-14

    def test_diagonal_hand_value(self):
        assert hilbert_distance_psd(np.diag([4.0, 1.0]), np.eye(2)) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_projective_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_positive_definite(rng, 4)
            d = hilbert_distance_psd(x, np.eye(4))
            assert abs(hilbert_distance_psd(2.0 * x, np.eye(4)) - d) <= 1e-12
            assert abs(hilbert_distance_psd(x, 3.5 * np.eye(4)) - d) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        x, y = random_positive_definite(rng, 3), random_positive_definite(rng, 3)
        assert hilbert_distance_psd(x, y) == pytest.approx(hilbert_distance_psd(y, x), abs=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            x = random_positive_definite(rng, n)
            y = random_positive_definite(rng, n)
            f = random_conditioned_invertible(rng, n)
            d = hilbert_distance_psd(x, y)
            d_cong = hilbert_distance_psd(f @ x @ f.conj().T, f @ y @ f.conj().T)
            assert abs(d - d_cong) <= 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x, y, z = (random_positive_definite(rng, n) for _ in range(3))
            assert hilbert_distance_psd(x, z) <= (
                hilbert_distance_psd(x, y) + hilbert_distance_psd(y, z) + 1e-9
            )

    def test_restricts_to_orthant_metric_on_diagonals(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            x = 10.0 ** rng.uniform(-3, 3, n)
            y = 10.0 ** rng.uniform(-3, 3, n)
            assert abs(
                hilbert_distance_psd(np.diag(x), np.diag(y)) - hilbert_distance_orthant(x, y)
            ) <= 1e-12

    def test_large_finite_entries_do_not_overflow(self):
        # the whitened matrix is symmetrized halves first, as inputs are
        big = np.diag([1e308, 1e308])
        assert hilbert_distance_psd(big, np.eye(2)) == 0.0
        assert hilbert_distance_psd(np.eye(2), big) == 0.0
        assert hilbert_distance_psd(big, big) == 0.0

    def test_non_pd_error_names_argument(self):
        with pytest.raises(ValueError, match=r"X is not positive definite.*lambda_min"):
            hilbert_distance_psd(np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(ValueError, match=r"Y is not positive definite"):
            hilbert_distance_psd(np.eye(2), np.diag([1.0, -0.5]))


class TestHilbertToIdentity:
    def test_scalar_matrices(self):
        assert hilbert_distance_to_identity(3.7 * np.eye(4)) <= 1e-14
        assert hilbert_distance_to_identity(np.eye(2) / 2) <= 1e-14

    def test_hand_value(self):
        x = np.diag([math.e**2, 1.0])
        assert hilbert_distance_to_identity(x) == pytest.approx(2.0, abs=1e-12)

    def test_agrees_with_two_argument_form(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = random_positive_definite(rng, 4)
            assert abs(
                hilbert_distance_to_identity(x) - hilbert_distance_psd(x, np.eye(4))
            ) <= 1e-12

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="not positive definite"):
            hilbert_distance_to_identity(np.diag([1.0, 0.0]))


class TestRiemannian:
    def test_identity_of_arguments(self):
        x = np.diag([2.0, 5.0])
        assert riemannian_distance(x, x) <= 1e-14

    def test_hand_value(self):
        assert riemannian_distance(np.diag([math.e, math.e]), np.eye(2)) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )

    def test_congruence_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            x = random_positive_definite(rng, n)
            y = random_positive_definite(rng, n)
            f = random_conditioned_invertible(rng, n)
            d = riemannian_distance(x, y)
            d_cong = riemannian_distance(f @ x @ f.conj().T, f @ y @ f.conj().T)
            assert abs(d - d_cong) <= 1e-9

    def test_large_finite_entries_do_not_overflow(self):
        big = np.diag([1e308, 1e308])
        expected = math.sqrt(2.0) * math.log(1e308)
        assert riemannian_distance(big, np.eye(2)) == pytest.approx(expected, rel=1e-14)
        assert riemannian_distance(big, big) == 0.0

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="not positive definite"):
            riemannian_distance(np.diag([1.0, 0.0]), np.eye(2))


@pytest.mark.parametrize(
    "X, Y, message",
    [
        (np.eye(2), np.eye(3), "dimension mismatch: (2, 2) vs (3, 3)"),
        (np.eye(3), np.eye(2), "dimension mismatch: (3, 3) vs (2, 2)"),
    ],
)
def test_rejection_messages_are_pinned(X, Y, message):
    with pytest.raises(ValueError) as info:
        hilbert_distance_psd(X, Y)
    assert str(info.value) == message
