"""Hermitian matrices and the Hilbert / Riemannian metrics on the positive definite cone."""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_hermitian_array",
    "eigenvalues",
    "spectral_interval",
    "is_positive_definite",
    "hilbert_distance_psd",
    "hilbert_distance_to_identity",
    "riemannian_distance",
]

# relative eigenvalue floor below which a matrix is rejected as not PD
PD_FLOOR = 1e-12


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2, halves first: the sum of two finite entries may overflow."""
    return 0.5 * m + 0.5 * m.conj().T


def as_hermitian_array(X) -> np.ndarray:
    """X as a read-only Hermitian array: a nonempty square matrix with finite
    entries, symmetrized to (X + X*)/2.

    Symmetrization keeps the Hermitian invariant exact after thousands of
    repeated map applications; callers that must reject non-Hermitian user
    input validate the deviation before coercing.
    """
    m = np.asarray(X, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("expected a nonempty square 2-d array")
    if not np.all(np.isfinite(m)):
        raise ValueError("entries must be finite")
    m = _hermitian_part(m)
    m.flags.writeable = False
    return m


def eigenvalues(X) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(as_hermitian_array(X))


def spectral_interval(X) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix."""
    ev = eigenvalues(X)
    return float(ev[0]), float(ev[-1])


def is_positive_definite(evals: np.ndarray):
    """PD test on a precomputed ascending spectrum, relative floor PD_FLOOR;
    a stack of spectra (along the last axis) gives one answer per spectrum."""
    return evals[..., 0] > PD_FLOOR * np.maximum(1.0, evals[..., -1])


def _require_pd(ev: np.ndarray, name: str) -> np.ndarray:
    """The ascending spectrum `ev` of the matrix `name`, which must be PD."""
    if not is_positive_definite(ev):
        raise ValueError(
            f"{name} is not positive definite: lambda_min={ev[0]:.6e} "
            f"(lambda_max={ev[-1]:.6e})"
        )
    return ev


def _whitened_spectrum(X, Y) -> np.ndarray:
    """Eigenvalues of Y^{-1/2} X Y^{-1/2}, both arguments required PD."""
    Xm = as_hermitian_array(X)
    _require_pd(np.linalg.eigvalsh(Xm), "X")
    Ym = as_hermitian_array(Y)
    if Xm.shape != Ym.shape:
        raise ValueError(f"dimension mismatch: {Xm.shape} vs {Ym.shape}")
    w, U = np.linalg.eigh(Ym)
    _require_pd(w, "Y")
    # eigendecomposition route only; no pseudo-inverse fallback near the boundary
    inv_sqrt = (U * (1.0 / np.sqrt(w))) @ U.conj().T
    mu = np.linalg.eigvalsh(_hermitian_part(inv_sqrt @ Xm @ inv_sqrt))
    if mu[0] <= 0.0:
        raise ValueError(
            f"whitened matrix lost positivity numerically (lambda_min={mu[0]:.6e})"
        )
    return mu


def hilbert_distance_psd(X, Y) -> float:
    """Hilbert projective distance on the positive definite cone.

    log of the ratio between the extreme eigenvalues of Y^{-1/2} X Y^{-1/2}.
    Symmetric, scaling-invariant in either argument, and invariant under
    congruence X -> F X F* for invertible F.
    """
    mu = _whitened_spectrum(X, Y)
    return float(math.log(mu[-1]) - math.log(mu[0]))


def hilbert_distance_to_identity(X) -> float:
    """log lambda_max(X) - log lambda_min(X) for positive definite X."""
    ev = _require_pd(eigenvalues(X), "X")
    return float(math.log(ev[-1]) - math.log(ev[0]))


def riemannian_distance(X, Y) -> float:
    """Affine-invariant Riemannian distance between positive definite matrices.

    Frobenius norm of log(Y^{-1/2} X Y^{-1/2}), computed as the root of the
    sum of squared log-eigenvalues of the whitened matrix.
    """
    mu = _whitened_spectrum(X, Y)
    return float(math.sqrt(float(np.sum(np.log(mu) ** 2))))
