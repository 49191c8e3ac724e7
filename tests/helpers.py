"""Shared random generators for the test suite."""
from __future__ import annotations

import numpy as np

from conesim import ExtendedNonnegReal
from conesim.classical import _as_nonneg_matrix


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_positive_definite(rng: np.random.Generator, n: int, floor: float = 0.5) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T / n + floor * np.eye(n)


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = g @ g.conj().T
    return z / np.trace(z).real


def random_conditioned_invertible(
    rng: np.random.Generator, n: int, log10_cond: float = 3.0
) -> np.ndarray:
    """Random invertible complex matrix with condition number <= 10**log10_cond."""

    def haar_unitary() -> np.ndarray:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    s = 10.0 ** rng.uniform(-log10_cond / 2, log10_cond / 2, n)
    return (haar_unitary() * s) @ haar_unitary()


def quadruple_projective_diameter(A) -> ExtendedNonnegReal:
    """Reference kernel: the vectorised O(n^4) enumeration of the cross-ratio
    sup over all index quadruples (i, j, p, q), log( a_ij a_pq / (a_iq a_pj) ).
    Infinite exactly when a quadruple has a positive numerator over a zero
    denominator."""
    m = _as_nonneg_matrix(A)
    pos = m > 0.0
    if not pos.any(axis=1).all():
        i = int(np.argmin(pos.any(axis=1)))
        raise ValueError(f"row {i} is zero: not a map into the cone")
    # axes: (i, j, p, q)
    num = pos[:, :, None, None] & pos[None, None, :, :]
    den = pos[:, None, None, :] & pos.T[None, :, :, None]
    if np.any(num & ~den):
        return ExtendedNonnegReal.infinite()
    logs = np.where(pos, np.log(np.where(pos, m, 1.0)), 0.0)
    vals = (
        logs[:, :, None, None]
        + logs[None, None, :, :]
        - logs[:, None, None, :]
        - logs.T[None, :, :, None]
    )
    return ExtendedNonnegReal(float(vals[num].max()))
