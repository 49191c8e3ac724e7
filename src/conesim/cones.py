"""Projective metrics and Lyapunov functions on the positive orthant."""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hilbert_distance_orthant",
    "thompson_distance_orthant",
    "tsitsiklis_lyapunov",
    "birkhoff_lyapunov",
    "contraction_ratio",
]


def _positive(x) -> np.ndarray:
    """x as a read-only strictly positive vector, an interior point of the
    nonnegative orthant: nonempty, 1-d and finite, with no entry <= 0 (there
    is no epsilon floor; an infinite projective diameter is ``math.inf``)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a nonempty 1-d array of reals")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    if not np.all(v > 0.0):
        bad = int(np.argmin(v > 0.0))
        raise ValueError(f"entry {bad} is not strictly positive: {v[bad]}")
    v = v.view()
    v.flags.writeable = False
    return v


def _log_ratios(x, y) -> np.ndarray:
    xv, yv = _positive(x), _positive(y)
    if len(xv) != len(yv):
        raise ValueError(f"dimension mismatch: {len(xv)} vs {len(yv)}")
    # log-space keeps projective invariance near machine precision for
    # widely scaled inputs
    return np.log(xv) - np.log(yv)


def hilbert_distance_orthant(x, y) -> float:
    """Hilbert projective distance on the open orthant.

    d(x, y) = log max_i(x_i/y_i) - log min_i(x_i/y_i). Invariant under
    positive scaling of either argument; zero exactly when x and y span
    the same ray.
    """
    r = _log_ratios(x, y)
    return float(r.max() - r.min())


def thompson_distance_orthant(x, y) -> float:
    """Thompson part metric, log max{max_i(x_i/y_i), 1/min_i(x_i/y_i)}.

    Unlike the Hilbert distance this is a true metric on the orthant
    interior: it vanishes only for x == y, not for proportional pairs.
    """
    r = _log_ratios(x, y)
    return float(max(r.max(), -r.min()))


def tsitsiklis_lyapunov(x):
    """Spread max_i x_i - min_i x_i of a real vector; a 2-d array is a stack
    of vectors and gives the array of their spreads."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] < 1:
        raise ValueError("expected a nonempty real vector or a stack of them")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    spread = v.max(axis=-1) - v.min(axis=-1)
    return float(spread) if v.ndim == 1 else spread


def birkhoff_lyapunov(x):
    """Hilbert distance from x to the all-ones consensus ray.

    Equals the spread of the entrywise logarithm, so it is scaling-invariant
    where :func:`tsitsiklis_lyapunov` is translation-invariant; a stack of
    vectors gives the array of their distances.
    """
    v = np.asarray(x, dtype=float)
    if not np.all(v > 0.0):
        raise ValueError("entries must be strictly positive")
    return tsitsiklis_lyapunov(np.log(v))


def contraction_ratio(diameter: float) -> float:
    """Birkhoff contraction factor tanh(diameter / 4).

    An infinite diameter (``math.inf``) yields 1.0: no strict contraction is
    certified.
    """
    d = float(diameter)
    if not d >= 0.0:
        raise ValueError(f"diameter must be >= 0 or +inf, got {d}")
    return math.tanh(d / 4.0)
