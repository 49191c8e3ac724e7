"""Row-stochastic consensus iteration, projective diameters, and Birkhoff certificates."""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .cones import (
    birkhoff_lyapunov,
    contraction_ratio,
    hilbert_distance_orthant,
    tsitsiklis_lyapunov,
)
from .trace import SimulationTrace, StoppingRule, _check_count, iterate

__all__ = [
    "ConnectivityReport",
    "ContractionCheckReport",
    "random_stochastic_matrix",
    "random_stochastic_matrices",
    "consensus_step",
    "dual_consensus_step",
    "run_consensus",
    "run_dual_consensus",
    "projective_diameter",
    "check_birkhoff_contraction",
    "check_connectivity",
]

ROW_SUM_TOL = 1e-12


def _check_stochastic(m: np.ndarray) -> None:
    """Raise ValueError for the first matrix of a stack (..., n, n) that is
    not row-stochastic, with the message of that matrix alone."""
    sums = m.sum(axis=-1)
    # one check on the passing path: a NaN or negative entry fails the
    # minimum, an infinite entry its row sum; the diagnosis comes after
    if m.size == 0 or (m.min() >= 0.0 and np.abs(sums - 1.0).max() <= ROW_SUM_TOL):
        return
    n = m.shape[-1]
    m, sums = m.reshape(-1, n, n), sums.reshape(-1, n)
    passes = (m.min(axis=(1, 2)) >= 0.0) & (np.abs(sums - 1.0).max(axis=1) <= ROW_SUM_TOL)
    k = int(np.argmin(passes))
    m, sums = m[k], sums[k]
    if not np.all(np.isfinite(m)):
        raise ValueError("stochastic matrix entries must be finite")
    if np.any(m < 0.0):
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise ValueError(f"negative entry at ({i},{j}): {m[i, j]}")
    i = int(np.argmax(np.abs(sums - 1.0) > ROW_SUM_TOL))
    raise ValueError(f"row {i} sums to {float(sums[i])!r}, expected 1 within {ROW_SUM_TOL}")


def as_stochastic_matrix(A, ndim: int = 2) -> np.ndarray:
    """A as a read-only float64 copy of a nonnegative square matrix with unit
    row sums, or with ndim 3 of a (T, n, n) stack of them. Rows are never
    renormalized silently: a row off by more than ROW_SUM_TOL fails loudly.
    The copy keeps a checked matrix fixed: a run replays the matrices of a
    block that raised, and a generator may refill one buffer between pulls."""
    m = np.array(A, dtype=float)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        wanted = "a square 2-d array" if ndim == 2 else "a (T, n, n) stack of square matrices"
        raise ValueError(f"expected {wanted}")
    _check_stochastic(m)
    m.flags.writeable = False
    return m


def random_stochastic_matrix(
    n: int, rng: np.random.Generator, density: float | None = None
) -> np.ndarray:
    """Draw i.i.d. uniform entries and normalize rows.

    An optional sparsity mask keeps each entry with probability `density`,
    with the diagonal always present so every row stays normalizable and the
    positive-diagonal hypothesis class is matched.
    """
    return random_stochastic_matrices(n, 1, rng, density)[0]


def random_stochastic_matrices(
    n: int, count: int, rng: np.random.Generator, density: float | None = None
) -> np.ndarray:
    """`count` draws of `random_stochastic_matrix`, bit for bit, as one
    read-only (count, n, n) stack, from one draw of the stream each takes in
    turn (its entries, then its mask) and one check of the stack."""
    if density is not None and not (0.0 < density <= 1.0):
        raise ValueError(f"density must be in (0, 1], got {density}")
    entries = rng.uniform(size=(count, n, n) if density is None else (count, 2, n, n))
    if density is not None:
        mask = entries[:, 1] < density
        mask[:, np.arange(n), np.arange(n)] = True
        entries = entries[:, 0] * mask
    return as_stochastic_matrix(entries / entries.sum(axis=-1, keepdims=True), 3)


def _matrices(dynamics, n: int | None = None) -> Iterator[np.ndarray]:
    """A run's matrices, by the rule of `trace.iterate`, each checked against
    the state dimension n (by default the first matrix's)."""

    def fit(A: np.ndarray) -> np.ndarray:
        nonlocal n
        n = n or A.shape[-1]
        if A.shape[-1] != n:
            raise ValueError(f"dimension mismatch: map is {A.shape[-1]}, state is {n}")
        return A

    if isinstance(dynamics, np.ndarray) and dynamics.ndim == 2:
        return repeat(fit(as_stochastic_matrix(dynamics)))
    if isinstance(dynamics, np.ndarray) and dynamics.ndim == 3:
        return iter(fit(as_stochastic_matrix(dynamics, 3)))
    return (fit(as_stochastic_matrix(A)) for A in dynamics)


def _check_vector(x, n: int | None = None) -> np.ndarray:
    """x as a finite float vector, of length n when n is given."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size != (n or v.size) or v.size < 1:
        raise ValueError(f"state vector must have shape ({n or 'n >= 1'},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector entries must be finite")
    return v


def consensus_step(A, x) -> np.ndarray:
    """One averaging update A @ x; each output entry is a convex combination
    of the inputs."""
    a = as_stochastic_matrix(A)
    return a @ _check_vector(x, len(a))


def dual_consensus_step(A, z) -> np.ndarray:
    """Dual update A^T @ z, which conserves the total mass sum(z)."""
    a = as_stochastic_matrix(A)
    return a.T @ _check_vector(z, len(a))


def run_consensus(sequence, x0, stop: StoppingRule | None = None, limit=None) -> SimulationTrace:
    """Iterate x(t+1) = A(t) x(t) until the spread max-min falls below tolerance.

    Each record carries the spread, the state interval [min, max], the
    log-coordinate (projective) distance to consensus when the state is
    strictly positive, and the sup-norm distance to `limit` when one is
    supplied. A finite sequence that runs out before the stopping rule fires
    yields status ``incomplete_sequence``.
    """
    x = _check_vector(x0).copy()
    limit_v = None if limit is None else _check_vector(limit, x.size)

    def measure(states: np.ndarray):
        lo, hi = states.min(axis=1), states.max(axis=1)
        positive = lo > 0.0
        if positive.all():
            # both Lyapunov values of a state are those of its extremes:
            # tsitsiklis_lyapunov and birkhoff_lyapunov of (lo, hi) are,
            # bit for bit, hi - lo and |log hi - log lo|, even where the
            # logs round out of order
            spread, proj = hi - lo, np.abs(np.log(hi) - np.log(lo))
        else:
            extremes = np.column_stack((lo, hi))
            spread = tsitsiklis_lyapunov(extremes)
            proj = np.full(len(states), np.nan)
            proj[positive] = birkhoff_lyapunov(extremes[positive])
        return spread, lo, hi, _sup_distance(states, limit_v), proj

    return iterate(
        _matrices(sequence, x.size),
        x,
        lambda A, x, out: np.dot(A, x, out=out),
        measure,
        stop,
        form=lambda A: A.T,
        fixed=x.size,
    )


def run_dual_consensus(
    sequence, z0, stop: StoppingRule | None = None, limit=None
) -> SimulationTrace:
    """Iterate z(t+1) = A(t)^T z(t).

    The dual flow conserves sum(z) but carries no monotone spread certificate,
    so the Lyapunov column is left empty and the run stops when successive
    states differ by less than tolerance in sup norm.
    """
    z = _check_vector(z0).copy()
    limit_v = None if limit is None else _check_vector(limit, z.size)

    def measure(states: np.ndarray):
        lo, hi = states.min(axis=1), states.max(axis=1)
        return None, lo, hi, _sup_distance(states, limit_v), None

    return iterate(
        _matrices(sequence, z.size),
        z,
        lambda A, z, out: np.dot(A.T, z, out=out),
        measure,
        stop,
        move=lambda steps: np.abs(steps, out=steps).max(axis=1),
        form=lambda A: A,
        fixed=z.size,
    )


def _sup_distance(states: np.ndarray, limit: np.ndarray | None) -> np.ndarray | None:
    return None if limit is None else np.abs(states - limit).max(axis=1)


def _as_nonneg_matrix(A) -> np.ndarray:
    m = np.asarray(A, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("expected a square 2-d array")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if np.any(m < 0.0):
        raise ValueError("matrix must be entrywise nonnegative")
    return m


def projective_diameter(A) -> float:
    """Projective diameter of a nonnegative matrix as a map on the orthant.

    The sup of the cross ratios log( a_ij a_pq / (a_iq a_pj) ) equals the
    largest Hilbert distance between two nonzero columns (Seneta 2006, 3.4),
    computed here in O(n^3) time and O(n^2) memory. ``math.inf`` exactly when
    two nonzero columns have different supports.
    """
    m = _as_nonneg_matrix(A)
    pos = m > 0.0
    if not pos.any(axis=1).all():
        i = int(np.argmin(pos.any(axis=1)))
        raise ValueError(f"row {i} is zero: not a map into the cone")
    m = m[:, pos.any(axis=0)]
    # with no zero row, the nonzero columns share one support exactly when
    # that support is every row
    if not np.all(m > 0.0):
        return math.inf
    # d[j, q] = max_i (log a_ij - log a_iq), one row at a time
    d = np.full((m.shape[1], m.shape[1]), -np.inf)
    for row in np.log(m):
        np.maximum(d, row[:, None] - row[None, :], out=d)
    return float((d + d.T).max())


@dataclass(frozen=True)
class ContractionCheckReport:
    diameter: float
    contraction_bound: float
    worst_ratio: float | None
    pairs_checked: int
    pairs_skipped: int
    violations: int

    @property
    def certified(self) -> bool:
        return math.isfinite(self.diameter)

    @property
    def satisfied(self) -> bool:
        return self.violations == 0


def check_birkhoff_contraction(A, pairs, slack: float = 1e-9) -> ContractionCheckReport:
    """Verify d(Ax, Ay) <= tanh(diameter/4) d(x, y) + slack over the given pairs.

    Pairs at Hilbert distance zero are skipped (the ratio is undefined) and
    counted separately. The worst observed ratio d(Ax, Ay)/d(x, y) is
    reported; when the diameter is infinite the bound degenerates to 1 and no
    strict contraction is certified.
    """
    if math.isnan(slack):
        raise ValueError(f"slack must not be NaN, got {slack}")
    m = _as_nonneg_matrix(A)
    diam = projective_diameter(m)
    bound = contraction_ratio(diam)
    worst: float | None = None
    checked = skipped = violations = 0
    for x, y in pairs:
        xv = np.asarray(x, dtype=float)
        yv = np.asarray(y, dtype=float)
        d_xy = hilbert_distance_orthant(xv, yv)
        if d_xy == 0.0:
            skipped += 1
            continue
        d_img = hilbert_distance_orthant(m @ xv, m @ yv)
        checked += 1
        ratio = d_img / d_xy
        if worst is None or ratio > worst:
            worst = ratio
        if d_img > bound * d_xy + slack:
            violations += 1
    return ContractionCheckReport(diam, bound, worst, checked, skipped, violations)


@dataclass(frozen=True)
class ConnectivityReport:
    """Measured hypotheses for uniform convergence over a window [t0, t0 + T].

    `min_positive_entry` is the uniform lower bound on nonzero weights over
    the window (measured, not enforced); `root_exists` says whether the union
    digraph has a node from which every node is reachable.
    """

    window_start: int
    horizon: int
    root_exists: bool
    root_node: int | None
    min_positive_entry: float
    diagonal_positive: bool


def check_connectivity(
    sequence, window_start: int = 0, horizon: int = 0, transpose: bool = False
) -> ConnectivityReport:
    """Inspect the union graph of a matrix window for a spanning root.

    The default convention draws an edge j -> i when a_ij(t) > 0 for some t
    in the window (information flows from j to i). Set `transpose=True` for
    the opposite orientation. The window is [window_start, window_start +
    horizon], inclusive.
    """
    if _check_count("horizon", horizon) < 0:
        raise ValueError("empty window: horizon must be >= 0")
    if _check_count("window_start", window_start) < 0:
        raise ValueError("window_start must be >= 0")
    count = window_start + horizon + 1
    mats = _matrices(sequence)
    # the maps before the window are pulled and checked, not kept
    pulled = sum(1 for _ in islice(mats, window_start))
    window = list(islice(mats, horizon + 1))
    pulled += len(window)
    if pulled < count:
        raise ValueError(f"sequence has only {pulled} matrices, requested {count}")
    n = len(window[0])

    union = np.zeros((n, n), dtype=bool)
    min_pos = np.inf
    diag_pos = True
    for e in window:
        pos = e > 0.0
        union |= pos
        if pos.any():
            min_pos = min(min_pos, float(e[pos].min()))
        diag_pos = diag_pos and bool(np.all(np.diagonal(e) > 0.0))

    adj = union.T if transpose else union
    # reach[i, j]: a path from j to i, adj[i, j] being an edge j -> i; each
    # squaring doubles the path length covered, n - 1 edges at the end
    reach = (adj | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        reach = (reach @ reach > 0.0).astype(float)
    roots = np.flatnonzero(reach.all(axis=0))
    root = int(roots[0]) if roots.size else None
    return ConnectivityReport(
        window_start=window_start,
        horizon=horizon,
        root_exists=root is not None,
        root_node=root,
        min_positive_entry=float(min_pos),
        diagonal_positive=diag_pos,
    )
