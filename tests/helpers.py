"""Shared random generators and reference kernels for the test suite."""
from __future__ import annotations

import math

import numpy as np

from conesim import (
    ExtendedNonnegReal,
    SimulationTrace,
    StoppingRule,
    TerminalStatus,
    TraceRecord,
    birkhoff_lyapunov,
    tsitsiklis_lyapunov,
)
from conesim.channels import (
    _apply_channel_raw,
    _apply_dual_raw,
    _as_density_array,
    _check_dims,
    _kraus_iterator,
)
from conesim.classical import _as_nonneg_matrix, _check_vector, as_stochastic_sequence
from conesim.hermitian import PD_FLOOR, as_hermitian_array


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


def reference_iterate(maps, state, apply, record, stop, move=None) -> SimulationTrace:
    """Reference driver: the per-step loop that `conesim.trace.iterate`
    replaced. `record(t, state)` returns the trace row and the level; `move`
    compares each new state with the one before."""
    rec, level = record(0, state)
    records = [rec]
    t = 0
    if move is None and level < stop.tolerance:
        return SimulationTrace(records, TerminalStatus.CONVERGED, state, t)
    status = TerminalStatus.MAX_ITERATIONS
    it = iter(maps)
    while t < stop.max_iterations:
        m = next(it, None)
        if m is None:
            status = TerminalStatus.INCOMPLETE_SEQUENCE
            break
        new = apply(m, state)
        t += 1
        rec, level = record(t, new)
        records.append(rec)
        if move is not None:
            level = move(new, state)
        state = new
        if level < stop.tolerance:
            status = TerminalStatus.CONVERGED
            break
    return SimulationTrace(records, status, state, t)


def reference_run_consensus(sequence, x0, stop=None, limit=None) -> SimulationTrace:
    stop = stop or StoppingRule()
    seq = as_stochastic_sequence(sequence)
    x = _check_vector(x0, seq.dimension).copy()
    limit_v = None if limit is None else _check_vector(limit, seq.dimension)

    def record(t, state):
        v = tsitsiklis_lyapunov(state)
        proj = birkhoff_lyapunov(state) if np.all(state > 0.0) else None
        dist = None if limit_v is None else float(np.max(np.abs(state - limit_v)))
        return TraceRecord(t, v, float(state.min()), float(state.max()), dist, proj), v

    return reference_iterate(seq, x, lambda A, x: A.entries @ x, record, stop)


def reference_run_dual_consensus(sequence, z0, stop=None, limit=None) -> SimulationTrace:
    stop = stop or StoppingRule()
    seq = as_stochastic_sequence(sequence)
    z = _check_vector(z0, seq.dimension).copy()
    limit_v = None if limit is None else _check_vector(limit, seq.dimension)

    def record(t, state):
        dist = None if limit_v is None else float(np.max(np.abs(state - limit_v)))
        return TraceRecord(t, None, float(state.min()), float(state.max()), dist), None

    return reference_iterate(
        seq,
        z,
        lambda A, z: A.entries.T @ z,
        record,
        stop,
        move=lambda new, old: float(np.max(np.abs(new - old))),
    )


def _reference_spectral_record(limit, lyapunov):
    limit_m = None if limit is None else as_hermitian_array(limit)

    def record(t, M):
        ev = np.linalg.eigvalsh(M)
        lyap = None
        if lyapunov and float(ev[0]) > PD_FLOOR * max(1.0, float(ev[-1])):
            lyap = float(math.log(ev[-1]) - math.log(ev[0]))
        dist = None if limit_m is None else float(np.linalg.norm(M - limit_m))
        return TraceRecord(t, lyap, float(ev[0]), float(ev[-1]), dist), float(ev[-1] - ev[0])

    return record


def reference_run_noncommutative_consensus(maps, X0, stop=None, limit=None) -> SimulationTrace:
    stop = stop or StoppingRule()
    it, _ = _kraus_iterator(maps)
    X = np.array(as_hermitian_array(X0))
    record = _reference_spectral_record(limit, lyapunov=True)
    return reference_iterate(
        it, X, lambda phi, X: _apply_dual_raw(phi, _check_dims(phi, X)), record, stop
    )


def reference_run_channel(maps, Z0, stop=None, limit=None) -> SimulationTrace:
    stop = stop or StoppingRule()
    it, constant = _kraus_iterator(maps)
    unital = constant is not None and constant.is_unital_channel
    Z = np.array(_as_density_array(Z0))
    record = _reference_spectral_record(limit, lyapunov=unital)
    return reference_iterate(
        it,
        Z,
        lambda psi, Z: _apply_channel_raw(psi, _check_dims(psi, Z)),
        record,
        stop,
        move=lambda new, old: float(np.linalg.norm(new - old)),
    )
