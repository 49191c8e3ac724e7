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
    serialize_scenario,
    tsitsiklis_lyapunov,
)
from conesim.channels import (
    DensityMatrix,
    FixedPointError,
    FixedPointResult,
    ImageRadiusEstimate,
    KrausMap,
    _apply_channel_raw,
    _apply_dual_raw,
    _as_density_array,
    _check_dims,
    _kraus_iterator,
    _symmetrize,
)
from conesim.classical import (
    _as_nonneg_matrix,
    _check_vector,
    as_stochastic_matrix,
    as_stochastic_sequence,
)
from conesim.hermitian import PD_FLOOR, as_hermitian_array, is_positive_definite


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


def reference_run_noncommutative_consensus(
    maps, X0, stop=None, limit=None, step=_apply_dual_raw
) -> SimulationTrace:
    """The per-step reference run of the dual; `step` applies one map."""
    stop = stop or StoppingRule()
    it, _ = _kraus_iterator(maps)
    X = np.array(as_hermitian_array(X0))
    record = _reference_spectral_record(limit, lyapunov=True)
    return reference_iterate(it, X, lambda phi, X: step(phi, _check_dims(phi, X)), record, stop)


def reference_run_channel(
    maps, Z0, stop=None, limit=None, step=_apply_channel_raw
) -> SimulationTrace:
    """The per-step reference run of the channel; `step` applies one map."""
    stop = stop or StoppingRule()
    it, constant = _kraus_iterator(maps)
    unital = constant is not None and constant.is_unital_channel
    Z = np.array(_as_density_array(Z0))
    record = _reference_spectral_record(limit, lyapunov=unital)
    return reference_iterate(
        it,
        Z,
        lambda psi, Z: step(psi, _check_dims(psi, Z)),
        record,
        stop,
        move=lambda new, old: float(np.linalg.norm(new - old)),
    )


# --- the Kraus-sum loops that the stacked step and superoperator replaced ---


def reference_apply_dual(phi: KrausMap, X: np.ndarray) -> np.ndarray:
    """Reference kernel: the dual step as a loop over the Kraus operators."""
    out = np.zeros_like(X)
    for V in phi.operators:
        out += V.conj().T @ X @ V
    return _symmetrize(out)


def reference_apply_channel(psi: KrausMap, Z: np.ndarray) -> np.ndarray:
    """Reference kernel: the channel step as a loop over the Kraus operators."""
    out = np.zeros_like(Z)
    for V in psi.operators:
        out += V @ Z @ V.conj().T
    return _symmetrize(out)


def reference_superoperator(phi: KrausMap) -> np.ndarray:
    """Reference kernel: the Liouville matrix as a sum of Kronecker products."""
    return sum(np.kron(V, V.conj()) for V in phi.operators)


# --- the Hermitian-coordinate fixed point and the Kraus-sum radius images --
# that `KrausMap.superoperator` replaced


def _hermitian_coords(X: np.ndarray) -> np.ndarray:
    """The diagonal, then the real and imaginary parts of the upper triangle."""
    n = X.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.diagonal(X).real, X[iu].real, X[iu].imag])


def _hermitian_from_coords(v: np.ndarray, n: int) -> np.ndarray:
    X = np.zeros((n, n), dtype=complex)
    m = n * (n - 1) // 2
    iu = np.triu_indices(n, k=1)
    X[iu] = v[n : n + m] + 1j * v[n + m :]
    X = X + X.conj().T
    X[np.diag_indices(n)] = v[:n]
    return X


def transfer_matrix(psi: KrausMap) -> np.ndarray:
    """Real matrix of the channel action in Hermitian coordinates, built one
    column at a time."""
    n = psi.dimension
    n2 = n * n
    M = np.empty((n2, n2))
    for c in range(n2):
        e = np.zeros(n2)
        e[c] = 1.0
        M[:, c] = _hermitian_coords(_apply_channel_raw(psi, _hermitian_from_coords(e, n)))
    return M


def _inverse_iteration(M: np.ndarray, v0: np.ndarray, residual_tol: float) -> np.ndarray:
    n2 = M.shape[0]
    for shift in (1.0, 1.0 + 1e-12, 1.0 - 1e-12):
        T = M - shift * np.eye(n2)
        v = v0 / np.linalg.norm(v0)
        best: np.ndarray | None = None
        best_res = np.inf
        failed = False
        for _ in range(100):
            try:
                w = np.linalg.solve(T, v)
            except np.linalg.LinAlgError:
                failed = True
                break
            norm = np.linalg.norm(w)
            if not np.isfinite(norm) or norm == 0.0:
                failed = True
                break
            v = w / norm
            res = float(np.linalg.norm(M @ v - v))
            if res < best_res:
                best, best_res = v, res
            elif best_res <= residual_tol:
                break
        if not failed and best is not None and best_res <= residual_tol:
            return best
    raise FixedPointError("inverse iteration failed to reach the residual target")


def reference_channel_fixed_point(
    psi: KrausMap,
    residual_tol: float = 1e-10,
    degeneracy_gap: float = 1e-8,
    max_fallback_iterations: int = 10_000,
) -> FixedPointResult:
    """Reference kernel: the eigenvalue-one multiplicity from `eigvals` of the
    transfer matrix, the fixed direction by three-shift inverse iteration."""
    n = psi.dimension
    M = transfer_matrix(psi)
    eigs = np.linalg.eigvals(M)
    multiplicity = int(np.sum(np.abs(eigs - 1.0) <= degeneracy_gap))
    if multiplicity <= 1:
        v0 = _hermitian_coords(np.eye(n, dtype=complex) / n)
        v = _inverse_iteration(M, v0, residual_tol)
        Z = _hermitian_from_coords(v, n)
        tr = float(np.trace(Z).real)
        if abs(tr) < 1e-8:
            raise FixedPointError("fixed direction has numerically zero trace")
        Z = Z / tr
        unique = True
    else:
        Z = np.eye(n, dtype=complex) / n
        for _ in range(max_fallback_iterations):
            Z_new = _apply_channel_raw(psi, Z)
            settled = float(np.linalg.norm(Z_new - Z)) <= residual_tol
            Z = Z_new
            if settled:
                break
        else:
            raise FixedPointError(
                "degenerate fixed-point space and power iteration did not settle"
            )
        unique = False
    residual = float(np.linalg.norm(_apply_channel_raw(psi, Z) - Z))
    if residual > residual_tol:
        raise FixedPointError(f"fixed-point residual {residual:.3e} exceeds {residual_tol}")
    try:
        density = DensityMatrix(Z)
    except ValueError as exc:
        raise FixedPointError(f"no PSD trace-1 fixed point at tolerance: {exc}") from exc
    return FixedPointResult(density, residual, unique, multiplicity)


def reference_classical_embedding(A) -> KrausMap:
    """Reference kernel: the embedding's operators as the products S_i W_i of
    a shift permutation S_i e_k = e_{(k+i) mod n} and the diagonal weight
    (W_i)_kk = sqrt(a_{k,(k+i) mod n}), built one matrix at a time."""
    a = as_stochastic_matrix(A).entries
    n = len(a)
    ops = []
    for i in range(n):
        S = np.zeros((n, n))
        for c in range(n):
            S[(c + i) % n, c] = 1.0
        cols = (np.arange(n) + i) % n
        W = np.diag(np.sqrt(a[np.arange(n), cols]))
        ops.append((S @ W).astype(complex))
    return KrausMap(tuple(ops))


def reference_apply_dual_stack(phi: KrausMap, stack: np.ndarray) -> np.ndarray:
    """Reference kernel: the dual of each matrix of a stack as a Kraus sum."""
    out = np.zeros_like(stack)
    for V in phi.operators:
        out += np.einsum("ab,sbc,cd->sad", V.conj().T, stack, V, optimize=True)
    return 0.5 * (out + np.conj(np.transpose(out, (0, 2, 1))))


def reference_estimate_image_radius(phi: KrausMap, samples: int, seed: int = 0):
    """`estimate_image_radius` with its images from `reference_apply_dual_stack`:
    basis probes first, then Haar-random projectors in one batch, which draws
    the same projectors as the estimator for samples up to its chunk, 4096."""
    n = phi.dimension
    basis = np.zeros((n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    best_val, best_proj, drawn = -math.inf, None, 0
    for batch in (basis, np.einsum("si,sj->sij", g, g.conj())):
        ev = np.linalg.eigvalsh(reference_apply_dual_stack(phi, batch))
        singular = ~is_positive_definite(ev)
        if singular.any():
            k = int(np.argmax(singular))
            return ImageRadiusEstimate(ExtendedNonnegReal.infinite(), batch[k], drawn + k + 1)
        vals = np.log(ev[:, -1]) - np.log(ev[:, 0])
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_proj = float(vals[k]), batch[k]
        drawn += batch.shape[0]
    return ImageRadiusEstimate(ExtendedNonnegReal(best_val), best_proj, drawn)


def scenario_arrays(s) -> list[np.ndarray]:
    """The arrays a parsed Scenario holds: dynamics, then the states."""
    d = s.dynamics
    if isinstance(d, KrausMap):
        arrays = [d.operators]
    elif isinstance(d, tuple):
        arrays = [m.entries for m in d]
    else:
        arrays = [d.entries]
    arrays.append(s.initial_state)
    if s.expected_limit is not None:
        arrays.append(s.expected_limit)
    return arrays


def assert_same_scenario(a, b) -> None:
    """Scenarios are compared by their serialised text and their arrays."""
    assert serialize_scenario(a) == serialize_scenario(b)
    assert type(a.dynamics) is type(b.dynamics)
    assert (a.builder, a.stop, a.analysis) == (b.builder, b.stop, b.analysis)
    xs, ys = scenario_arrays(a), scenario_arrays(b)
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype and np.array_equal(x, y)
