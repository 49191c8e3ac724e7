"""Shared random generators and reference kernels for the test suite."""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import astuple, fields
from functools import cached_property
from itertools import islice
from pathlib import Path, PurePath

import numpy as np

from conesim import (
    KrausMap,
    SimulationTrace,
    StoppingRule,
    TerminalStatus,
    TraceRecord,
    apply_channel,
    birkhoff_lyapunov,
    serialize_scenario,
    tsitsiklis_lyapunov,
)
from conesim.channels import (
    DEGENERACY_GAP,
    MAX_FALLBACK_ITERATIONS,
    RESIDUAL_TOL,
    FixedPointError,
    FixedPointResult,
    ImageRadiusEstimate,
    KrausMap,
    _as_density_array,
    _kraus_maps,
    _state_space,
    _symmetrize,
    _to_coords,
    _triangles,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
)
from conesim.classical import (
    ConnectivityReport,
    _as_nonneg_matrix,
    _check_vector,
    _matrices,
    as_stochastic_matrix,
)
from conesim.hermitian import PD_FLOOR, as_hermitian_array, is_positive_definite
import conesim.scenario
from conesim.scenario import (
    QUANTUM_KINDS,
    AnalysisFlags,
    EstimateSettings,
    SpinRotationSpec,
    SpontaneousEmissionSpec,
    _err,
    _parse_fraction,
    _require_bool,
    _require_int,
    _require_number,
)
from conesim.trace import _FIXED_TOL, CSV_HEADER, TraceInvariantError


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


def periodic_channel() -> KrausMap:
    """The n = 4 channel of E_10, E_21, E_12 and E_33 (E_ij = |i><j|): level
    0 decays to 1, levels 1 and 2 swap and level 3 stays, so its fixed points
    diag(0, a, a, b) are not unique and a run from I/4 never settles."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    return KrausMap(tuple(units[4 * i + j] for i, j in ((1, 0), (2, 1), (1, 2), (3, 3))))


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


def quadruple_projective_diameter(A) -> float:
    """Reference kernel: the vectorised O(n^4) enumeration of the cross-ratio
    sup over all index quadruples (i, j, p, q), log( a_ij a_pq / (a_iq a_pj) ).
    math.inf exactly when a quadruple has a positive numerator over a zero
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
        return math.inf
    logs = np.where(pos, np.log(np.where(pos, m, 1.0)), 0.0)
    vals = (
        logs[:, :, None, None]
        + logs[None, None, :, :]
        - logs[:, None, None, :]
        - logs.T[None, :, :, None]
    )
    return float(vals[num].max())


def reference_check_connectivity(
    sequence, window_start: int = 0, horizon: int = 0, transpose: bool = False
) -> ConnectivityReport:
    """Reference kernel: `check_connectivity` with the spanning root found by
    a depth-first search from each node in turn, as it was before it took
    reachability by repeated squaring."""
    count = window_start + horizon + 1
    mats = list(islice(_matrices(sequence), count))[window_start:]
    n = len(mats[0])
    union = np.zeros((n, n), dtype=bool)
    min_pos = np.inf
    diag_pos = True
    for e in mats:
        pos = e > 0.0
        union |= pos
        if pos.any():
            min_pos = min(min_pos, float(e[pos].min()))
        diag_pos = diag_pos and bool(np.all(np.diagonal(e) > 0.0))
    adj = union.T if transpose else union
    # successors(j) = {i : adj[i, j]}
    root = None
    for r in range(n):
        seen = np.zeros(n, dtype=bool)
        stack = [r]
        seen[r] = True
        while stack:
            j = stack.pop()
            for i in np.flatnonzero(adj[:, j]):
                if not seen[i]:
                    seen[i] = True
                    stack.append(int(i))
        if seen.all():
            root = r
            break
    return ConnectivityReport(
        window_start, horizon, root is not None, root, float(min_pos), diag_pos
    )


def reference_random_stochastic_matrix(
    n: int, rng: np.random.Generator, density: float | None = None
) -> np.ndarray:
    """Reference kernel: `random_stochastic_matrix` as it was before it took
    one matrix of the block draw, each matrix drawn and checked alone."""
    if density is not None and not (0.0 < density <= 1.0):
        raise ValueError(f"density must be in (0, 1], got {density}")
    entries = rng.uniform(size=(n, n))
    if density is not None:
        mask = rng.uniform(size=(n, n)) < density
        np.fill_diagonal(mask, True)
        entries = entries * mask
    entries = entries / entries.sum(axis=1, keepdims=True)
    return as_stochastic_matrix(entries)


# --- traces as records, and the per-row kernels the columnar trace replaced ---


def trace_from_records(records, status, final_state, iterations) -> SimulationTrace:
    """A SimulationTrace holding the values of `records`, None as NaN."""
    rows = [[math.nan if v is None else v for v in astuple(r)[1:]] for r in records]
    columns = np.array(rows, dtype=float).reshape(len(records), -1).T
    return SimulationTrace(*columns, status, final_state, iterations)


def lyapunov_values(trace: SimulationTrace) -> list[float]:
    """The trace's present Lyapunov values, in step order."""
    return trace.lyapunov[~np.isnan(trace.lyapunov)].tolist()


def reference_check_lyapunov_monotone(records) -> None:
    """Reference kernel: the Lyapunov check as a loop over the records."""
    prev: float | None = None
    prev_t = None
    for rec in records:
        if rec.lyapunov is None:
            continue
        if prev is not None and rec.lyapunov > prev + 1e-12 * max(1.0, abs(prev)):
            raise TraceInvariantError(
                f"Lyapunov column increased: V({prev_t})={prev!r} -> "
                f"V({rec.t})={rec.lyapunov!r}"
            )
        prev, prev_t = rec.lyapunov, rec.t


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def reference_write_csv(records, path) -> Path:
    """Reference kernel: the CSV writer as one formatted line per record."""
    reference_check_lyapunov_monotone(records)
    path = Path(path)
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.t},{_fmt(r.lyapunov)},{_fmt(r.lambda_min)},"
            f"{_fmt(r.lambda_max)},{_fmt(r.dist_to_limit)}"
        )
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def mixing_cycle(n, steps, rng):
    """A lazy cycle with random weights whose spread shrinks by about e^-13.8
    over `steps` steps, as the benchmark's trajectories do."""
    scale = min(0.3, (13.8 / steps) / (2.0 - 2.0 * math.cos(2.0 * math.pi / n)))
    fwd, bwd = scale * rng.uniform(0.5, 1.5, (2, n))
    a = np.diag(1.0 - fwd - bwd)
    idx = np.arange(n)
    a[idx, (idx + 1) % n] += fwd
    a[idx, (idx - 1) % n] += bwd
    return a / a.sum(axis=1, keepdims=True)


def reference_levels(name, maps, state, steps):
    """The level that each state of a one-map run (`name` as in the doubling
    and block driver tests) is compared with the tolerance, by plain
    per-step iteration: the spread or spectral width from t = 0, the
    move from the state before from t = 1 (inf at t = 0)."""
    if name == "consensus":
        xs = [np.asarray(state, dtype=float)]
        for _ in range(steps):
            xs.append(maps @ xs[-1])
        return [x.max() - x.min() for x in xs]
    if name == "dual_consensus":
        zs = [np.asarray(state, dtype=float)]
        for _ in range(steps):
            zs.append(maps.T @ zs[-1])
        return [math.inf] + [np.abs(b - a).max() for a, b in zip(zs, zs[1:])]
    if name == "noncommutative":
        trace = reference_run_noncommutative_consensus(maps, state, StoppingRule(0.0, steps))
        return [r.lambda_max - r.lambda_min for r in trace.records]
    Zs = [np.asarray(state, dtype=complex)]
    for _ in range(steps):
        Zs.append(apply_channel(maps, Zs[-1]))
    return [math.inf] + [np.linalg.norm(b - a) for a, b in zip(Zs, Zs[1:])]


def reference_iterate(maps, state, apply, record, stop, move=None) -> SimulationTrace:
    """Reference driver: the per-step loop that `conesim.trace.iterate`
    replaced. `record(t, state)` returns the trace row and the level; `move`
    compares each new state with the one before."""
    rec, level = record(0, state)
    records = [rec]
    t = 0
    if move is None and level < stop.tolerance:
        return trace_from_records(records, TerminalStatus.CONVERGED, state, t)
    status = TerminalStatus.MAX_ITERATIONS
    it = iter(maps)
    end = object()
    while t < stop.max_iterations:
        m = next(it, end)
        if m is end:
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
    return trace_from_records(records, status, state, t)


def reference_run_consensus(sequence, x0, stop=None, limit=None) -> SimulationTrace:
    stop = stop or StoppingRule()
    x = _check_vector(x0).copy()
    limit_v = None if limit is None else _check_vector(limit, x.size)

    def record(t, state):
        v = tsitsiklis_lyapunov(state)
        proj = birkhoff_lyapunov(state) if np.all(state > 0.0) else None
        dist = None if limit_v is None else float(np.max(np.abs(state - limit_v)))
        return TraceRecord(t, v, float(state.min()), float(state.max()), dist, proj), v

    maps = _matrices(sequence, x.size)
    return reference_iterate(maps, x, lambda A, x: A @ x, record, stop)


def reference_run_dual_consensus(sequence, z0, stop=None, limit=None) -> SimulationTrace:
    stop = stop or StoppingRule()
    z = _check_vector(z0).copy()
    limit_v = None if limit is None else _check_vector(limit, z.size)

    def record(t, state):
        dist = None if limit_v is None else float(np.max(np.abs(state - limit_v)))
        return TraceRecord(t, None, float(state.min()), float(state.max()), dist), None

    return reference_iterate(
        _matrices(sequence, z.size),
        z,
        lambda A, z: A.T @ z,
        record,
        stop,
        move=lambda new, old: float(np.max(np.abs(new - old))),
    )


def _reference_spectral_record(limit, lyapunov):
    """The trace row of one matrix state M, as the run's measure computes it:
    a qubit's spectrum from its coordinates (given, or read off M), any other
    by `eigvalsh`, and the Lyapunov value by `np.log`."""
    limit_m = None if limit is None else as_hermitian_array(limit)

    def record(t, M, coords=None):
        if M.shape[0] == 2:
            c0, c1, c2, c3 = _to_coords(M) if coords is None else coords
            h = math.sqrt(0.5)
            mean = 0.5 * c0 + 0.5 * c1
            radius = np.hypot(0.5 * c0 - 0.5 * c1, np.hypot(h * c2, h * c3))
            ev = [mean - radius, mean + radius]
        else:
            ev = np.linalg.eigvalsh(M)
        lyap = None
        if lyapunov and float(ev[0]) > PD_FLOOR * max(1.0, float(ev[-1])):
            lyap = float(np.log(ev[-1]) - np.log(ev[0]))
        dist = None if limit_m is None else float(np.linalg.norm(M - limit_m))
        return TraceRecord(t, lyap, float(ev[0]), float(ev[-1]), dist), float(ev[-1] - ev[0])

    return record


def _reference_kraus_run(maps, X, dual, record, stop, step, moves=False) -> SimulationTrace:
    """The per-step reference run of the dual or the channel from the
    Hermitian matrix X, stopping on the norm of the move between states when
    `moves` is set. `step` applies one map to a matrix; without it the run
    steps in the state space of its dimension, each state recorded from its
    matrix and its coordinates, as `trace.iterate` does (real coordinates at
    n <= 8), one map at a time."""
    maps = _kraus_maps(maps, X)
    norm = (lambda new, old: float(np.linalg.norm(new - old))) if moves else None
    if step is not None:
        return reference_iterate(maps, X, step, record, stop, norm)
    to_state, dual_step, channel_step, to_matrix = _state_space(X.shape[0])
    apply = dual_step if dual else channel_step
    trace = reference_iterate(
        maps,
        to_state(X),
        lambda phi, state: apply(phi, state, None),
        lambda t, state: record(t, to_matrix(state), state),
        stop,
        norm,
    )
    trace.final_state = to_matrix(trace.final_state)
    return trace


def reference_run_noncommutative_consensus(
    maps, X0, stop=None, limit=None, step=None
) -> SimulationTrace:
    """The per-step reference run of the dual, see `_reference_kraus_run`."""
    stop = stop or StoppingRule()
    X = np.array(as_hermitian_array(X0))
    record = _reference_spectral_record(limit, lyapunov=True)
    return _reference_kraus_run(maps, X, True, record, stop, step)


def reference_run_channel(maps, Z0, stop=None, limit=None, step=None) -> SimulationTrace:
    """The per-step reference run of the channel, see `_reference_kraus_run`."""
    stop = stop or StoppingRule()
    Z = np.array(_as_density_array(Z0))
    unital = isinstance(maps, KrausMap) and maps.is_unital_channel
    record = _reference_spectral_record(limit, lyapunov=unital)
    return _reference_kraus_run(maps, Z, False, record, stop, step, moves=True)


def assert_same_run(new, ref, scale):
    """Same status, iterations and trace, each value within 1e-13 of the state
    scale: rounding differences accumulate along the run. A log ratio
    log(hi / lo), the Lyapunov value of a matrix run and the projective one of
    a vector run, moves by d lo / lo + d hi / hi; a spread, the Lyapunov value
    of a vector run, by twice the bound."""
    assert new.status == ref.status
    assert new.iterations == ref.iterations
    assert len(new.records) == len(ref.records)
    tol = 1e-13 * scale
    matrices = ref.final_state.ndim == 2
    for a, b in zip(new.records, ref.records):
        assert a.t == b.t
        assert abs(a.lambda_min - b.lambda_min) <= tol
        assert abs(a.lambda_max - b.lambda_max) <= tol
        for x, y, log in (
            (a.lyapunov, b.lyapunov, matrices),
            (a.projective_lyapunov, b.projective_lyapunov, True),
        ):
            assert (x is None) == (y is None)
            if y is not None:
                bound = tol * (1.0 / b.lambda_min + 1.0 / b.lambda_max) if log else 2.0 * tol
                assert abs(x - y) <= bound
        assert (a.dist_to_limit is None) == (b.dist_to_limit is None)
        if b.dist_to_limit is not None:
            assert abs(a.dist_to_limit - b.dist_to_limit) <= tol


# --- the Liouville matrix and the composition that left `KrausMap` -------


def superoperator(phi: KrausMap) -> np.ndarray:
    """Reference kernel: the Liouville matrix S = sum_i V_i (x) conj(V_i) by
    one product on the stack, as `KrausMap.superoperator` built it: with
    row-major vec, vec(channel(Z)) = S vec(Z) and vec(dual(X)) = S^* vec(X)."""
    m, n, _ = phi.operators.shape
    A = phi.operators.reshape(m, n * n)
    # (A^T conj(A))[(a, c), (b, d)] = sum_i V_i[a, c] conj(V_i[b, d])
    S = (A.T @ A.conj()).reshape(n, n, n, n)
    return S.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def reference_real_form(phi: KrausMap) -> np.ndarray:
    """Reference kernel: the real form C as `KrausMap._real_form` gathered it
    from the columns of `superoperator`, the images of the matrix units."""
    n = phi.dimension
    diag, up, lo = _triangles(n)
    T, r = superoperator(phi).T, math.sqrt(0.5)
    images = np.concatenate((T[diag], (T[up] + T[lo]) * r, (T[up] - T[lo]) * (1j * r)))
    return _to_coords(images.reshape(-1, n, n)).T


def compose(outer: KrausMap, inner: KrausMap) -> KrausMap:
    """Reference kernel: the composite with operators {O_i I_j}, the first
    index slowest. As a channel it applies `inner` then `outer`; as a dual,
    outer's dual then inner's. `reduce(compose, [phi] * k)` is the k-th
    power that `kraus_power` builds."""
    n = outer.dimension
    return KrausMap((outer.operators[:, None] @ inner.operators[None]).reshape(-1, n, n))


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


def reference_stacked_step(phi: KrausMap, X: np.ndarray, action: str) -> np.ndarray:
    """Reference kernel: the stacked step that small maps took before they
    stepped by their Liouville matrix, and that maps above n = 8 took before
    they stepped by two 2-d products (`channels._step`). sum_i A_i* X A_i as
    two products on the (m, n, n) stack A, which is (V_i) for the dual and
    (V_i*) for the channel, the second summing over (operator, row)."""
    V, n = phi.operators, phi.dimension
    A = V if action == "dual" else np.ascontiguousarray(V.conj().swapaxes(1, 2))
    AH = A.reshape(-1, n).conj().T
    return _symmetrize(AH @ (X @ A).reshape(AH.shape[1], -1))


def reference_liouville_step(phi: KrausMap, X: np.ndarray, action: str) -> np.ndarray:
    """Reference kernel: the complex Liouville step that maps of dimension
    n <= 8 took before they stepped in real coordinates, vec(X) conj(S) for
    the dual and vec(X) S^T for the channel, then the Hermitian part."""
    S = superoperator(phi)
    form = S.conj() if action == "dual" else S.T
    return _symmetrize((X.reshape(-1) @ form).reshape(X.shape))


def reference_superoperator(phi: KrausMap) -> np.ndarray:
    """Reference kernel: the Liouville matrix as a sum of Kronecker products."""
    return sum(np.kron(V, V.conj()) for V in phi.operators)


# --- the Hermitian-coordinate fixed point and the Kraus-sum radius images --
# that the Liouville matrix replaced


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
        image = reference_stacked_step(psi, _hermitian_from_coords(e, n), "channel")
        M[:, c] = _hermitian_coords(image)
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
            Z_new = reference_stacked_step(psi, Z, "channel")
            settled = float(np.linalg.norm(Z_new - Z)) <= residual_tol
            Z = Z_new
            if settled:
                break
        else:
            raise FixedPointError(
                "degenerate fixed-point space and power iteration did not settle"
            )
        unique = False
    residual = float(np.linalg.norm(reference_stacked_step(psi, Z, "channel") - Z))
    if residual > residual_tol:
        raise FixedPointError(f"fixed-point residual {residual:.3e} exceeds {residual_tol}")
    try:
        density = _as_density_array(Z)
    except ValueError as exc:
        raise FixedPointError(f"no PSD trace-1 fixed point at tolerance: {exc}") from exc
    return FixedPointResult(density, residual, unique, multiplicity)


def reference_liouville_fixed_point(psi: KrausMap) -> FixedPointResult:
    """Reference kernel: `channel_fixed_point` on the complex S - I, as it
    was before it took the real C - I: the multiplicity from the singular
    values of S - I, the fixed point from one complex solve with the trace
    row, then the Hermitian part."""
    n = psi.dimension
    A = superoperator(psi)
    A[np.diag_indices_from(A)] -= 1.0
    multiplicity = int(np.sum(np.linalg.svd(A, compute_uv=False) <= DEGENERACY_GAP))
    if multiplicity <= 1:
        A[0] = np.eye(n).ravel()
        e0 = np.zeros(n * n)
        e0[0] = 1.0
        try:
            v = np.linalg.solve(A, e0)
        except np.linalg.LinAlgError:
            raise FixedPointError("fixed direction has numerically zero trace") from None
        Z = _symmetrize(v.reshape(n, n))
        unique = True
    else:
        Z = np.eye(n, dtype=complex) / n
        for _ in range(MAX_FALLBACK_ITERATIONS):
            Z_new = reference_stacked_step(psi, Z, "channel")
            settled = float(np.linalg.norm(Z_new - Z)) <= RESIDUAL_TOL
            Z = Z_new
            if settled:
                break
        else:
            raise FixedPointError(
                "degenerate fixed-point space and power iteration did not settle"
            )
        unique = False
    residual = float(np.linalg.norm(reference_stacked_step(psi, Z, "channel") - Z))
    if residual > RESIDUAL_TOL:
        raise FixedPointError(f"fixed-point residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    try:
        density = _as_density_array(Z)
    except ValueError as exc:
        raise FixedPointError(f"no PSD trace-1 fixed point at tolerance: {exc}") from exc
    return FixedPointResult(density, residual, unique, multiplicity)


def reference_classical_embedding(A) -> KrausMap:
    """Reference kernel: the embedding's operators as the products S_i W_i of
    a shift permutation S_i e_k = e_{(k+i) mod n} and the diagonal weight
    (W_i)_kk = sqrt(a_{k,(k+i) mod n}), built one matrix at a time."""
    a = as_stochastic_matrix(A)
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


def reference_probes(n: int, samples: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The n basis projectors, then `samples` Haar-random rank-one projectors
    in one batch: the estimator's probes for samples up to its RADIUS_CHUNK, 4096."""
    basis = np.zeros((n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return basis, np.einsum("si,sj->sij", g, g.conj())


def reference_estimate_image_radius(phi: KrausMap, samples: int, seed: int = 0):
    """`estimate_image_radius` with its images from `reference_apply_dual_stack`,
    over `reference_probes`."""
    best_val, best_proj, drawn = -math.inf, None, 0
    for batch in reference_probes(phi.dimension, samples, seed):
        ev = np.linalg.eigvalsh(reference_apply_dual_stack(phi, batch))
        singular = ~is_positive_definite(ev)
        if singular.any():
            k = int(np.argmax(singular))
            return ImageRadiusEstimate(math.inf, batch[k], drawn + k + 1)
        vals = np.log(ev[:, -1]) - np.log(ev[:, 0])
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_proj = float(vals[k]), batch[k]
        drawn += batch.shape[0]
    return ImageRadiusEstimate(best_val, best_proj, drawn)


def scenario_arrays(s) -> list[np.ndarray]:
    """The arrays a parsed Scenario holds: dynamics, then the states."""
    d = s.dynamics
    arrays = [d.operators if isinstance(d, KrausMap) else d, s.initial_state]
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


# --- the per-entry number parser of scenario documents -----------------------
# One call per entry, each with its path: the reference for `_read_grid`, the
# one-pass grid check that `parse_scenario` tries first.


def _reference_pair(pair, path: str) -> tuple[float, float]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise _err(path, "complex entries are [re, im] pairs")
    return _require_number(pair[0], f"{path}[0]"), _require_number(pair[1], f"{path}[1]")


def _reference_rows(data, n: int, path: str, entry) -> list:
    if not isinstance(data, list) or len(data) != n:
        raise _err(path, f"expected {n} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise _err(f"{path}[{i}]", f"expected {n} entries")
        rows.append([entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return rows


def _reference_real_vector(data, n: int, path: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != n:
        raise _err(path, f"expected a vector of length {n}")
    return np.array([_require_number(v, f"{path}[{i}]") for i, v in enumerate(data)])


def _reference_matrix(data, n: int, path: str, pairs: bool) -> np.ndarray:
    return np.array(_reference_rows(data, n, path, _reference_pair if pairs else _require_number))


def _reference_stack(data, n: int, path: str, pairs: bool) -> np.ndarray:
    """A `matrices` stack or a `kraus_operators` list, one matrix at a time."""
    if not isinstance(data, list) or not data:
        what = "operators" if pairs else "matrices"
        raise _err(path, f"expected a nonempty list of {what}")
    return np.array([_reference_matrix(m, n, f"{path}[{t}]", pairs) for t, m in enumerate(data)])


def _reference_grid(data, levels: tuple, path: str) -> np.ndarray:
    """`_read_grid` by the readers above, chosen by the grid's depth: a
    vector, a matrix of numbers or of pairs, or a stack of such matrices."""
    stack = levels[0][0] is None
    depth, n = len(levels) - stack, levels[stack][0]
    if depth == 1:
        return _reference_real_vector(data, n, path)
    read = _reference_stack if stack else _reference_matrix
    return read(data, n, path, pairs=depth == 3)


@contextmanager
def per_entry_number_parsing():
    """Within the block, `parse_scenario` reads every vector, matrix,
    `matrices` stack and Kraus operator list with the per-entry reference
    parser above."""
    saved = conesim.scenario._read_grid
    conesim.scenario._read_grid = _reference_grid
    try:
        yield
    finally:
        conesim.scenario._read_grid = saved


# --- the field-by-field block readers of scenario documents -----------------
# One hand-written reader per block: the references for `_read_block`, the
# one reader of every block by its dataclass's fields.


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise _err(path, f"unknown field(s): {sorted(unknown)}")


def reference_parse_stop(data) -> StoppingRule:
    if data is None:
        return StoppingRule()
    path = "stop"
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    _require_keys(data, {"tolerance", "max_iterations"}, path)
    tol = _require_number(data.get("tolerance", StoppingRule.tolerance), f"{path}.tolerance")
    if tol < 0.0:
        raise _err(f"{path}.tolerance", f"must be >= 0, got {tol}")
    max_it = _require_int(
        data.get("max_iterations", StoppingRule.max_iterations), f"{path}.max_iterations", 1
    )
    return StoppingRule(tol, max_it)


def reference_parse_analysis(data, kind: str) -> AnalysisFlags:
    if data is None:
        return AnalysisFlags()
    path = "analysis"
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    # the document's keys are the field names
    _require_keys(data, {f.name for f in fields(AnalysisFlags)}, path)
    compute_diameter = _require_bool(data.get("compute_diameter", False), f"{path}.compute_diameter")
    diameter_powers = _require_int(data.get("diameter_powers", 1), f"{path}.diameter_powers", 1)
    fixed_point = _require_bool(data.get("fixed_point", False), f"{path}.fixed_point")
    duality_check = _require_bool(data.get("duality_check", False), f"{path}.duality_check")
    duality_steps = _require_int(data.get("duality_steps", 200), f"{path}.duality_steps", 1)

    estimate = None
    if "estimate_image_radius" in data and data["estimate_image_radius"] is not None:
        e = data["estimate_image_radius"]
        epath = f"{path}.estimate_image_radius"
        if not isinstance(e, dict):
            raise _err(epath, "expected an object")
        _require_keys(e, {"samples", "seed", "power"}, epath)
        if "samples" not in e:
            raise _err(epath, "missing field 'samples'")
        estimate = EstimateSettings(
            _require_int(e["samples"], f"{epath}.samples", 1),
            _require_int(e.get("seed", 0), f"{epath}.seed", 0),
            _require_int(e.get("power", 1), f"{epath}.power", 1),
        )

    quantum_like = kind in QUANTUM_KINDS or kind == "embedded"
    if compute_diameter and kind not in ("classical", "classical_dual", "embedded"):
        raise _err(f"{path}.compute_diameter", f"not applicable to kind {kind!r}")
    if estimate is not None and not quantum_like:
        raise _err(f"{path}.estimate_image_radius", f"not applicable to kind {kind!r}")
    if fixed_point and not quantum_like:
        raise _err(f"{path}.fixed_point", f"not applicable to kind {kind!r}")
    if duality_check and not quantum_like:
        raise _err(f"{path}.duality_check", f"not applicable to kind {kind!r}")

    return AnalysisFlags(
        compute_diameter, diameter_powers, estimate, fixed_point, duality_check, duality_steps
    )


def reference_parse_builder(data, n: int):
    """The builder branch of the reader of `dynamics`, with `data` the
    `dynamics` object: (dynamics, builder) as held by Scenario."""
    path = "dynamics"
    builder = data["builder"]
    bpath = f"{path}.builder"
    if not isinstance(builder, dict):
        raise _err(bpath, "expected an object")
    name = builder.get("name")
    if name == "spin_rotation":
        _require_keys(builder, {"name", "alpha_over_pi", "beta_over_pi", "p"}, bpath)
        for key in ("alpha_over_pi", "beta_over_pi", "p"):
            if key not in builder:
                raise _err(bpath, f"missing field {key!r}")
        if n != 2:
            raise _err(bpath, f"spin_rotation is a qubit map, dimension must be 2, got {n}")
        p = _require_number(builder["p"], f"{bpath}.p")
        if not (0.0 < p < 1.0):
            raise _err(f"{bpath}.p", f"must be in (0, 1), got {p}")
        alpha = _parse_fraction(builder["alpha_over_pi"], f"{bpath}.alpha_over_pi")
        beta = _parse_fraction(builder["beta_over_pi"], f"{bpath}.beta_over_pi")
        try:
            phi = make_spin_rotation_map(float(alpha) * math.pi, float(beta) * math.pi, p)
        except (ValueError, OverflowError) as exc:
            raise _err(bpath, str(exc)) from exc
        return phi, SpinRotationSpec(alpha, beta, p)
    if name == "spontaneous_emission":
        _require_keys(builder, {"name", "gamma"}, bpath)
        if "gamma" not in builder:
            raise _err(bpath, "missing field 'gamma'")
        if n != 2:
            raise _err(bpath, f"spontaneous_emission is a qubit map, dimension must be 2, got {n}")
        gamma = _require_number(builder["gamma"], f"{bpath}.gamma")
        if not (0.0 < gamma < 1.0):
            raise _err(f"{bpath}.gamma", f"must be in (0, 1), got {gamma}")
        return make_spontaneous_emission_map(gamma), SpontaneousEmissionSpec(gamma)
    raise _err(
        bpath, f"unknown builder {name!r}; supported: spin_rotation, spontaneous_emission"
    )


def reference_parse_output(data) -> tuple[str, str]:
    if data is None:
        return "trace.csv", "summary.json"
    path = "output"
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    _require_keys(data, {"trace_csv", "summary"}, path)
    trace_csv = data.get("trace_csv", "trace.csv")
    summary = data.get("summary", "summary.json")
    for name, value in (("trace_csv", trace_csv), ("summary", summary)):
        if not isinstance(value, str) or not value:
            raise _err(f"{path}.{name}", "expected a nonempty string")
        # subdirectories are fine, the runner creates them
        name_path = PurePath(value)
        if not name_path.parts or name_path.is_absolute() or ".." in name_path.parts:
            raise _err(
                f"{path}.{name}",
                f"must be a file path inside the output directory, got {value!r}",
            )
    # one name may not be the other, nor a directory on the other's path
    a, b = PurePath(trace_csv), PurePath(summary)
    if a == b or a in b.parents or b in a.parents:
        raise _err(f"{path}.summary", f"collides with {path}.trace_csv: {summary!r}, {trace_csv!r}")
    return trace_csv, summary



# --- the corrected powers that `trace._Powers` replaced ----------------------


class ReferencePowers:
    """Reference kernel: `trace._Powers` as it squared one power at a time,
    correcting each square before the next on one side after the other,
    over the transposed view for the left side.

    M^(2^j) of a run's row form M, squared on first use.

    A square doubles the error of the power it squares, so the rounding of
    the first squares would grow 2^j-fold, and along a direction the map
    keeps the run would drift by it from block to block. That direction is
    w, 1 on the first `fixed` coordinates and 0 on the rest: on each side
    where M fixes w within _FIXED_TOL (w M = w, a fixed state; M w = w, a
    conserved pairing) each square is corrected to map w exactly as the
    power maps it, w + d with d = M^(2^j) w - w carried apart from w, so
    that a doubled run drifts along w only by the rounding of its products,
    as a stepped run does."""

    def __init__(self, M: np.ndarray, fixed: int) -> None:
        self.powers, self.fixed = [M], fixed
        self.w = (np.arange(len(M)) < fixed).astype(float)

    @cached_property
    def sides(self) -> list:
        """(left, d) for each side where M fixes w, d = M w - w or w M - w;
        the right side last, so that its pairing is the one kept exactly."""
        M, sides = self.powers[0], []
        for left in (True, False):
            d = -reference_residual(M.T if left else M, self.fixed, self.w, 0.0)
            if np.abs(d).max() <= _FIXED_TOL:
                sides.append((left, d))
        return sides

    def __getitem__(self, j: int) -> np.ndarray:
        while j >= len(self.powers):
            P = self.powers[-1]
            Q = P @ P
            for k, (left, d) in enumerate(self.sides):
                # P^2 w - w = P (P w - w) + (P w - w)
                d = d + (P.T if left else P) @ d
                R = Q.T if left else Q
                reference_keep(R, self.fixed, reference_residual(R, self.fixed, self.w, d))
                self.sides[k] = (left, d)
            self.powers.append(Q)
        return self.powers[j]


def reference_residual(Q: np.ndarray, m: int, w: np.ndarray, d) -> np.ndarray:
    """w + d minus the sums of the first m entries of each row of Q, the sums
    exact but for a rounding far below eps: the entries are split into parts
    on one grid, whose sums are exact, and remainders below its spacing."""
    head = Q[:, :m]
    top = np.abs(head).max()
    if top == 0.0:
        return w + d
    sigma = 2.0 ** (math.ceil(math.log2(m * top)) + 1)
    hi = (head + sigma) - sigma
    # w - sum(hi) is exact: both are multiples of the grid's spacing below sigma
    return (w - hi.sum(axis=1)) + (d - (head - hi).sum(axis=1))


def reference_keep(Q: np.ndarray, m: int, r: np.ndarray) -> None:
    """Add each row's residual r to its entry of least magnitude among the
    first m that exceed it, whose rounding is far below eps, so that no
    entry changes sign."""
    head = Q[:, :m]
    size = np.abs(head)
    size[size <= np.abs(r)[:, None]] = np.inf
    k = size.argmin(axis=1)
    rows = np.flatnonzero(size[np.arange(len(Q)), k] < np.inf)
    head[rows, k[rows]] += r[rows]
