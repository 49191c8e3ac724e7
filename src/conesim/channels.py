"""Kraus maps, their unital duals, and consensus analysis on the positive definite cone."""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat

import numpy as np

from .classical import as_stochastic_matrix
from .hermitian import as_hermitian_array, is_positive_definite, spectral_interval
from .trace import SimulationTrace, StoppingRule, TerminalStatus, _check_count, iterate

__all__ = [
    "KrausMap",
    "SpectralNestingReport",
    "ImageRadiusEstimate",
    "FixedPointResult",
    "DualityReport",
    "FixedPointError",
    "apply_dual",
    "apply_channel",
    "kraus_power",
    "run_noncommutative_consensus",
    "run_channel",
    "check_spectral_nesting",
    "estimate_image_radius",
    "channel_fixed_point",
    "duality_invariant_check",
    "build_classical_embedding",
    "make_spin_rotation_map",
    "make_spontaneous_emission_map",
    "spin_rotation_special_cases",
    "spontaneous_emission_spectral_shift",
    "random_kraus_map",
]

KRAUS_TOL = 1e-10
# duality_invariant_check: largest pairing error a report calls ok
PAIRING_TOL = 1e-10
# projectors mapped per batch by estimate_image_radius
RADIUS_CHUNK = 4096
# channel_fixed_point: residual gate, singular-value threshold of C - I, and
# the step budget of its fallback run
RESIDUAL_TOL = 1e-10
DEGENERACY_GAP = 1e-8
MAX_FALLBACK_ITERATIONS = 10_000
# a unique fixed point whose gap, the second-smallest singular value of
# C - I, is below this takes one inverse-iteration step: the solve alone is
# accurate to about eps / gap, 2.2e-14 here
_REFINE_GAP = 1e-2
_LIOUVILLE_MAX_N = 8  # the step size rule, see KrausMap


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Operators {V_i} with sum_i V_i* V_i = I, held as one read-only
    (m, n, n) complex array.

    One object carries both actions: the unital dual X -> sum V_i* X V_i
    (see :func:`apply_dual`) and the trace-preserving channel
    Z -> sum V_i Z V_i* (see :func:`apply_channel`). `is_unital_channel` is
    set when additionally sum V_i V_i* = I, the doubly-stochastic analog.

    `_real_form` C, real n^2 x n^2, built on first use and kept, is the
    channel in the orthonormal basis E_kk, (E_kl + E_lk)/sqrt(2),
    i(E_kl - E_lk)/sqrt(2) of the Hermitian matrices (see `_to_coords`).
    Every action on a matrix steps by one rule, `_state_space`: at
    n <= `_LIOUVILLE_MAX_N` = 8 the matrix's coordinates c go to c C (the
    dual) or c C^T (the channel, the adjoint: the basis is orthonormal),
    32 KB per map at n = 8; above it two 2-d products (see `_step`): X times
    Ah, the operators side by side as one (n, m n) array, then AhrH, the
    adjoint of Ah's (n m, n) flattening, times the product's (n m, n)
    flattening, a sum over the rows of X and, within each row, over the
    operators. `_dual` and `_channel`, built on first use, hold (Ah, AhrH)
    of (V_i) and (V_i*).
    The two analyses, the image radius and the fixed point, use C at every
    n (512 KB at n = 16). A dual step with m = 4-5 operators, stacked
    against real (2 cores under other load, numpy 2.4.6 on OpenBLAS, 1 and 2
    BLAS threads, medians of 11): 14 against 1.4-1.5 us at n = 2 and 4,
    16-17 against 2.2-2.3 us at n = 8, 16-22 against 4.0-6.2 us at n = 12,
    28-30 against 9.4-16 us at n = 16, 35-41 against 38-39 us at n = 20,
    43-60 against 121-142 us at n = 24, 92-108 against 256-518 us at n = 32;
    the step on the (m, n, n) stack that this replaced took 107-139 us at
    n = 32 in the same runs. The break-even stays near n = 20, where C holds
    1.3 MB.
    """

    # `kraus_power` builds its powers without __init__ and sets both fields
    operators: np.ndarray
    is_unital_channel: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if len(self.operators) < 1:
            raise ValueError("KrausMap needs at least one operator")
        ops = [np.asarray(op, dtype=complex) for op in self.operators]
        for k, m in enumerate(ops):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"operator {k} is not square: shape {m.shape}")
            if m.shape[0] != ops[0].shape[0]:
                raise ValueError(
                    f"operator {k} has dimension {m.shape[0]}, expected {ops[0].shape[0]}"
                )
            if not np.all(np.isfinite(m)):
                raise ValueError(f"operator {k} has non-finite entries")
        A = np.array(ops)
        A.flags.writeable = False
        n = A.shape[1]
        # sum V_i* V_i = S* S and sum V_i V_i* = Ah Ah*, with S the operators
        # stacked and Ah the operators side by side
        eye, S, Ah = np.eye(n), A.reshape(-1, n), A.transpose(1, 0, 2).reshape(n, -1)
        dev = float(np.max(np.abs(S.conj().T @ S - eye)))
        if dev > KRAUS_TOL:
            raise ValueError(
                f"sum V*V deviates from identity by {dev:.3e} (tolerance {KRAUS_TOL})"
            )
        unital = float(np.max(np.abs(Ah @ Ah.conj().T - eye))) <= KRAUS_TOL
        object.__setattr__(self, "operators", A)
        object.__setattr__(self, "is_unital_channel", unital)

    @property
    def dimension(self) -> int:
        return int(self.operators.shape[1])

    @property
    def operator_count(self) -> int:
        return len(self.operators)

    @cached_property
    def _dual(self) -> tuple[np.ndarray, np.ndarray]:
        """The dual's step form, see `_step_form`, built on first use."""
        return _step_form(self.operators)

    @cached_property
    def _channel(self) -> tuple[np.ndarray, np.ndarray]:
        """The channel's step form, of the V_i*, built on first use."""
        return _step_form(self.operators.conj().swapaxes(1, 2))

    @cached_property
    def _real_form(self) -> np.ndarray:
        """C, read-only and built once per map: row b of C^T holds the
        coordinates of the channel's image of basis matrix b, gathered from
        at most two rows of T: row (c, d) is the vec of the channel's image
        sum_i V_i E_cd V_i* of the matrix unit E_cd."""
        n = self.dimension
        A = self.operators.reshape(-1, n * n)
        # (A^T conj(A))[(a, c), (b, d)] = sum_i V_i[a, c] conj(V_i[b, d])
        T = (A.T @ A.conj()).reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)
        diag, up, lo = _triangles(n)
        r = math.sqrt(0.5)
        images = np.concatenate((T[diag], (T[up] + T[lo]) * r, (T[up] - T[lo]) * (1j * r)))
        C = _to_coords(images.reshape(-1, n, n)).T
        C.flags.writeable = False
        return C


def _kraus_maps(maps, X: np.ndarray) -> Iterator[KrausMap]:
    """The maps of a run, by the rule of `trace.iterate`: one KrausMap is
    checked here and repeated, anything else is iterated and each item
    checked against the state X when it is pulled."""
    if isinstance(maps, KrausMap):
        return repeat(_check_dims(maps, X))
    return (_check_dims(phi, X) for phi in maps)


def _as_density_array(Z) -> np.ndarray:
    """Z as a read-only density matrix: Hermitian (see `as_hermitian_array`),
    of unit trace within 1e-12 and positive semidefinite, lambda_min >= -1e-12."""
    m = as_hermitian_array(Z)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-12:
        raise ValueError(f"trace is {tr!r}, expected 1 within 1e-12")
    ev = np.linalg.eigvalsh(m)
    if ev[0] < -1e-12:
        raise ValueError(f"not positive semidefinite: lambda_min={ev[0]:.3e}")
    return m


def _check_dims(phi: KrausMap, X: np.ndarray) -> KrausMap:
    if not isinstance(phi, KrausMap):
        raise TypeError(f"{type(phi).__name__} is not a KrausMap")
    if X.shape[0] != phi.dimension:
        raise ValueError(f"dimension mismatch: map is {phi.dimension}, state is {X.shape[0]}")
    return phi


def _symmetrize(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hermitian part of a matrix or of each matrix in a stack, written into
    `out` (a new array when None)."""
    out = np.conjugate(M.swapaxes(-1, -2), out=np.empty_like(M) if out is None else out)
    out += M
    out *= 0.5
    return out


@cache
def _triangles(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major flat indices of the diagonal, the upper and the lower
    triangle of an n x n matrix, the triangles in matching order."""
    up, lo = np.triu_indices(n, 1)
    return _read_only(np.arange(n) * (n + 1), up * n + lo, lo * n + up)


@cache
def _coordinate_gathers(n: int) -> tuple[np.ndarray, ...]:
    """Index and weight arrays between the n^2 real coordinates and the float
    view of an n x n complex matrix, real and imaginary parts interleaved:
    coordinate j is view[read[j]] * read_weight[j], view entry k is
    coords[write[k]] * write_weight[k], and zero at the imaginary parts of
    the diagonal, `zero`."""
    diag, up, lo = _triangles(n)
    read = np.concatenate((2 * diag, 2 * up, 2 * up + 1))
    write = np.zeros(2 * n * n, dtype=np.intp)
    write[read] = np.arange(n * n)
    write[2 * lo], write[2 * lo + 1] = write[2 * up], write[2 * up + 1]
    write_weight = np.full(2 * n * n, math.sqrt(0.5))
    write_weight[2 * diag] = 1.0
    write_weight[2 * lo + 1] *= -1.0
    read_weight = np.where(np.arange(n * n) < n, 1.0, math.sqrt(2.0))
    return _read_only(read, read_weight, write, write_weight, 2 * diag + 1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cached result is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _to_coords(X: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each in a stack, in the
    orthonormal basis of `KrausMap`: the diagonal, then sqrt(2) times the
    real and the imaginary parts of the upper triangle."""
    n = X.shape[-1]
    read, read_weight, *_ = _coordinate_gathers(n)
    view = np.ascontiguousarray(X).reshape(X.shape[:-2] + (n * n,)).view(float)
    return view[..., read] * read_weight


def _from_coords(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Hermitian matrix of real coordinates, or of each row of a stack,
    written into `out` (a new array when None); the lower triangle is the
    exact conjugate of the upper and the diagonal exactly real."""
    n = math.isqrt(c.shape[-1])
    _, _, write, write_weight, zero = _coordinate_gathers(n)
    if out is None:
        out = np.empty(c.shape[:-1] + (n, n), complex)
    view = out.reshape(c.shape).view(float)
    np.multiply(c[..., write], write_weight, out=view)
    view[..., zero] = 0.0
    return out


def _step_form(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ah, AhrH) of the stack A, (m, n, n), see `_step`: Ah the A_i side by
    side, (n, m n), and AhrH the adjoint of Ah's (n m, n) flattening, whose
    column r m + i is row r of A_i*; both C-contiguous and read-only."""
    m, n, _ = A.shape
    Ah = np.ascontiguousarray(A.transpose(1, 0, 2).reshape(n, m * n))
    return _read_only(Ah, np.ascontiguousarray(Ah.reshape(n * m, n).conj().T))


def _step(form, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One dual or channel step of a Hermitian matrix, its Hermitian part
    written into `out`: sum_i A_i* X A_i as two 2-d products, X Ah, whose
    blocks are the X A_i, then AhrH times its (n m, n) flattening, which sums
    over the rows r of X and, within each, over the operators i. `form` is
    `_step_form` of A = (V_i) for the dual and (V_i*) for the channel."""
    Ah, AhrH = form
    return _symmetrize(AhrH @ (X @ Ah).reshape(AhrH.shape[1], -1), out)


def _state_space(n: int) -> tuple[Callable, ...]:
    """(to_state, dual_step, channel_step, to_matrix) of dimension n, the
    one way a map acts on a Hermitian matrix: in runs, in the duality check
    and, through `_act`, in every single application. A step is called as
    step(map, state, out). At n <= `_LIOUVILLE_MAX_N` the states are real
    coordinates, stepped by the real form of `KrausMap`; above it they are
    Hermitian matrices, stepped by `_step`. Norms and dot products of either
    are Frobenius norms and trace pairings."""
    if n > _LIOUVILLE_MAX_N:
        return (
            np.asarray,
            lambda phi, X, out: _step(phi._dual, X, out),
            lambda psi, X, out: _step(psi._channel, X, out),
            np.asarray,
        )
    return (
        _to_coords,
        lambda phi, c, out: np.dot(c, phi._real_form, out=out),
        lambda psi, c, out: np.dot(c, psi._real_form.T, out=out),
        _from_coords,
    )


def _act(phi: KrausMap, X: np.ndarray, dual: bool) -> np.ndarray:
    """The dual or the channel of phi applied once to the Hermitian matrix X,
    as a run of its dimension steps it."""
    to_state, dual_step, channel_step, to_matrix = _state_space(X.shape[0])
    return to_matrix((dual_step if dual else channel_step)(phi, to_state(X), None))


def apply_dual(phi: KrausMap, X) -> np.ndarray:
    """Unital dual action sum_i V_i* X V_i, stepped as a run of X's
    dimension steps it (see `_state_space`), so the result is exactly
    Hermitian.

    Fixes the identity, is linear, and maps the positive definite cone into
    itself; the non-commutative counterpart of a row-stochastic update.
    """
    Xm = as_hermitian_array(X)
    return _act(_check_dims(phi, Xm), Xm, True)


def apply_channel(psi: KrausMap, Z) -> np.ndarray:
    """Channel action sum_i V_i Z V_i*, trace-preserving and PSD-preserving,
    stepped as a run of Z's dimension steps it."""
    Zm = as_hermitian_array(Z)
    return _act(_check_dims(psi, Zm), Zm, False)


def kraus_power(phi: KrausMap, k: int) -> KrausMap:
    """phi applied k times as one Kraus map: the m^k products V_i1 ... V_ik, i1 slowest.

    The products are not checked again: phi's Kraus sum, off by at most
    KRAUS_TOL, may be off by up to (1 + KRAUS_TOL)^k - 1 in the power's. The
    power keeps phi's `is_unital_channel`, as Psi(I) = I gives Psi^k(I) = I."""
    if _check_count("k", k) < 1:
        raise ValueError("power must be >= 1")
    V = ops = phi.operators
    for _ in range(k - 1):
        ops = (ops[:, None] @ V[None]).reshape(-1, phi.dimension, phi.dimension)
    if k == 1:
        return phi
    ops.flags.writeable = False
    power = object.__new__(KrausMap)
    object.__setattr__(power, "operators", ops)
    object.__setattr__(power, "is_unital_channel", phi.is_unital_channel)
    return power


def _spectral_measure(n: int, limit, lyapunov: bool) -> Callable:
    """Trace columns of a run's states of dimension n, in its state space
    (see `_state_space`): the spectral interval, the Frobenius distance to
    `limit` when one is supplied and, when `lyapunov` is set, the Hilbert
    distance to the identity ray log(lambda_max / lambda_min) of the positive
    definite states; `iterate` stops a run on the spectral width lambda_max -
    lambda_min. A qubit's spectrum is read off its coordinates; other states
    are rebuilt as matrices for `eigvalsh`."""
    to_matrix = _state_space(n)[3]
    limit_m = None if limit is None else as_hermitian_array(limit)

    def measure(states: np.ndarray):
        M = None if n == 2 and limit_m is None else to_matrix(states)
        ev = _qubit_spectra(states) if n == 2 else np.linalg.eigvalsh(M)
        lo, hi = ev[:, 0], ev[:, -1]
        lyap = None
        if lyapunov:
            lyap = np.full(len(states), math.nan)
            pd = is_positive_definite(ev)
            lyap[pd] = np.log(hi[pd]) - np.log(lo[pd])
        dist = None if limit_m is None else _frobenius(M - limit_m)
        return lyap, lo, hi, dist, None

    return measure


def _qubit_spectra(c: np.ndarray) -> np.ndarray:
    """Ascending spectra of 2 x 2 Hermitian matrices, one per row of their
    coordinates c = (x00, x11, sqrt(2) Re x01, sqrt(2) Im x01):
    (c0 + c1)/2 -/+ sqrt(((c0 - c1)/2)^2 + (c2^2 + c3^2)/2), the root taken
    by `hypot` so that no square overflows or underflows."""
    c0, c1, c2, c3 = c.T
    h = math.sqrt(0.5)
    mean = 0.5 * c0 + 0.5 * c1
    radius = np.hypot(0.5 * c0 - 0.5 * c1, np.hypot(h * c2, h * c3))
    return np.stack((mean - radius, mean + radius), axis=-1)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """np.linalg.norm(M) of each matrix M in a stack, complex or real, bit
    for bit: it too takes sqrt(re . re + im . im) over the flattened matrix."""
    v = stack.reshape(len(stack), 1, math.prod(stack.shape[1:]))
    re, im = v.real, v.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1)


def _run_kraus(maps, X: np.ndarray, dual: bool, measure, stop, move=None) -> SimulationTrace:
    """`iterate` the dual or the channel from the Hermitian matrix X in the
    state space of its dimension; at n <= `_LIOUVILLE_MAX_N` the run hands
    `iterate` its row form, C for the dual and C^T for the channel."""
    to_state, dual_step, channel_step, to_matrix = _state_space(X.shape[0])
    form = fixed = None
    if X.shape[0] <= _LIOUVILLE_MAX_N:
        form = (lambda phi: phi._real_form) if dual else (lambda psi: psi._real_form.T)
        # the identity, whose coordinates are 1 on the diagonal, first: the
        # dual fixes it, the channel conserves the trace pairing with it
        fixed = X.shape[0]
    step = dual_step if dual else channel_step
    trace = iterate(_kraus_maps(maps, X), to_state(X), step, measure, stop, move, form, fixed)
    trace.final_state = to_matrix(trace.final_state)
    return trace


def run_noncommutative_consensus(
    maps, X0, stop: StoppingRule | None = None, limit=None
) -> SimulationTrace:
    """Iterate X(t+1) = dual(X(t)) until the spectral width shrinks below
    tolerance.

    Records the spectral interval at each step and, while the state is
    positive definite, the Hilbert distance to the identity ray
    log(lambda_max / lambda_min), which is non-increasing along the run.
    The initial state may be any Hermitian matrix; translation by a multiple
    of the identity commutes with the dynamics. Maps are applied in blocks,
    so a one-shot iterator of maps may be advanced past the stopping index.
    """
    X = np.array(as_hermitian_array(X0))
    measure = _spectral_measure(X.shape[0], limit, lyapunov=True)
    return _run_kraus(maps, X, True, measure, stop)


def run_channel(maps, Z0, stop: StoppingRule | None = None, limit=None) -> SimulationTrace:
    """Iterate the density matrix Z(t+1) = channel(Z(t)).

    The channel side has no universal monotone spread (its limit need not be
    a multiple of the identity), so the run stops when successive states
    differ by less than tolerance in Frobenius norm. For a constant unital
    channel the Hilbert distance to the identity is recorded as the Lyapunov
    column; otherwise the column is left empty. Maps are applied in blocks,
    so a one-shot iterator of maps may be advanced past the stopping index.
    """
    Z = np.array(_as_density_array(Z0))
    unital = isinstance(maps, KrausMap) and maps.is_unital_channel
    measure = _spectral_measure(Z.shape[0], limit, lyapunov=unital)
    return _run_kraus(maps, Z, False, measure, stop, move=_frobenius)


@dataclass(frozen=True)
class SpectralNestingReport:
    """Margins of the spectral interval nesting under one dual application;
    `before` and `after` are the intervals (lambda_min, lambda_max)."""

    before: tuple[float, float]
    after: tuple[float, float]
    min_margin: float
    max_margin: float
    satisfied: bool


def check_spectral_nesting(phi: KrausMap, X, slack: float = 1e-10) -> SpectralNestingReport:
    """Verify that the dual map can only shrink the spectral interval:
    lambda_min may not decrease and lambda_max may not increase."""
    if math.isnan(slack):
        raise ValueError(f"slack must not be NaN, got {slack}")
    Xm = as_hermitian_array(X)
    before = spectral_interval(Xm)
    after = spectral_interval(_act(_check_dims(phi, Xm), Xm, True))
    min_margin = after[0] - before[0]
    max_margin = before[1] - after[1]
    return SpectralNestingReport(
        before, after, min_margin, max_margin, min_margin >= -slack and max_margin >= -slack
    )


@dataclass(frozen=True, eq=False)
class ImageRadiusEstimate:
    """Sampled lower bound on the image radius sup_X d(dual(X), I).

    The supremum is attained on rank-1 projectors, so the estimator sweeps
    those; `attained_at` is the maximizing projector (or the first witness
    mapped to a singular matrix when the radius is ``math.inf``).
    """

    radius: float
    attained_at: np.ndarray
    samples_drawn: int


def estimate_image_radius(
    phi: KrausMap,
    samples: int,
    seed: int = 0,
) -> ImageRadiusEstimate:
    """Estimate the image radius of a dual map, such as a Kraus power, by sampling
    rank-1 projectors.

    The standard basis projectors are probed first (deterministically), then
    `samples` Haar-uniform ones; degeneracies pinned to coordinate axes would
    otherwise be missed almost surely. Whenever an image is singular at the
    relative floor the radius is ``math.inf`` and that projector is returned
    as the witness. Otherwise the result is a running maximum: a lower bound
    that converges to the true radius from below as samples grow. Projectors
    are mapped in batches of `RADIUS_CHUNK`, by the real form C of `KrausMap`
    at every n.
    """
    if _check_count("samples", samples) < 1:
        raise ValueError("samples must be >= 1")
    C = phi._real_form
    best_val, best_proj, drawn = -math.inf, None, 0
    for batch in _radius_probes(phi.dimension, samples, seed):
        ev = np.linalg.eigvalsh(_from_coords(_to_coords(batch) @ C))
        singular = ~is_positive_definite(ev)
        if singular.any():
            k = int(np.argmax(singular))
            return ImageRadiusEstimate(math.inf, np.array(batch[k]), drawn + k + 1)
        vals = np.log(ev[:, -1]) - np.log(ev[:, 0])
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_proj = float(vals[k]), np.array(batch[k])
        drawn += len(batch)
    return ImageRadiusEstimate(best_val, best_proj, drawn)


def _radius_probes(n: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """The n standard basis projectors as one batch, then `samples`
    Haar-uniform rank-1 projectors drawn from `seed`, in batches of
    `RADIUS_CHUNK`."""
    eye = np.eye(n, dtype=complex)
    yield eye[:, :, None] * eye[:, None, :]
    rng = np.random.default_rng(seed)
    for start in range(0, samples, RADIUS_CHUNK):
        b = min(RADIUS_CHUNK, samples - start)
        g = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        yield np.einsum("si,sj->sij", g, g.conj())


# --- fixed points ----------------------------------------------------------


class FixedPointError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    density: np.ndarray
    residual: float
    unique: bool
    eigenvalue_one_multiplicity: int


def channel_fixed_point(psi: KrausMap) -> FixedPointResult:
    """Stationary density of a trace-preserving channel.

    The fixed point spans the null space of C - I, C the real form of the
    channel (see `KrausMap`); C - I is unitarily similar to S - I, S the
    Liouville matrix. Its dimension, reported as
    `eigenvalue_one_multiplicity`, is the number of singular values of C - I
    at most `DEGENERACY_GAP`: the geometric multiplicity of eigenvalue 1.
    When it is at most 1, one real linear solve gives the fixed point: trace
    preservation makes the rows of C - I at the diagonal coordinates sum to
    zero, so the first of them is replaced by the unit-trace condition. The
    solve is accurate to about eps / gap, the gap being the second-smallest
    singular value of C - I, so below `_REFINE_GAP` one inverse-iteration
    step on C - I follows, unless C - I is exactly singular or the step is
    not finite. When the multiplicity exceeds 1 the fixed point is not
    unique; the routine then runs the channel from I/n for at most
    `MAX_FALLBACK_ITERATIONS` steps, until successive states differ by at
    most `RESIDUAL_TOL`, and flags non-uniqueness rather than fabricating a
    choice. A run that does
    not settle (a periodic one) gives the fixed point it averages to: I/n
    projected onto the null space of C - I along its range, which a
    channel's eigenvalue 1, semisimple, makes complementary.

    Uniqueness is guaranteed only when some power of the dual map has finite
    projective diameter.

    Raises FixedPointError when no PSD trace-1 fixed point is found at
    `RESIDUAL_TOL`, which signals numerical breakdown for a valid map.
    """
    n = psi.dimension
    A = psi._real_form - np.eye(n * n)
    sv = np.linalg.svd(A, compute_uv=False)
    multiplicity = int(np.sum(sv <= DEGENERACY_GAP))

    if multiplicity <= 1:
        bordered = A.copy()
        bordered[0] = 0.0
        bordered[0, :n] = 1.0  # the diagonal coordinates come first
        e0 = np.zeros(n * n)
        e0[0] = 1.0
        try:
            v = np.linalg.solve(bordered, e0)
        except np.linalg.LinAlgError:
            raise FixedPointError("fixed direction has numerically zero trace") from None
        if len(sv) > 1 and sv[-2] < _REFINE_GAP:
            v = _inverse_step(A, v, n)
        Z = _from_coords(v)
    else:
        run = run_channel(psi, np.eye(n) / n, StoppingRule(RESIDUAL_TOL, MAX_FALLBACK_ITERATIONS))
        Z = run.final_state
        if run.status is not TerminalStatus.CONVERGED:
            # the last singular vectors span the null space of A (right) and
            # the complement of its range (left)
            u, _, vt = np.linalg.svd(A)
            K, L = vt[-multiplicity:].T, u[:, -multiplicity:]
            Z = _from_coords(K @ np.linalg.solve(L.T @ K, L[:n].sum(axis=0) / n))

    residual = float(np.linalg.norm(_act(psi, Z, False) - Z))
    if residual > RESIDUAL_TOL:
        raise FixedPointError(f"fixed-point residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    try:
        density = _as_density_array(Z)
    except ValueError as exc:
        raise FixedPointError(f"no PSD trace-1 fixed point at tolerance: {exc}") from exc
    return FixedPointResult(density, residual, multiplicity <= 1, multiplicity)


def _inverse_step(A: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """One inverse-iteration step on A from the coordinates v, scaled to unit
    trace; v itself where A is exactly singular or the step is not finite."""
    try:
        w = np.linalg.solve(A, v)
    except np.linalg.LinAlgError:
        return v
    with np.errstate(all="ignore"):
        w /= w[:n].sum()
    return w if np.isfinite(w).all() else v


@dataclass(frozen=True)
class DualityReport:
    """Pairing check tr(Z(t) X0) == tr(Z0 X(t)) along channel/dual runs."""

    steps: int
    max_pairing_error: float
    pairing_ok: bool
    final_pairing_value: float
    limit_value: float | None = None
    limit_error: float | None = None


def duality_invariant_check(psi: KrausMap, Z0, X0, t_max: int, zbar=None) -> DualityReport:
    """Run the channel on Z and the dual on X for t <= t_max and compare the
    two expressions of the pairing at every step.

    When `zbar` (a fixed point) is given, also report how far the final
    pairing sits from its stationary value tr(zbar X0).
    """
    if _check_count("t_max", t_max) < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    Zm = _as_density_array(Z0)
    Xm = as_hermitian_array(X0)
    _check_dims(psi, Zm)
    _check_dims(psi, Xm)
    to_state, dual_step, channel_step, _ = _state_space(psi.dimension)
    Z_fixed, X_fixed = Z, X = to_state(Zm), to_state(Xm)
    max_err = 0.0
    for t in range(t_max + 1):
        # tr(A B) of Hermitian matrices is vdot(A, B), of coordinates dot
        p_channel = complex(np.vdot(X_fixed, Z))
        p_dual = complex(np.vdot(X, Z_fixed))
        max_err = max(max_err, abs(p_channel - p_dual))
        pairing = p_channel.real
        if t < t_max:
            Z = channel_step(psi, Z, None)
            X = dual_step(psi, X, None)
    limit_value = None
    limit_error = None
    if zbar is not None:
        limit_value = float(np.trace(as_hermitian_array(zbar) @ Xm).real)
        limit_error = abs(pairing - limit_value)
    return DualityReport(t_max, max_err, max_err <= PAIRING_TOL, pairing, limit_value, limit_error)


# --- classical embedding ----------------------------------------------------


def build_classical_embedding(A) -> KrausMap:
    """Embed x -> A x as a Kraus dual map acting on diagonal matrices.

    The operators factor as V_i = S_i W_i: shift permutations
    S_i e_k = e_{(k+i) mod n} and diagonal weights
    (W_i)_kk = sqrt(a_{k,(k+i) mod n}). The squared weights resum the rows of
    A, so the Kraus condition is exactly row-stochasticity, and the dual map
    leaves diagonal matrices diagonal, acting on their diagonals as A does.
    """
    a = as_stochastic_matrix(A)
    n = len(a)
    k = np.arange(n)
    rows = (k + k[:, None]) % n  # rows[i, k] = (k + i) mod n
    ops = np.zeros((n, n, n), dtype=complex)
    # + 0.0 makes the root of a -0.0 entry 0.0, as the product S_i W_i does
    ops[k[:, None], rows, k] = np.sqrt(a[k, rows]) + 0.0
    return KrausMap(ops)


# --- built-in two-level maps -------------------------------------------------


def make_spin_rotation_map(alpha: float, beta: float, p: float) -> KrausMap:
    """Two-operator qubit map mixing a z-rotation (probability p) with an
    x-rotation (probability 1-p).

    Both operators are scaled unitaries, so the map is trace-preserving and
    unital; its dual equals the channel with both angles negated.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")
    v0 = math.sqrt(p) * np.array(
        [[np.exp(1j * alpha), 0.0], [0.0, np.exp(-1j * alpha)]], dtype=complex
    )
    v1 = math.sqrt(1.0 - p) * np.array(
        [
            [math.cos(beta), 1j * math.sin(beta)],
            [1j * math.sin(beta), math.cos(beta)],
        ],
        dtype=complex,
    )
    return KrausMap((v0, v1))


def spin_rotation_special_cases(alpha_over_pi, beta_over_pi) -> tuple[str, ...]:
    """Detect the angle configurations for which the mixed-rotation map fails
    to contract toward I/2.

    Angles are taken as exact rational multiples of pi, because membership in
    these cases is not decidable from floating-point angles. Returns a tuple
    of labels; an empty tuple means the generic, contracting configuration.
    """
    a = Fraction(alpha_over_pi)
    b = Fraction(beta_over_pi)
    cases = []
    if a.denominator == 1:
        cases.append("alpha_multiple_of_pi")
    if b.denominator == 1:
        cases.append("beta_multiple_of_pi")
    if (2 * a).denominator == 1 and (2 * b).denominator == 1:
        cases.append("alpha_and_beta_multiples_of_half_pi")
    return tuple(cases)


def make_spontaneous_emission_map(gamma: float) -> KrausMap:
    """Two-operator qubit map for decay to the ground state.

    V0 damps the excited amplitude, V1 transfers excited population to the
    ground level with rate gamma^2. Trace-preserving but not unital as a
    channel: the ground state absorbs.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    v0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma * gamma)]], dtype=complex)
    v1 = np.array([[0.0, gamma], [0.0, 0.0]], dtype=complex)
    return KrausMap((v0, v1))


def spontaneous_emission_spectral_shift(X, gamma: float) -> tuple[float, float]:
    """Closed-form endpoint shifts (rho_plus, rho_minus) of the spectral
    interval under one dual application of the emission map:

        [l_min, l_max] -> [l_min + rho_plus, l_max - rho_minus]

    With d = (x11 - x22)/2 and r = sqrt(d^2 + |x12|^2) (the spectral radius
    of the traceless part), the mapped state has radius
    r' = sqrt((1-g^2)^2 d^2 + (1-g^2) |x12|^2) and midpoint shifted by g^2 d,
    hence rho_pm = (r - r') pm g^2 d. Both shifts are nonnegative, which is
    the strict interval contraction; on diagonal states they are
    g^2 (r pm d).
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    Xm = as_hermitian_array(X)
    if Xm.shape != (2, 2):
        raise ValueError("closed form is specific to 2x2 states")
    g2 = gamma * gamma
    d = 0.5 * (Xm[0, 0].real - Xm[1, 1].real)
    off_sq = abs(Xm[0, 1]) ** 2
    r = math.sqrt(d * d + off_sq)
    r_mapped = math.sqrt((1.0 - g2) * ((1.0 - g2) * d * d + off_sq))
    return (r - r_mapped) + g2 * d, (r - r_mapped) - g2 * d


def random_kraus_map(n: int, m: int, seed_or_rng=0) -> KrausMap:
    """Draw a random trace-preserving map with m operators.

    An (m n) x n complex Gaussian matrix is orthonormalized by QR and sliced
    into m blocks, which makes the Kraus sum the identity up to factorization
    error.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"operator count must be >= 1, got {m}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    g = rng.standard_normal((m * n, n)) + 1j * rng.standard_normal((m * n, n))
    q, _ = np.linalg.qr(g)
    return KrausMap(q.reshape(m, n, n))
