"""Kraus maps, their unital duals, and consensus analysis on the positive definite cone."""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import repeat

import numpy as np

from .cones import ExtendedNonnegReal, contraction_ratio
from .hermitian import (
    HermitianMatrix,
    SpectralInterval,
    as_hermitian_array,
    is_positive_definite,
    spectral_interval,
)
from .trace import SimulationTrace, StoppingRule, iterate

__all__ = [
    "KrausMap",
    "DensityMatrix",
    "SpectralNestingReport",
    "ImageRadiusEstimate",
    "DiameterBracket",
    "FixedPointResult",
    "DualityReport",
    "FixedPointError",
    "apply_dual",
    "apply_channel",
    "compose",
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


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Operators {V_i} with sum_i V_i* V_i = I, held as one read-only
    (m, n, n) complex array.

    One object carries both actions: the unital dual X -> sum V_i* X V_i
    (see :func:`apply_dual`) and the trace-preserving channel
    Z -> sum V_i Z V_i* (see :func:`apply_channel`). `is_unital_channel` is
    set when additionally sum V_i V_i* = I, the doubly-stochastic analog.
    `superoperator` gives both actions as one n^2 x n^2 matrix.
    """

    operators: np.ndarray
    is_unital_channel: bool = field(init=False, default=False)
    # the stacks (V_i) and (V_i*) with their flattened adjoints, see _kraus_sum
    _dual: tuple = field(init=False, repr=False)
    _channel: tuple = field(init=False, repr=False)

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
        dual = (A, A.reshape(-1, n).conj().T)
        C = np.ascontiguousarray(A.conj().swapaxes(1, 2))
        channel = (C, C.reshape(-1, n).conj().T)
        eye = np.eye(n)
        dev = float(np.max(np.abs(dual[1] @ A.reshape(-1, n) - eye)))
        if dev > KRAUS_TOL:
            raise ValueError(
                f"sum V*V deviates from identity by {dev:.3e} (tolerance {KRAUS_TOL})"
            )
        unital = float(np.max(np.abs(channel[1] @ C.reshape(-1, n) - eye))) <= KRAUS_TOL
        object.__setattr__(self, "operators", A)
        object.__setattr__(self, "is_unital_channel", unital)
        object.__setattr__(self, "_dual", dual)
        object.__setattr__(self, "_channel", channel)

    @property
    def dimension(self) -> int:
        return int(self.operators.shape[1])

    @property
    def operator_count(self) -> int:
        return len(self.operators)

    @property
    def superoperator(self) -> np.ndarray:
        """Liouville matrix S = sum_i V_i (x) conj(V_i), built afresh on each
        access: with row-major vec, vec(channel(Z)) = S vec(Z) and
        vec(dual(X)) = S^* vec(X)."""
        m, n, _ = self.operators.shape
        A = self.operators.reshape(m, n * n)
        # (A^T conj(A))[(a, c), (b, d)] = sum_i V_i[a, c] conj(V_i[b, d])
        S = (A.T @ A.conj()).reshape(n, n, n, n)
        return S.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _kraus_iterator(maps) -> tuple[Iterator[KrausMap], KrausMap | None]:
    """Normalize a map argument to an iterator; second item is the constant
    map when the dynamics is time-invariant."""
    if isinstance(maps, KrausMap):
        return repeat(maps), maps
    if isinstance(maps, (list, tuple)):
        for k, phi in enumerate(maps):
            if not isinstance(phi, KrausMap):
                raise TypeError(f"element {k} is not a KrausMap")
        return iter(tuple(maps)), None
    if isinstance(maps, Iterable):
        return iter(maps), None
    raise TypeError(f"cannot interpret {type(maps).__name__} as Kraus map dynamics")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix with unit trace."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = HermitianMatrix(self.matrix).matrix
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace is {tr!r}, expected 1 within 1e-12")
        ev = np.linalg.eigvalsh(m)
        if ev[0] < -1e-12:
            raise ValueError(f"not positive semidefinite: lambda_min={ev[0]:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


def _as_density_array(Z) -> np.ndarray:
    if isinstance(Z, DensityMatrix):
        return Z.matrix
    return DensityMatrix(as_hermitian_array(Z)).matrix


def _check_dims(phi: KrausMap, X: np.ndarray) -> np.ndarray:
    if X.shape[0] != phi.dimension:
        raise ValueError(f"dimension mismatch: map is {phi.dimension}, state is {X.shape[0]}")
    return X


def _symmetrize(M: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of each matrix in a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2).conj())


def _kraus_sum(form: tuple, X: np.ndarray) -> np.ndarray:
    """sum_i A_i* X A_i as two products: `form` is the stack A, (m, n, n), and
    the adjoint of its (m n, n) flattening, whose columns run over the A_i*."""
    A, AH = form
    return AH @ (X @ A).reshape(AH.shape[1], -1)


def _apply_dual_raw(phi: KrausMap, X: np.ndarray) -> np.ndarray:
    return _symmetrize(_kraus_sum(phi._dual, X))


def _apply_channel_raw(psi: KrausMap, Z: np.ndarray) -> np.ndarray:
    return _symmetrize(_kraus_sum(psi._channel, Z))


def apply_dual(phi: KrausMap, X) -> np.ndarray:
    """Unital dual action sum_i V_i* X V_i, re-symmetrized.

    Fixes the identity, is linear, and maps the positive definite cone into
    itself; the non-commutative counterpart of a row-stochastic update.
    """
    Xm = as_hermitian_array(X)
    _check_dims(phi, Xm)
    return _apply_dual_raw(phi, Xm)


def apply_channel(psi: KrausMap, Z) -> np.ndarray:
    """Channel action sum_i V_i Z V_i*, trace-preserving and PSD-preserving."""
    Zm = as_hermitian_array(Z)
    _check_dims(psi, Zm)
    return _apply_channel_raw(psi, Zm)


def compose(outer: KrausMap, inner: KrausMap) -> KrausMap:
    """Kraus map of the composite with operators {O_i I_j}.

    As a channel the composite applies `inner` then `outer`; as a dual it
    applies outer's dual then inner's. For powers of a single map the two
    orderings coincide. Operator count multiplies, so deep compositions grow
    as m^k.
    """
    n = outer.dimension
    if n != inner.dimension:
        raise ValueError("cannot compose maps of different dimensions")
    return KrausMap((outer.operators[:, None] @ inner.operators[None]).reshape(-1, n, n))


def kraus_power(phi: KrausMap, k: int) -> KrausMap:
    if k < 1:
        raise ValueError("power must be >= 1")
    return reduce(compose, [phi] * k)


def _spectral_measure(limit, lyapunov: bool) -> Callable:
    """Trace columns of matrix states: the spectral interval, the Frobenius
    distance to `limit` when one is supplied and, when `lyapunov` is set, the
    Hilbert distance to the identity ray log(lambda_max / lambda_min) of the
    positive definite states. The run's level is the spectral width."""
    limit_m = None if limit is None else as_hermitian_array(limit)

    def measure(states: np.ndarray):
        ev = np.linalg.eigvalsh(states)
        lo, hi = ev[:, 0], ev[:, -1]
        lyap = None
        if lyapunov:
            pd = is_positive_definite(ev).tolist()
            # math.log, as np.log may differ from it in the last bit
            lyap = np.array(
                [math.log(b) - math.log(a) if p else math.nan for a, b, p in zip(lo, hi, pd)]
            )
        dist = None if limit_m is None else _frobenius(states - limit_m)
        return (lyap, lo, hi, dist, None), hi - lo

    return measure


def _frobenius(stack: np.ndarray) -> np.ndarray:
    # one norm per matrix: a batched norm differs from np.linalg.norm(M) in
    # the last bit
    return np.array([np.linalg.norm(M) for M in stack])


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
    it, _ = _kraus_iterator(maps)
    X = np.array(as_hermitian_array(X0))
    measure = _spectral_measure(limit, lyapunov=True)
    return iterate(
        it, X, lambda phi, X: _apply_dual_raw(phi, _check_dims(phi, X)), measure, stop
    )


def run_channel(maps, Z0, stop: StoppingRule | None = None, limit=None) -> SimulationTrace:
    """Iterate the density matrix Z(t+1) = channel(Z(t)).

    The channel side has no universal monotone spread (its limit need not be
    a multiple of the identity), so the run stops when successive states
    differ by less than tolerance in Frobenius norm. For a constant unital
    channel the Hilbert distance to the identity is recorded as the Lyapunov
    column; otherwise the column is left empty. Maps are applied in blocks,
    so a one-shot iterator of maps may be advanced past the stopping index.
    """
    it, constant = _kraus_iterator(maps)
    unital = constant is not None and constant.is_unital_channel
    Z = np.array(_as_density_array(Z0))
    measure = _spectral_measure(limit, lyapunov=unital)
    return iterate(
        it,
        Z,
        lambda psi, Z: _apply_channel_raw(psi, _check_dims(psi, Z)),
        measure,
        stop,
        move=lambda states: _frobenius(np.diff(states, axis=0)),
    )


@dataclass(frozen=True)
class SpectralNestingReport:
    """Margins of the spectral interval nesting under one dual application."""

    before: SpectralInterval
    after: SpectralInterval
    min_margin: float
    max_margin: float
    satisfied: bool


def check_spectral_nesting(phi: KrausMap, X, slack: float = 1e-10) -> SpectralNestingReport:
    """Verify that the dual map can only shrink the spectral interval:
    lambda_min may not decrease and lambda_max may not increase."""
    Xm = as_hermitian_array(X)
    _check_dims(phi, Xm)
    before = spectral_interval(Xm)
    after = spectral_interval(_apply_dual_raw(phi, Xm))
    min_margin = after.lambda_min - before.lambda_min
    max_margin = before.lambda_max - after.lambda_max
    return SpectralNestingReport(
        before, after, min_margin, max_margin, min_margin >= -slack and max_margin >= -slack
    )


@dataclass(frozen=True, eq=False)
class ImageRadiusEstimate:
    """Sampled lower bound on the image radius sup_X d(dual(X), I).

    The supremum is attained on rank-1 projectors, so the estimator sweeps
    those; `attained_at` is the maximizing projector (or the first witness
    mapped to a singular matrix when the radius is infinite).
    """

    radius: ExtendedNonnegReal
    attained_at: np.ndarray
    samples_drawn: int


def estimate_image_radius(
    phi: KrausMap,
    samples: int,
    seed: int = 0,
    include_basis_probes: bool = True,
    chunk: int = 4096,
) -> ImageRadiusEstimate:
    """Estimate the image radius of a (possibly composed) dual map by sampling
    rank-1 projectors.

    The standard basis projectors are probed first (deterministically), then
    `samples` Haar-uniform ones; degeneracies pinned to coordinate axes would
    otherwise be missed almost surely. Whenever an image is singular at the
    relative floor the radius is infinite and that projector is returned as
    the witness. Otherwise the result is a running maximum: a lower bound
    that converges to the true radius from below as samples grow.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = phi.dimension
    dual = phi.superoperator.conj()  # vec(X)^T conj(S) = (S^* vec(X))^T
    best_val = -math.inf
    best_proj: np.ndarray | None = None
    drawn = 0

    def process(batch: np.ndarray) -> np.ndarray | None:
        nonlocal best_val, best_proj, drawn
        images = _symmetrize((batch.reshape(-1, n * n) @ dual).reshape(batch.shape))
        ev = np.linalg.eigvalsh(images)
        singular = ~is_positive_definite(ev)
        if singular.any():
            k = int(np.argmax(singular))
            drawn += k + 1
            return np.array(batch[k])
        vals = np.log(ev[:, -1]) - np.log(ev[:, 0])
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_proj = np.array(batch[k])
        drawn += batch.shape[0]
        return None

    if include_basis_probes:
        basis = np.zeros((n, n, n), dtype=complex)
        for k in range(n):
            basis[k, k, k] = 1.0
        witness = process(basis)
        if witness is not None:
            return ImageRadiusEstimate(ExtendedNonnegReal.infinite(), witness, drawn)

    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        b = min(chunk, remaining)
        g = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        projectors = np.einsum("si,sj->sij", g, g.conj())
        witness = process(projectors)
        if witness is not None:
            return ImageRadiusEstimate(ExtendedNonnegReal.infinite(), witness, drawn)
        remaining -= b
    assert best_proj is not None
    return ImageRadiusEstimate(ExtendedNonnegReal(best_val), best_proj, drawn)


@dataclass(frozen=True)
class DiameterBracket:
    """Bracket [radius, 2 radius] for the projective diameter of a dual map.

    The lower end is a sampled lower bound only; the upper end feeds
    :func:`conesim.cones.contraction_ratio` for the certified factor.
    """

    lower: ExtendedNonnegReal
    upper: ExtendedNonnegReal

    @classmethod
    def from_radius(cls, radius: ExtendedNonnegReal) -> "DiameterBracket":
        return cls(radius, 2.0 * radius)

    @property
    def contraction_factor(self) -> float:
        return contraction_ratio(self.upper)


# --- fixed points ----------------------------------------------------------


class FixedPointError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    density: DensityMatrix
    residual: float
    unique: bool
    eigenvalue_one_multiplicity: int


def channel_fixed_point(
    psi: KrausMap,
    residual_tol: float = 1e-10,
    degeneracy_gap: float = 1e-8,
    max_fallback_iterations: int = 10_000,
) -> FixedPointResult:
    """Stationary density of a trace-preserving channel.

    The fixed point spans the null space of S - I, S the Liouville matrix of
    the channel (:attr:`KrausMap.superoperator`). Its dimension, reported as
    `eigenvalue_one_multiplicity`, is the number of singular values of S - I
    at most `degeneracy_gap`: the geometric multiplicity of eigenvalue 1.
    When it is at most 1, one linear solve gives the fixed point: trace
    preservation makes the rows of S - I at the diagonal positions sum to
    zero, so the first of them is replaced by the unit-trace condition
    tr(Z) = 1. The solution is re-Hermitized. When the multiplicity exceeds 1
    the fixed point is not unique; the routine then falls back to power
    iteration from I/n and flags non-uniqueness rather than fabricating a
    choice.

    Uniqueness is guaranteed only when some power of the dual map has finite
    projective diameter.

    Raises FixedPointError when no PSD trace-1 fixed point is found at
    `residual_tol`, which signals numerical breakdown for a valid map.
    """
    n = psi.dimension
    A = psi.superoperator
    A[np.diag_indices_from(A)] -= 1.0
    multiplicity = int(np.sum(np.linalg.svd(A, compute_uv=False) <= degeneracy_gap))

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


@dataclass(frozen=True)
class DualityReport:
    """Pairing check tr(Z(t) X0) == tr(Z0 X(t)) along channel/dual runs."""

    steps: int
    max_pairing_error: float
    pairing_ok: bool
    final_pairing_value: float
    limit_value: float | None = None
    limit_error: float | None = None


def duality_invariant_check(
    psi: KrausMap, Z0, X0, t_max: int, zbar=None, tol: float = 1e-10
) -> DualityReport:
    """Run the channel on Z and the dual on X for t <= t_max and compare the
    two expressions of the pairing at every step.

    When `zbar` (a fixed point) is given, also report how far the final
    pairing sits from its stationary value tr(zbar X0).
    """
    Z = np.array(_as_density_array(Z0))
    X = np.array(as_hermitian_array(X0))
    _check_dims(psi, Z)
    _check_dims(psi, X)
    X_fixed = X.copy()
    Z_fixed = Z.copy()
    max_err = 0.0
    pairing = float(np.trace(Z @ X_fixed).real)
    for t in range(t_max + 1):
        p_channel = complex(np.trace(Z @ X_fixed))
        p_dual = complex(np.trace(Z_fixed @ X))
        max_err = max(max_err, abs(p_channel - p_dual))
        pairing = p_channel.real
        if t < t_max:
            Z = _apply_channel_raw(psi, Z)
            X = _apply_dual_raw(psi, X)
    limit_value = None
    limit_error = None
    if zbar is not None:
        zbar_m = as_hermitian_array(zbar)
        limit_value = float(np.trace(zbar_m @ X_fixed).real)
        limit_error = abs(pairing - limit_value)
    return DualityReport(t_max, max_err, max_err <= tol, pairing, limit_value, limit_error)


# --- classical embedding ----------------------------------------------------


def build_classical_embedding(A) -> KrausMap:
    """Embed x -> A x as a Kraus dual map acting on diagonal matrices.

    The operators factor as V_i = S_i W_i: shift permutations
    S_i e_k = e_{(k+i) mod n} and diagonal weights
    (W_i)_kk = sqrt(a_{k,(k+i) mod n}). The squared weights resum the rows of
    A, so the Kraus condition is exactly row-stochasticity, and the dual map
    leaves diagonal matrices diagonal, acting on their diagonals as A does.
    """
    from .classical import as_stochastic_matrix

    a = as_stochastic_matrix(A).entries
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


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational multiple of pi")


def spin_rotation_special_cases(alpha_over_pi, beta_over_pi) -> tuple[str, ...]:
    """Detect the angle configurations for which the mixed-rotation map fails
    to contract toward I/2.

    Angles are taken as exact rational multiples of pi, because membership in
    these cases is not decidable from floating-point angles. Returns a tuple
    of labels; an empty tuple means the generic, contracting configuration.
    """
    a = _as_fraction(alpha_over_pi)
    b = _as_fraction(beta_over_pi)
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
    the strict interval contraction; on diagonal states they reduce to
    g^2 (r pm d).
    """
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
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    g = rng.standard_normal((m * n, n)) + 1j * rng.standard_normal((m * n, n))
    q, _ = np.linalg.qr(g)
    return KrausMap(q.reshape(m, n, n))
