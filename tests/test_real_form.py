"""The real Hermitian coordinates and the real form C against the complex kernels.

A `KrausMap` of dimension n <= `_LIOUVILLE_MAX_N` steps the real coordinates
of its states (`_to_coords` / `_from_coords`) by its real form C, the channel
in the orthonormal basis E_kk, (E_kl + E_lk)/sqrt(2), i(E_kl - E_lk)/sqrt(2):
the dual by C, the channel by C^T. `helpers.reference_liouville_step` is the
complex step it replaced (`tests/test_kraus_step.py` holds it to the stacked
step too); they sum in other orders, so the steps agree within
16 n eps max|X|.
`channel_fixed_point` takes its SVD and its solve on the real C - I;
`helpers.reference_liouville_fixed_point` took them on the complex S - I.
C itself is gathered from the images of the matrix units, bit for bit as
`helpers.reference_real_form` gathers it from the columns of the Liouville
matrix `helpers.superoperator`.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conesim import (
    FixedPointError,
    build_classical_embedding,
    channel_fixed_point,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    random_kraus_map,
    random_stochastic_matrix,
)
from conesim.channels import (
    _LIOUVILLE_MAX_N,
    DEGENERACY_GAP,
    _from_coords,
    _qubit_spectra,
    _state_space,
    _to_coords,
)
from conesim.hermitian import PD_FLOOR, is_positive_definite
from helpers import (
    random_hermitian,
    reference_apply_channel,
    reference_liouville_fixed_point,
    reference_liouville_step,
    reference_real_form,
    superoperator,
)

EPS = np.finfo(float).eps
ACTIONS = ["channel", "dual"]


def _coordinate_step(phi, X, action):
    """One step of a run at n <= 8: the coordinates of X times C or C^T."""
    _, dual_step, channel_step, _ = _state_space(phi.dimension)
    c = _to_coords(X)
    out = np.empty_like(c)
    (dual_step if action == "dual" else channel_step)(phi, c, out)
    return _from_coords(out)


@given(
    st.integers(1, _LIOUVILLE_MAX_N),
    st.integers(1, 6),
    st.sampled_from(ACTIONS),
    st.floats(-8.0, 8.0),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=200)
def test_coordinate_step_matches_the_complex_liouville_step(n, m, action, log10_scale, seed):
    rng = np.random.default_rng(seed)
    phi = random_kraus_map(n, m, rng)
    X = random_hermitian(rng, n, 10.0**log10_scale)
    new = _coordinate_step(phi, X, action)
    bound = 16 * n * EPS * np.abs(X).max()
    assert np.abs(new - reference_liouville_step(phi, X, action)).max() <= bound


def _basis(n):
    """The orthonormal Hermitian basis of the coordinates, in their order."""
    basis = [np.diag(np.eye(n)[k]).astype(complex) for k in range(n)]
    upper = list(zip(*np.triu_indices(n, 1)))
    for factor in (1.0, 1j):
        for k, l in upper:
            B = np.zeros((n, n), dtype=complex)
            B[k, l], B[l, k] = factor, np.conj(factor)
            basis.append(B / math.sqrt(2.0))
    return basis


@given(st.integers(1, _LIOUVILLE_MAX_N), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_real_form_is_the_channel_in_the_hermitian_basis(n, m, seed):
    # C[a, b] = tr(B_a channel(B_b)), each channel image a Kraus sum
    phi = random_kraus_map(n, m, np.random.default_rng(seed))
    basis = _basis(n)
    images = [reference_apply_channel(phi, B) for B in basis]
    ref = np.array([[np.trace(A @ image).real for image in images] for A in basis])
    assert np.abs(phi._real_form - ref).max() <= 4 * n * m * EPS


@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_real_form_is_gathered_bit_for_bit_as_from_the_liouville_matrix(n, m, seed):
    phi = random_kraus_map(n, m, np.random.default_rng(seed))
    assert np.array_equal(phi._real_form, reference_real_form(phi))


@given(
    st.integers(1, _LIOUVILLE_MAX_N),
    st.integers(0, 5),
    st.floats(-150.0, 150.0),  # squares stay finite in the norms
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=200)
def test_coordinates_round_trip(n, count, log10_scale, seed):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((count, n * n)) * 10.0**log10_scale
    M = _from_coords(coords)
    assert M.shape == (count, n, n) and M.dtype == complex
    # Hermitian bit for bit: a real diagonal, the lower triangle the
    # conjugate of the upper
    assert np.all(M.imag.diagonal(axis1=1, axis2=2) == 0.0)
    off = ~np.eye(n, dtype=bool)
    assert M[:, off].tobytes() == M.conj().swapaxes(1, 2)[:, off].tobytes()
    # a stack is rebuilt row by row, bit for bit
    for c, Mk in zip(coords, M):
        assert _from_coords(c).tobytes() == Mk.tobytes()
    back = _to_coords(M)
    assert back[:, :n].tobytes() == coords[:, :n].tobytes()
    assert np.all(np.abs(back - coords) <= 2 * EPS * np.abs(coords))
    # the Euclidean norm of the coordinates is the Frobenius norm
    norms = [np.linalg.norm(Mk) for Mk in M]
    np.testing.assert_allclose(np.linalg.norm(coords, axis=1), norms, rtol=4 * EPS, atol=0)


@given(st.integers(1, _LIOUVILLE_MAX_N), st.floats(-8.0, 8.0), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=100)
def test_matrices_round_trip_through_coordinates(n, log10_scale, seed):
    X = random_hermitian(np.random.default_rng(seed), n, 10.0**log10_scale)
    assert np.abs(_from_coords(_to_coords(X)) - X).max() <= 2 * EPS * np.abs(X).max()


@given(st.integers(1, _LIOUVILLE_MAX_N), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=100)
def test_the_transpose_is_the_adjoint_under_the_trace_pairing(n, m, seed):
    # tr(channel(Z) X) = tr(Z dual(X)): the channel from the Kraus sum, the
    # dual by C on the coordinates
    rng = np.random.default_rng(seed)
    psi = random_kraus_map(n, m, rng)
    Z, X = random_hermitian(rng, n), random_hermitian(rng, n)
    lhs = np.trace(reference_apply_channel(psi, Z) @ X).real
    rhs = np.trace(Z @ _coordinate_step(psi, X, "dual")).real
    scale = np.linalg.norm(Z) * np.linalg.norm(X)
    assert abs(lhs - rhs) <= 16 * n * n * EPS * scale
    # the pairing is the dot product of the coordinates
    assert abs(np.dot(_to_coords(Z), _to_coords(X)) - np.trace(Z @ X).real) <= 4 * n * EPS * scale


@given(
    st.floats(-8.0, 8.0),
    st.floats(-16.0, 0.0),
    st.sampled_from([1.0, -1.0]),
    st.integers(0, 2**32 - 1),
)
@example(0.0, -12.0, 1.0, 0)  # lambda_min near the PD floor
@settings(deadline=None, max_examples=300)
def test_qubit_spectra_from_coordinates_match_eigvalsh(log10_scale, log10_ratio, sign, seed):
    # a qubit run reads its spectra off the coordinates: the eigenvalues
    # scale * (sign * ratio, 1) in a random basis, so that the ratio sweeps
    # the states up to and past the PD floor
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    scale = 10.0**log10_scale
    X = (q * (scale * np.array([sign * 10.0**log10_ratio, 1.0]))) @ q.conj().T
    X = 0.5 * (X + X.conj().T)
    ref = np.linalg.eigvalsh(X)
    new = _qubit_spectra(_to_coords(X)[None])[0]
    assert new[0] <= new[1]
    bound = 8 * EPS * np.abs(ref).max()
    assert np.abs(new - ref).max() <= bound
    # the PD decision agrees away from its floor, and the Lyapunov value
    # log(lambda_max / lambda_min), by np.log, within the spectra's bound
    floor = PD_FLOOR * max(1.0, ref[1])
    if abs(ref[0] - floor) > 2 * bound:
        assert bool(is_positive_definite(new)) == bool(is_positive_definite(ref))
    if ref[0] > floor + 2 * bound:
        lyap = np.log(new[1]) - np.log(new[0])
        expected = math.log(ref[1]) - math.log(ref[0])
        assert abs(lyap - expected) <= 2 * bound * (1 / ref[0] + 1 / ref[1]) + 4 * EPS * abs(expected)


ANGLES = [0.0, 0.25, 0.5, 1.0, 1.5, 1 / 3]  # multiples of pi, special and not


@st.composite
def kraus_maps(draw):
    kind = draw(st.sampled_from(["random", "embedding", "emission", "spin"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_kraus_map(draw(st.integers(1, 12)), draw(st.integers(1, 4)), rng)
    if kind == "embedding":
        return build_classical_embedding(random_stochastic_matrix(draw(st.integers(1, 6)), rng))
    if kind == "emission":
        return make_spontaneous_emission_map(draw(st.floats(0.01, 0.99)))
    angle = st.sampled_from(ANGLES).map(lambda a: a * math.pi) | st.floats(-3.0, 3.0)
    return make_spin_rotation_map(draw(angle), draw(angle), draw(st.floats(0.01, 0.99)))


def _outcome(kernel, psi):
    try:
        return kernel(psi)
    except FixedPointError as exc:
        return exc


@given(kraus_maps())
@example(make_spin_rotation_map(0.0, 1e-8, 0.5))  # singular values at the gap
@example(make_spin_rotation_map(0.5 * math.pi, 0.5 * math.pi, 0.3))  # degenerate
@settings(deadline=None, max_examples=150)
def test_real_fixed_point_matches_the_complex_kernel(psi):
    n = psi.dimension
    new = _outcome(channel_fixed_point, psi)
    sv = np.linalg.svd(superoperator(psi) - np.eye(n * n), compute_uv=False)
    if np.any((sv >= DEGENERACY_GAP / 2) & (sv <= 2 * DEGENERACY_GAP)):
        # counted or not as rounding falls: hold the new kernel to its
        # definition, the singular values of C - I
        real_sv = np.linalg.svd(psi._real_form - np.eye(n * n), compute_uv=False)
        assert new.eigenvalue_one_multiplicity == int(np.sum(real_sv <= DEGENERACY_GAP))
        return
    ref = _outcome(reference_liouville_fixed_point, psi)
    assert type(new) is type(ref)
    if isinstance(ref, FixedPointError):
        return
    assert new.unique == ref.unique
    assert new.eigenvalue_one_multiplicity == ref.eigenvalue_one_multiplicity
    # a unique fixed point is determined to eps over the gap, the
    # second-smallest singular value of S - I
    bound = 1e-12
    if ref.unique and n > 1:
        bound = max(bound, EPS / sv[-2])
    assert np.abs(new.density - ref.density).max() <= bound
    M = new.density
    assert np.array_equal(M, M.conj().T)
