"""The Liouville-matrix kernels against the kernels they replaced.

`channel_fixed_point` takes the eigenvalue-one multiplicity from the singular
values of C - I, C the real form of `KrausMap` (similar to S - I), and the
fixed point from one real linear solve;
`helpers.reference_channel_fixed_point` is the Hermitian-coordinate transfer
matrix with `eigvals` and inverse iteration. `estimate_image_radius` maps its
projectors' real coordinates by one product with C;
`helpers.reference_estimate_image_radius` maps them as a Kraus sum. Random
maps, classical embeddings and the built-in qubit maps at generic and special
angles must give the same outcome either way.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conesim import (
    FixedPointError,
    KrausMap,
    build_classical_embedding,
    channel_fixed_point,
    estimate_image_radius,
    kraus_power,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    random_kraus_map,
    random_stochastic_matrix,
)
from conesim.channels import DEGENERACY_GAP as GAP  # also the reference's default
from helpers import (
    reference_apply_dual_stack,
    reference_channel_fixed_point,
    reference_estimate_image_radius,
    reference_probes,
    superoperator,
)

ANGLES = [0.0, 0.25, 0.5, 1.0, 1.5, 1 / 3]  # multiples of pi, special and not
EPS = np.finfo(float).eps


@st.composite
def kraus_maps(draw):
    kind = draw(st.sampled_from(["random", "embedding", "emission", "spin"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_kraus_map(draw(st.integers(2, 6)), draw(st.integers(1, 4)), rng)
    if kind == "embedding":
        A = random_stochastic_matrix(draw(st.integers(2, 6)), rng)
        return build_classical_embedding(A)
    if kind == "emission":
        return make_spontaneous_emission_map(draw(st.floats(0.01, 0.99)))
    angle = st.sampled_from(ANGLES).map(lambda a: a * math.pi) | st.floats(-3.0, 3.0)
    return make_spin_rotation_map(draw(angle), draw(angle), draw(st.floats(0.01, 0.99)))


def _outcome(kernel, psi):
    try:
        return kernel(psi)
    except FixedPointError as exc:
        return exc


def assert_same_fixed_point(psi):
    new = _outcome(channel_fixed_point, psi)
    n = psi.dimension
    sv = np.linalg.svd(superoperator(psi) - np.eye(n * n), compute_uv=False)
    if np.any((sv >= GAP / 2) & (sv <= 2 * GAP)):
        # a singular value this close to the gap is counted or not as rounding
        # falls, in either kernel: hold the new one to its definition instead,
        # the singular values of the real form C - I, similar to S - I
        real_sv = np.linalg.svd(psi._real_form - np.eye(n * n), compute_uv=False)
        assert new.eigenvalue_one_multiplicity == int(np.sum(real_sv <= GAP))
        return
    ref = _outcome(reference_channel_fixed_point, psi)
    assert type(new) is type(ref)
    if isinstance(ref, FixedPointError):
        return
    assert new.unique == ref.unique
    assert new.eigenvalue_one_multiplicity == ref.eigenvalue_one_multiplicity
    # a non-unique fixed point comes from the same power iteration in both
    # kernels. A unique one is determined to eps / gap only, the gap being the
    # second-smallest singular value of S - I, above degeneracy_gap here: near
    # a special angle it falls below 1e-6 and both kernels are that far apart
    bound = 1e-12
    if ref.unique:
        bound = max(bound, EPS / sv[-2])
    assert np.abs(new.density - ref.density).max() <= bound


@given(kraus_maps())
@example(make_spin_rotation_map(0.0, 1e-8, 0.5))  # singular values of S - I at the gap
@settings(deadline=None, max_examples=150)
def test_fixed_points_match_the_transfer_matrix_reference(psi):
    assert_same_fixed_point(psi)


@pytest.mark.parametrize("beta", ANGLES)
@pytest.mark.parametrize("alpha", ANGLES)
def test_fixed_points_at_spin_angles_match_the_reference(alpha, beta):
    assert_same_fixed_point(make_spin_rotation_map(alpha * math.pi, beta * math.pi, 0.3))


def _reference_radii(phi, probes):
    ev = np.linalg.eigvalsh(reference_apply_dual_stack(phi, probes))
    return np.log(ev[:, -1]) - np.log(ev[:, 0])


@given(kraus_maps(), st.integers(1, 3), st.integers(0, 2**32 - 1))
# two basis probes tie to the last bit, 3.324476330513633 and 3.3244763305136327
@example(make_spin_rotation_map(math.pi / 3, math.pi / 4, 125 / 128), 3, 0)
@settings(deadline=None, max_examples=80)
def test_image_radius_matches_the_kraus_sum_reference(phi, power, seed):
    if phi.operator_count**power > 64:
        power = 1
    target = kraus_power(phi, power)
    new = estimate_image_radius(target, 200, seed)
    ref = reference_estimate_image_radius(target, 200, seed)
    assert math.isfinite(new.radius) == math.isfinite(ref.radius)
    assert new.samples_drawn == ref.samples_drawn
    if not math.isfinite(ref.radius):
        np.testing.assert_array_equal(new.attained_at, ref.attained_at)
        return
    # lambda_min of an image is known to eps * lambda_max, so the radius
    # R = log(lambda_max / lambda_min) to eps * exp(R)
    r = ref.radius
    tol = max(1e-10 * r, 16 * EPS * math.exp(r))
    assert abs(new.radius - r) <= tol
    # any maximiser is a witness, and probes within tol of the maximum are
    # told apart by rounding alone: the reference must rate the new witness
    # a maximiser, and it must be the reference's own when no probe ties
    witness = _reference_radii(target, new.attained_at[None])[0]
    assert abs(witness - r) <= tol
    probes = np.concatenate(reference_probes(target.dimension, 200, seed))
    if np.count_nonzero(_reference_radii(target, probes) >= r - tol) == 1:
        np.testing.assert_array_equal(new.attained_at, ref.attained_at)


@given(kraus_maps(), st.integers(2, 3), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_an_unchecked_power_has_the_checked_maps_radius_bit_for_bit(phi, power, seed):
    # kraus_power hands its products to the map it returns without a second
    # Kraus-sum check; for a valid map nothing else may change
    if phi.operator_count**power > 64:
        power = 2
    target = kraus_power(phi, power)
    checked = KrausMap(target.operators)
    np.testing.assert_array_equal(target.operators, checked.operators)
    assert target.is_unital_channel == checked.is_unital_channel
    new, ref = (estimate_image_radius(m, 50, seed) for m in (target, checked))
    assert new.radius == ref.radius and new.samples_drawn == ref.samples_drawn
    np.testing.assert_array_equal(new.attained_at, ref.attained_at)
