"""The Liouville-matrix kernels against the kernels they replaced.

`channel_fixed_point` takes the eigenvalue-one multiplicity from the singular
values of S - I and the fixed point from one linear solve;
`helpers.reference_channel_fixed_point` is the Hermitian-coordinate transfer
matrix with `eigvals` and inverse iteration. `estimate_image_radius` maps its
projectors by one product with conj(S); `helpers.reference_estimate_image_radius`
maps them as a Kraus sum. Random maps, classical embeddings and the built-in
qubit maps at generic and special angles must give the same outcome either way.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import (
    FixedPointError,
    build_classical_embedding,
    channel_fixed_point,
    estimate_image_radius,
    kraus_power,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    random_kraus_map,
    random_stochastic_matrix,
)
from helpers import reference_channel_fixed_point, reference_estimate_image_radius

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
        n = psi.dimension
        gap = np.linalg.svd(psi.superoperator - np.eye(n * n), compute_uv=False)[-2]
        bound = max(bound, EPS / gap)
    assert np.abs(new.density.matrix - ref.density.matrix).max() <= bound


@given(kraus_maps())
@settings(deadline=None, max_examples=150)
def test_fixed_points_match_the_transfer_matrix_reference(psi):
    assert_same_fixed_point(psi)


@pytest.mark.parametrize("beta", ANGLES)
@pytest.mark.parametrize("alpha", ANGLES)
def test_fixed_points_at_spin_angles_match_the_reference(alpha, beta):
    assert_same_fixed_point(make_spin_rotation_map(alpha * math.pi, beta * math.pi, 0.3))


@given(kraus_maps(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=80)
def test_image_radius_matches_the_kraus_sum_reference(phi, power, seed):
    if phi.operator_count**power > 64:
        power = 1
    target = kraus_power(phi, power)
    new = estimate_image_radius(target, 200, seed)
    ref = reference_estimate_image_radius(target, 200, seed)
    assert new.radius.is_finite == ref.radius.is_finite
    assert new.samples_drawn == ref.samples_drawn
    if ref.radius.is_finite:
        # lambda_min of an image is known to eps * lambda_max, so the radius
        # R = log(lambda_max / lambda_min) to eps * exp(R)
        r = ref.radius.value
        assert abs(new.radius.value - r) <= max(1e-10 * r, 16 * EPS * math.exp(r))
    np.testing.assert_array_equal(new.attained_at, ref.attained_at)
