"""The stacked Kraus step against the per-operator loops it replaced.

A `KrausMap` holds its operators as one (m, n, n) array, and
`_apply_dual_raw` / `_apply_channel_raw` apply it as two matrix products;
`helpers.reference_apply_dual` / `reference_apply_channel` loop over the
operators. The two sum in different orders, so they agree to rounding only: a
step within 16 n eps max|X|, a whole run with the same status and iteration
count and every trace value within 1e-13 of the state scale. `superoperator`,
read from the same stack, is checked against its sum of Kronecker products.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import (
    KrausMap,
    StoppingRule,
    build_classical_embedding,
    builtin_example,
    compose,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    random_kraus_map,
    random_stochastic_matrix,
    run_channel,
    run_noncommutative_consensus,
)
from conesim.channels import _apply_channel_raw, _apply_dual_raw
from helpers import (
    random_density,
    random_hermitian,
    reference_apply_channel,
    reference_apply_dual,
    reference_run_channel,
    reference_run_noncommutative_consensus,
    reference_superoperator,
)

EPS = np.finfo(float).eps
STEPS = {
    "dual": (_apply_dual_raw, reference_apply_dual),
    "channel": (_apply_channel_raw, reference_apply_channel),
}


@st.composite
def kraus_maps(draw, max_n=16):
    kind = draw(st.sampled_from(["random", "embedding", "emission", "spin"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_kraus_map(draw(st.integers(1, max_n)), draw(st.integers(1, 8)), rng)
    if kind == "embedding":
        # n operators of dimension n
        n = draw(st.integers(1, min(max_n, 8)))
        return build_classical_embedding(random_stochastic_matrix(n, rng))
    if kind == "emission":
        return make_spontaneous_emission_map(draw(st.floats(0.01, 0.99)))
    angle = st.floats(-3.0, 3.0)
    return make_spin_rotation_map(draw(angle), draw(angle), draw(st.floats(0.01, 0.99)))


@given(
    kraus_maps(),
    st.sampled_from(sorted(STEPS)),
    st.floats(-8.0, 8.0),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=300)
def test_step_matches_the_operator_loop(phi, action, log10_scale, seed):
    new, old = STEPS[action]
    X = random_hermitian(np.random.default_rng(seed), phi.dimension, 10.0**log10_scale)
    bound = 16 * phi.dimension * EPS * np.abs(X).max()
    assert np.abs(new(phi, X) - old(phi, X)).max() <= bound


@given(kraus_maps(max_n=8))
@settings(deadline=None, max_examples=60)
def test_superoperator_matches_the_kronecker_sum(phi):
    bound = 4 * phi.operator_count * EPS
    assert np.abs(phi.superoperator - reference_superoperator(phi)).max() <= bound


def test_operators_are_one_read_only_stack():
    ops = [np.eye(2) * math.sqrt(0.5), np.array([[0.0, 1.0], [1.0, 0.0]]) * math.sqrt(0.5)]
    phi = KrausMap(tuple(ops))
    assert phi.operators.shape == (2, 2, 2) and phi.operators.dtype == complex
    assert not phi.operators.flags.writeable
    ops[0][0, 0] = 5.0  # the map holds a copy
    assert phi.operators[0, 0, 0] == math.sqrt(0.5)
    a, b = random_kraus_map(2, 2, 1), random_kraus_map(2, 3, 2)
    expected = [O @ I for O in a.operators for I in b.operators]
    np.testing.assert_allclose(compose(a, b).operators, np.array(expected), rtol=0, atol=1e-15)


def assert_same_run(new, ref, scale):
    """Same status, iterations and trace, each value within 1e-13 of the state
    scale: rounding differences accumulate along the run. The Lyapunov value
    log(lambda_max / lambda_min) moves by d lambda / lambda for each endpoint."""
    assert new.status == ref.status
    assert new.iterations == ref.iterations
    assert len(new.records) == len(ref.records)
    tol = 1e-13 * scale
    for a, b in zip(new.records, ref.records):
        assert a.t == b.t
        assert abs(a.lambda_min - b.lambda_min) <= tol
        assert abs(a.lambda_max - b.lambda_max) <= tol
        assert (a.lyapunov is None) == (b.lyapunov is None)
        if b.lyapunov is not None:
            bound = tol * (1.0 / b.lambda_min + 1.0 / b.lambda_max)
            assert abs(a.lyapunov - b.lyapunov) <= bound
        assert (a.dist_to_limit is None) == (b.dist_to_limit is None)
        if b.dist_to_limit is not None:
            assert abs(a.dist_to_limit - b.dist_to_limit) <= tol
        assert a.projective_lyapunov is None and b.projective_lyapunov is None


def _scale(*matrices):
    return max([1.0] + [np.linalg.norm(M, 2) for M in matrices if M is not None])


def _reference_run(quantum_channel, maps, state, stop, limit):
    if quantum_channel:
        return reference_run_channel(maps, state, stop, limit, step=reference_apply_channel)
    return reference_run_noncommutative_consensus(
        maps, state, stop, limit, step=reference_apply_dual
    )


@pytest.mark.parametrize("name", ["example2", "example3"])
def test_example_runs_match_the_operator_loop(name):
    s = builtin_example(name)
    channel = s.kind == "quantum_channel"
    run = run_channel if channel else run_noncommutative_consensus
    args = (s.dynamics, s.initial_state, s.stop, s.expected_limit)
    assert_same_run(run(*args), _reference_run(channel, *args), _scale(args[1], args[3]))


def _lazy_map(n, rng):
    """(1 - eps) id + eps * a random map: slowly mixing, so runs are long."""
    eps = rng.uniform(0.05, 0.5)
    ops = random_kraus_map(n, int(rng.integers(1, 5)), rng).operators
    return KrausMap((math.sqrt(1.0 - eps) * np.eye(n),) + tuple(math.sqrt(eps) * ops))


@given(st.integers(1, 8), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_random_runs_match_the_operator_loop(n, channel, constant, seed):
    rng = np.random.default_rng(seed)
    if constant:
        maps = _lazy_map(n, rng)
    else:
        base = [_lazy_map(n, rng) for _ in range(3)]
        maps = [base[int(k)] for k in rng.integers(0, 3, 300)]
    if channel:
        state = random_density(rng, n)
    else:
        state = random_hermitian(rng, n) + rng.uniform(-1.0, 2.0) * np.eye(n)
    limit = random_hermitian(rng, n)
    stop = StoppingRule(1e-10, 300)
    run = run_channel if channel else run_noncommutative_consensus
    new = run(maps, state, stop, limit)
    ref = _reference_run(channel, maps, state, stop, limit)
    assert_same_run(new, ref, _scale(state, limit))
