"""The Kraus step against the kernels it replaced.

A `KrausMap` holds its operators as one (m, n, n) array. Every action on a
Hermitian matrix, `apply_dual` / `apply_channel` and the steps of runs alike,
takes one form per size, set by `_state_space`: at n <= `_LIOUVILLE_MAX_N` the
real coordinates of the matrix are stepped by the map's real form C, above it
the matrix is stepped by two 2-d products on the operators side by side. So
`apply_dual` / `apply_channel` equal a run's one step bit for bit on both
sides of the rule. `helpers.reference_apply_dual` / `reference_apply_channel`
loop over the operators, and `helpers.reference_stacked_step` is the step on
the (m, n, n) stack that larger maps took before. They sum in different
orders, so they agree to rounding only: a step within 16 n eps max|X| (the
stack within 16 m n eps max|X|), a whole run with the same status and
iteration count and every trace value within 1e-13 of the state scale.
The reference Liouville matrix `helpers.superoperator`, read from the same
stack, is checked against its sum of Kronecker products, `kraus_power`
against `helpers.compose` folded k times, and the stacked Frobenius norm of
the channel run against `np.linalg.norm`, the last two bit for bit.
"""
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import (
    KrausMap,
    StoppingRule,
    apply_channel,
    apply_dual,
    build_classical_embedding,
    builtin_example,
    kraus_power,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    random_kraus_map,
    random_stochastic_matrix,
    run_channel,
    run_noncommutative_consensus,
)
from conesim.channels import (
    _LIOUVILLE_MAX_N,
    _frobenius,
    _from_coords,
    _state_space,
    _symmetrize,
    _to_coords,
)
from conesim.hermitian import as_hermitian_array
from conesim.scenario import MAX_POWER_ENTRIES
from helpers import (
    assert_same_run,
    compose,
    random_density,
    random_hermitian,
    reference_apply_channel,
    reference_apply_dual,
    reference_run_channel,
    reference_run_noncommutative_consensus,
    reference_stacked_step,
    reference_superoperator,
    superoperator,
)

EPS = np.finfo(float).eps
STEPS = {
    "dual": (apply_dual, reference_apply_dual),
    "channel": (apply_channel, reference_apply_channel),
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


@given(
    st.integers(1, _LIOUVILLE_MAX_N),
    st.integers(1, 6),
    st.sampled_from(sorted(STEPS)),
    st.floats(-8.0, 8.0),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=200)
def test_liouville_step_matches_the_stacked_step(n, m, action, log10_scale, seed):
    # the step of a run at n <= 8, on the real coordinates
    rng = np.random.default_rng(seed)
    phi = random_kraus_map(n, m, rng)
    X = random_hermitian(rng, n, 10.0**log10_scale)
    to_state, dual_step, channel_step, to_matrix = _state_space(n)
    step = dual_step if action == "dual" else channel_step
    new = to_matrix(step(phi, to_state(X), None))
    bound = 16 * n * EPS * np.abs(X).max()
    assert np.abs(new - reference_stacked_step(phi, X, action)).max() <= bound


@given(
    st.integers(_LIOUVILLE_MAX_N + 1, 33),
    st.integers(1, 6),
    st.sampled_from(sorted(STEPS)),
    st.floats(-8.0, 8.0),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=150)
def test_step_above_the_size_rule_matches_the_stacked_kernel(n, m, action, log10_scale, seed):
    # the step of a run at n > 8 sums the same m n^2 products per entry as the
    # kernel it replaced, over (row, operator) where that summed over
    # (operator, row). Each product is max|X| |A_i[a, c']| |A_i[b, c]| at most,
    # and the Kraus sum, sum_i |A_i e_c|^2 = 1, bounds their magnitudes by
    # n max|X|; in 1,500 random draws of these sizes the two orders differed
    # by at most 0.09 m n eps max|X|
    rng = np.random.default_rng(seed)
    phi = random_kraus_map(n, m, rng)
    X = random_hermitian(rng, n, 10.0**log10_scale)
    _, dual_step, channel_step, _ = _state_space(n)
    new = (dual_step if action == "dual" else channel_step)(phi, X, None)
    bound = 16 * m * n * EPS * np.abs(X).max()
    assert np.abs(new - reference_stacked_step(phi, X, action)).max() <= bound


@pytest.mark.parametrize("action", sorted(STEPS))
def test_the_size_rule_picks_the_step_form(action):
    rng = np.random.default_rng(4)
    at_rule, above = (random_kraus_map(n, 3, rng) for n in (_LIOUVILLE_MAX_N, _LIOUVILLE_MAX_N + 1))
    run = run_noncommutative_consensus if action == "dual" else run_channel
    one_step = StoppingRule(0.0, 1)
    # at the rule a run steps the real coordinates by the real form C (the
    # dual) or C^T (the channel): C real, read-only and built on first use
    assert "_real_form" not in vars(at_rule)
    X = as_hermitian_array(random_density(rng, at_rule.dimension))
    new = run(at_rule, X, one_step).final_state
    C = at_rule._real_form
    assert C.dtype == float and C.shape == (_LIOUVILLE_MAX_N**2,) * 2
    assert not C.flags.writeable and not C.T.flags.writeable
    expected = _from_coords(np.dot(_to_coords(X), C if action == "dual" else C.T))
    assert new.tobytes() == expected.tobytes()
    # above it two 2-d products on the operators side by side, Ah = (A_i)
    # as an (n, m n) array, A_i = V_i for the dual and V_i* for the channel,
    # bit for bit, and no real form
    m, n = above.operator_count, above.dimension
    A = above.operators if action == "dual" else above.operators.conj().swapaxes(1, 2)
    Ah = np.ascontiguousarray(A.transpose(1, 0, 2).reshape(n, m * n))
    AhrH = np.ascontiguousarray(Ah.reshape(n * m, n).conj().T)
    X = as_hermitian_array(random_density(rng, n))
    new = run(above, X, one_step).final_state
    assert new.tobytes() == _symmetrize(AhrH @ (X @ Ah).reshape(n * m, n)).tobytes()
    assert "_real_form" not in vars(above)
    # a single application is the one-step run on both sides of the rule
    for phi in (at_rule, above):
        X = as_hermitian_array(random_density(rng, phi.dimension))
        expected = run(phi, X, one_step).final_state
        assert STEPS[action][0](phi, X).tobytes() == expected.tobytes()


@given(st.integers(0, 6), st.integers(1, 32), st.floats(-8.0, 8.0), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=100)
def test_stacked_frobenius_norm_is_the_per_matrix_norm(count, n, log10_scale, seed):
    rng = np.random.default_rng(seed)
    shape = (count, n, n)
    stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0**log10_scale
    assert _frobenius(stack).tolist() == [np.linalg.norm(M) for M in stack]


@given(kraus_maps(max_n=8))
@settings(deadline=None, max_examples=60)
def test_superoperator_matches_the_kronecker_sum(phi):
    bound = 4 * phi.operator_count * EPS
    assert np.abs(superoperator(phi) - reference_superoperator(phi)).max() <= bound


@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_kraus_power_is_the_folded_composition_bit_for_bit(n, m, k, seed):
    phi = random_kraus_map(n, m, np.random.default_rng(seed))
    assert m**k * n * n <= MAX_POWER_ENTRIES  # every power here also parses
    power = kraus_power(phi, k)
    assert np.array_equal(power.operators, reduce(compose, [phi] * k).operators)
    assert power.operator_count == m**k


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
