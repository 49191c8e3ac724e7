"""The block driver against the per-step loop it replaced.

`conesim.trace.iterate` applies maps into blocks of states and measures a
whole block at once; `helpers.reference_iterate` is the per-step loop it
replaced. Each of the four runs must agree with its reference exactly: every
trace record (absent values included), the status, the iteration count and
the final state, bit for bit. Budgets and stopping steps are drawn around the
block edges. The full-size blocks of a run of one small map are filled by
doubling and round differently; those runs are held to the run bound here
and in `tests/test_doubling.py`.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conesim import (
    KrausMap,
    StoppingRule,
    TerminalStatus,
    birkhoff_lyapunov,
    make_spin_rotation_map,
    random_kraus_map,
    random_stochastic_matrix,
    run_channel,
    run_consensus,
    run_dual_consensus,
    run_noncommutative_consensus,
    tsitsiklis_lyapunov,
)
from conesim.hermitian import is_positive_definite
from conesim.trace import _BLOCK_BYTES, _FIRST_BLOCK, _MAX_BLOCK, _MIN_BLOCK, iterate
from helpers import (
    assert_same_run,
    random_density,
    random_hermitian,
    reference_levels,
    reference_run_channel,
    reference_run_consensus,
    reference_run_dual_consensus,
    reference_run_noncommutative_consensus,
)

MAX_STEPS = 130


def _block_edges(state, until=MAX_STEPS):
    """Steps that end a block, for a run from `state` with an ample budget."""
    cap = min(_MAX_BLOCK, max(_MIN_BLOCK, _BLOCK_BYTES // np.asarray(state).nbytes))
    edges, t, size = [], 0, _FIRST_BLOCK
    while t < until:
        t += size
        edges.append(t)
        size = min(2 * size, cap)
    return edges


# steps at which a budget ends or the run stops: the start, and each block
# edge with its neighbours
def _steps_around(edges, until):
    return sorted({0, 1, 2} | {e + d for e in edges for d in (-1, 0, 1) if e + d <= until})


# the small states drawn below never reach the block cap
STEPS = _steps_around(_block_edges(np.zeros(1)), MAX_STEPS)

# run, its per-step reference, and whether it stops on the move between states
RUNS = {
    "consensus": (run_consensus, reference_run_consensus, False),
    "dual_consensus": (run_dual_consensus, reference_run_dual_consensus, True),
    "noncommutative": (
        run_noncommutative_consensus,
        reference_run_noncommutative_consensus,
        False,
    ),
    "channel": (run_channel, reference_run_channel, True),
}


def assert_same(new, ref):
    assert repr(new.records) == repr(ref.records)
    assert new.status is ref.status
    assert new.iterations == ref.iterations
    assert new.final_state.dtype == ref.final_state.dtype
    assert new.final_state.shape == ref.final_state.shape
    assert new.final_state.tobytes() == ref.final_state.tobytes()


def _lazy_stochastic(n, rng):
    lazy = rng.uniform(0.3, 0.95)
    return lazy * np.eye(n) + (1.0 - lazy) * random_stochastic_matrix(
        n, rng, density=rng.choice([None, 0.5])
    )


def _unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _kraus(n, rng):
    if rng.uniform() < 0.5:
        # a mixture of unitaries: unital as a channel
        p = rng.dirichlet(np.ones(3))
        return KrausMap(tuple(math.sqrt(pk) * _unitary(n, rng) for pk in p))
    eps = rng.uniform(0.05, 0.6)
    ops = random_kraus_map(n, int(rng.integers(1, 4)), rng).operators
    return KrausMap((math.sqrt(1.0 - eps) * np.eye(n),) + tuple(math.sqrt(eps) * V for V in ops))


@st.composite
def scenarios(draw, quantum):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3)) if quantum else draw(st.integers(1, 4))
    make = _kraus if quantum else _lazy_stochastic
    form = draw(st.sampled_from(["constant", "finite", "generator"]))
    length = draw(st.one_of(st.sampled_from(STEPS[1:]), st.integers(1, MAX_STEPS)))
    if form == "constant":
        maps = make(n, rng)
    else:
        base = [make(n, rng) for _ in range(3)]
        maps = [base[int(k)] for k in rng.integers(0, 3, length)]
    density = None
    if quantum:
        state = random_hermitian(rng, n) + rng.uniform(-1.0, 2.0) * np.eye(n)
        density = random_density(rng, n)
        limit = random_hermitian(rng, n)
    else:
        state = rng.uniform(-1.0, 2.0, n)
        limit = rng.uniform(-1.0, 2.0, n)
    budget = draw(st.one_of(st.sampled_from(STEPS[1:]), st.integers(1, MAX_STEPS)))
    return {
        "maps": maps,
        "generator": form == "generator",
        "state": state,
        "density": density,
        "limit": limit if draw(st.booleans()) else None,
        "budget": budget,
        "tolerance": draw(st.sampled_from(["zero", "at_step", "fixed"])),
        "stop_step": draw(st.sampled_from(STEPS)),
    }


def _fresh(maps, generator):
    return (m for m in maps) if generator else maps


def _tolerance(case, state, ref_run, moves, channel):
    """Just above the level (or move) of the drawn step, so that the run stops
    there unless an earlier state is already below it. The result needs no
    precision: the check compares both drivers under the same tolerance."""
    if case["tolerance"] == "zero":
        return 0.0
    if case["tolerance"] == "fixed":
        return 1e-3
    step = max(case["stop_step"], 1 if moves else 0)

    def until(t):
        return ref_run(_fresh(case["maps"], case["generator"]), state, StoppingRule(0.0, t))

    if not moves:
        records = until(max(step, 1)).records
        if len(records) <= step:
            return 0.0
        level = records[step].lambda_max - records[step].lambda_min
    else:
        new = until(step)
        old = until(step - 1).final_state if step > 1 else state
        if new.iterations != step:
            return 0.0
        diff = new.final_state - old
        level = np.linalg.norm(diff) if channel else np.max(np.abs(diff))
    return float(np.nextafter(level, np.inf))


def _clear_tolerance(name, case, state, scale):
    """For a run of one map, which may double: the drawn tolerance, or one
    between the levels of the drawn step and the one before, clear of every
    level of the run by far more than the run bound, so that the rounding of
    the powers cannot move the stopping step."""
    if case["tolerance"] == "zero":
        return 0.0
    levels = np.array(reference_levels(name, case["maps"], state, case["budget"]))
    tolerance = 1e-3
    if case["tolerance"] == "at_step":
        k = min(max(case["stop_step"], 1), case["budget"])
        assume(np.isfinite(levels[k - 1]) and levels[k] > 0.0)
        tolerance = math.sqrt(levels[k - 1] * levels[k])
    assume(np.all(np.abs(levels - tolerance) > 1e-9 * tolerance + 1e-11 * scale))
    return tolerance


def _check(name, case):
    run, ref_run, moves = RUNS[name]
    channel = name == "channel"
    state = case["density"] if channel else case["state"]
    one_map = not isinstance(case["maps"], list)
    scale = max([1.0] + [np.linalg.norm(a, 2) for a in (state, case["limit"]) if a is not None])
    if one_map:
        tolerance = _clear_tolerance(name, case, state, scale)
    else:
        tolerance = _tolerance(case, state, ref_run, moves, channel)
    stop = StoppingRule(tolerance, case["budget"])
    new = run(_fresh(case["maps"], case["generator"]), state, stop, case["limit"])
    ref = ref_run(_fresh(case["maps"], case["generator"]), state, stop, case["limit"])
    if one_map:
        assert_same_run(new, ref, scale)
    else:
        assert_same(new, ref)


@pytest.mark.parametrize("name", ["consensus", "dual_consensus"])
@given(case=scenarios(quantum=False))
@settings(deadline=None, max_examples=100)
def test_classical_runs_match_the_per_step_reference(name, case):
    _check(name, case)


@pytest.mark.parametrize("name", ["noncommutative", "channel"])
@given(case=scenarios(quantum=True))
@settings(deadline=None, max_examples=60)
def test_quantum_runs_match_the_per_step_reference(name, case):
    _check(name, case)


@st.composite
def copying_runs(draw):
    """A state of positive entries from subnormal to 1e308 (one entry
    possibly 0), and maps whose rows are unit vectors: each map permutes the
    entries or copies one over another, so every state is exact and its
    extremes change along the run."""
    n = draw(st.integers(1, 128))
    x0 = np.array(draw(st.lists(st.floats(5e-324, 1e308), min_size=n, max_size=n)))
    if draw(st.booleans()):
        x0[draw(st.integers(0, n - 1))] = 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = []
    for _ in range(draw(st.integers(1, MAX_STEPS))):
        rows = rng.permutation(n)
        if rng.uniform() < 0.5:
            rows[rng.integers(n)] = rng.integers(n)
        maps.append(np.eye(n)[rows])
    return maps, x0


@given(run=copying_runs())
@settings(deadline=None, max_examples=60)
def test_projective_column_is_the_log_spread_of_each_whole_state(run):
    # the measure reads both Lyapunov columns off each state's (min, max);
    # the reference takes birkhoff_lyapunov of every whole positive state
    maps, x0 = run
    stop = StoppingRule(0.0, len(maps))
    new = run_consensus(maps, x0, stop)
    ref = reference_run_consensus(maps, x0, stop)
    assert new.projective_lyapunov.tobytes() == ref.projective_lyapunov.tobytes()
    assert_same(new, ref)


def _depolarizing(n):
    """Kraus operators E_ij / sqrt(n): the dual sends X to tr(X) I / n, the
    channel every density to I / n."""
    ops = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0 / math.sqrt(n)
            ops.append(E)
    return KrausMap(tuple(ops))


@pytest.mark.parametrize("name", list(RUNS))
def test_wrong_dimension_map_after_convergence_is_never_reached(name):
    run, ref_run, moves = RUNS[name]
    if name in ("noncommutative", "channel"):
        mix = _depolarizing(2)
        wrong = KrausMap(tuple(np.kron(V, np.eye(2)) for V in mix.operators))
        state = np.diag([0.8, 0.2]).astype(complex)
    else:
        # every row the average: the primal run reaches consensus in one step
        mix = np.full((2, 2), 0.5)
        wrong = np.kron(mix, np.eye(2))
        state = np.array([0.8, 0.2])
    # runs that stop on the spread converge after one step, those that stop
    # on the move between states after two
    maps = [mix, mix, wrong] + [mix] * 10
    stop = StoppingRule(1e-10, 50)
    trace = run(maps, state, stop)
    assert trace.status is TerminalStatus.CONVERGED
    assert trace.iterations == (2 if moves else 1)
    assert_same(trace, ref_run(maps, state, stop))


def test_non_finite_dual_states_raise():
    # the columns of [[1, 0], [1, 0]] sum to 2 and 0: the dual overflows to
    # inf, then 0 * inf gives NaN
    big = np.finfo(float).max
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="state entries must be finite"):
            run_dual_consensus(A, [big, big], StoppingRule(1e-10, 12), limit=[1.0, 1.0])


def _assert_overflow_raises(phi, X0):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="state entries must be finite"):
            run_noncommutative_consensus(phi, X0, StoppingRule(1e-10, 12))


def test_overflowing_matrix_states_raise():
    # eigvalsh of a state with a NaN entry returns finite values, so only the
    # driver sees it. A dual step cannot grow a state's spectrum, and the real
    # coordinate step of n <= 8 stays finite from a finite state: here the
    # off-diagonal entries of 0.9 max overflow in their coordinates,
    # sqrt(2) * 0.9 max, before the first step
    X0 = np.full((2, 2), 0.9 * np.finfo(float).max, dtype=complex)
    _assert_overflow_raises(make_spin_rotation_map(0.7, 1.1, 0.3), X0)


def test_overflowing_stacked_steps_raise():
    # above the size rule the state is finite and the stacked products of the
    # first step overflow: the first column of the unitary 9 x 9 DFT sums to
    # 3, so the first column of X V is 2.7 max
    dft = np.fft.fft(np.eye(9)) / 3.0
    X0 = np.full((9, 9), 0.9 * np.finfo(float).max, dtype=complex)
    _assert_overflow_raises(KrausMap(dft[None]), X0)


@pytest.mark.parametrize("n", [8, 9])
def test_a_wide_state_keeps_its_finite_hermitian_part(n):
    # the identity dual on either side of the size rule: each step's
    # Hermitian part is halved before it is summed, so entries of +-1e308
    # stay finite, and the unchanged state runs out of its budget
    X0 = np.zeros((n, n), dtype=complex)
    X0[0, 0], X0[1, 1] = 1e308, -1e308
    trace = run_noncommutative_consensus(KrausMap(np.eye(n)[None]), X0, StoppingRule(1e-10, 5))
    assert trace.status is TerminalStatus.MAX_ITERATIONS
    assert trace.iterations == 5
    assert np.array_equal(trace.final_state, X0)


def _scale(m, x, out):
    np.multiply(x, m, out=out)


def _measure(states):
    # lambda_min 0 and lambda_max |x|: the run's level is |x|
    if np.isnan(states).any():
        raise ValueError("entries must be finite")
    level = np.abs(states).max(axis=1)
    return level, np.zeros_like(level), level, None, None


def _maps(bad):
    # levels 1, 0.5, 0.25, then a map whose pull or step raises, or whose
    # state is NaN (the measure raises) or inf (the driver raises)
    yield 0.5
    yield 0.5
    if bad == "pull":
        raise RuntimeError("sequence failed")
    yield bad
    yield 1.0


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, "not a map", "pull"],
    ids=["measure", "non_finite", "apply", "pull"],
)
def test_error_past_the_stopping_index_never_surfaces(bad):
    trace = iterate(_maps(bad), np.array([1.0]), _scale, _measure, StoppingRule(0.3, 10))
    assert trace.status is TerminalStatus.CONVERGED
    assert trace.iterations == 2
    assert [r.lyapunov for r in trace.records] == [1.0, 0.5, 0.25]
    with pytest.raises((ValueError, TypeError, RuntimeError)):
        iterate(_maps(bad), np.array([1.0]), _scale, _measure, StoppingRule(0.1, 10))


# the block cap a run reaches: 256 states, 64 KB of states, or the floor of
# 16 states, which holds the 9,216-byte states of a quantum n = 24 run (7 by
# bytes alone)
CAPS = [(name, cap) for name in RUNS for cap in ("state_cap", "byte_cap")]
CAPS += [("noncommutative", "block_floor"), ("channel", "block_floor")]


@pytest.mark.parametrize("name, cap", CAPS)
def test_runs_past_the_block_cap_match_the_per_step_reference(name, cap):
    # long enough, or with states large enough, that the blocks stop doubling.
    # The large states are above the doubling rules (a matrix above the size
    # rule, a vector above _DOUBLING_MAX_DIM) and match bit for bit; the small
    # ones fill their full-size blocks by doubling, so they match within the
    # run bound, their budgets cutting blocks short around the block edges
    # (tests/test_doubling.py stops them at tolerances too)
    run, ref_run, moves = RUNS[name]
    rng = np.random.default_rng(5)
    quantum = name in ("noncommutative", "channel")
    large = cap != "state_cap"
    n = {"state_cap": 2, "byte_cap": 12 if quantum else 256, "block_floor": 24}[cap]
    until = 150 if large else 800
    maps = _kraus(n, rng) if quantum else _lazy_stochastic(n, rng)
    state = random_density(rng, n) if quantum else rng.uniform(0.5, 2.0, n)
    edges = _block_edges(state, until)
    assert len(set(np.diff(edges))) < len(edges) - 1  # some blocks are capped
    if cap == "block_floor":
        assert _BLOCK_BYTES // state.nbytes < max(np.diff(edges)) == _MIN_BLOCK
    for step in _steps_around(edges[-3:], until):
        budget = StoppingRule(0.0, max(step, 1))
        if not large:
            assert_same_run(run(maps, state, budget), ref_run(maps, state, budget), 2.0)
            continue
        case = {"maps": maps, "generator": False, "tolerance": "at_step", "stop_step": step}
        at_step = StoppingRule(_tolerance(case, state, ref_run, moves, name == "channel"), until)
        for stop in (at_step, budget):
            assert_same(run(maps, state, stop), ref_run(maps, state, stop))


# stop steps of runs of 1-float states, and of 9,216-byte states (as of a
# quantum n = 24 run), whose blocks, 8 and then 16 states, are held at the
# floor where the byte cap alone would allow 7
PULLS = [pytest.param(step, 1, id=str(step)) for step in (0, 3, 10, 40, 700, 1000)]
PULLS += [pytest.param(step, 1152, id=f"floor-{step}") for step in (20, 40, 41, 100)]


@pytest.mark.parametrize("stop_step, size", PULLS)
def test_a_generator_is_advanced_to_the_end_of_the_stopping_block(stop_step, size):
    pulled = []

    def halves():
        while True:
            pulled.append(0.5)
            yield 0.5

    # levels 1, 0.5, 0.25, ...: the first below tolerance is at stop_step
    stop = StoppingRule(0.5 ** (stop_step - 0.5), 2000)
    trace = iterate(halves(), np.ones(size), _scale, _measure, stop)
    assert trace.iterations == stop_step
    assert [r.lyapunov for r in trace.records] == [0.5**k for k in range(stop_step + 1)]
    edges = [0] + _block_edges(np.ones(size), until=stop_step)
    assert len(pulled) == next(e for e in edges if e >= stop_step)


def test_stacked_helpers_agree_with_their_one_state_forms():
    rng = np.random.default_rng(3)
    states = rng.uniform(0.1, 3.0, (6, 4))
    assert tsitsiklis_lyapunov(states).tolist() == [tsitsiklis_lyapunov(x) for x in states]
    assert birkhoff_lyapunov(states).tolist() == [birkhoff_lyapunov(x) for x in states]
    spectra = np.sort(rng.uniform(-1.0, 2.0, (6, 3)), axis=1)
    assert is_positive_definite(spectra).tolist() == [bool(is_positive_definite(e)) for e in spectra]
    with pytest.raises(ValueError, match="strictly positive"):
        birkhoff_lyapunov(np.vstack([states, -states[:1]]))
    with pytest.raises(ValueError, match="finite"):
        tsitsiklis_lyapunov(np.vstack([states, [[np.inf] * 4]]))
