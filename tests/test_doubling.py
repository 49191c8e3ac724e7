"""Runs of one map, whose blocks may be filled by doubling, against the
per-step reference.

`conesim.trace.iterate` fills a block of a run of one map from its first
state by doubling, rows [f, 2f) being rows [0, f) times M^f, when the run's
row form M has at most `_DOUBLING_MAX_DIM` rows: A^T for `run_consensus`, A
for `run_dual_consensus`, C for the Kraus dual and C^T for the channel at
n <= 8. Such a run's blocks grow to `_MAX_BLOCK` states whatever their
bytes. Its squares are built at the first block where their cost, by
`_SQUARE_STEPS`, is below the steps the run is expected to take, and from
then on every block doubles, a block cut short by the budget too; a budget
too short to pay for them leaves every block stepped, bit for bit, as it
leaves sequences and maps above the size rules (`tests/test_block_driver.py`).
The powers round differently from the steps, so a doubled run matches
`helpers`' per-step reference within the run bound of
`helpers.assert_same_run`, with the same status and iteration count wherever
the stopping level is clear of the tolerance. The pairings a run conserves
drift no more than the per-step reference's over runs as long as the longest
benchmark runs and longer.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conesim.trace
from conesim import (
    KrausMap,
    StoppingRule,
    random_kraus_map,
    random_stochastic_matrix,
    run_channel,
    run_consensus,
    run_dual_consensus,
    run_noncommutative_consensus,
)
from conesim.channels import _LIOUVILLE_MAX_N
from conesim.trace import (
    _BLOCK_BYTES,
    _DOUBLING_MAX_DIM,
    _FIRST_BLOCK,
    _MAX_BLOCK,
    _MIN_BLOCK,
    _SQUARE_STEPS,
)
from helpers import (
    assert_same_run,
    mixing_cycle,
    random_density,
    random_hermitian,
    reference_levels,
    reference_run_channel,
    reference_run_consensus,
    reference_run_dual_consensus,
    reference_run_noncommutative_consensus,
)

EPS = np.finfo(float).eps

# run, its per-step reference, and whether it is a matrix run
RUNS = {
    "consensus": (run_consensus, reference_run_consensus, False),
    "dual_consensus": (run_dual_consensus, reference_run_dual_consensus, False),
    "noncommutative": (
        run_noncommutative_consensus,
        reference_run_noncommutative_consensus,
        True,
    ),
    "channel": (run_channel, reference_run_channel, True),
}


def _block_edges(state_bytes, until):
    """Steps that end a block, and the block cap, for a stepped run whose
    state takes `state_bytes` bytes, or for a doubled run (None), whose
    blocks take _MAX_BLOCK states whatever their bytes."""
    if state_bytes is None:
        cap = _MAX_BLOCK
    else:
        cap = min(_MAX_BLOCK, max(_MIN_BLOCK, _BLOCK_BYTES // state_bytes))
    edges, t, size = [], 0, _FIRST_BLOCK
    while t < until:
        t += size
        edges.append(t)
        size = min(2 * size, cap)
    return edges, cap


def _first_full_block(state_bytes=None):
    """The step at which a run's first full-size block starts, and its size."""
    edges, cap = _block_edges(state_bytes, 10**6)
    return next(e for e, f in zip([0] + edges, edges) if f - e == cap), cap


def _lazy_stochastic(n, rng):
    lazy = rng.uniform(0.3, 0.95)
    density = rng.choice([None, 0.5])
    return lazy * np.eye(n) + (1.0 - lazy) * random_stochastic_matrix(n, rng, density)


def _lazy_kraus(n, rng):
    """(1 - eps) id + eps * a random map: slowly mixing, so runs are long."""
    eps = rng.uniform(0.02, 0.5)
    ops = random_kraus_map(n, int(rng.integers(1, 4)), rng).operators
    return KrausMap((math.sqrt(1.0 - eps) * np.eye(n),) + tuple(math.sqrt(eps) * ops))


@st.composite
def doubled_runs(draw):
    name = draw(st.sampled_from(sorted(RUNS)))
    matrices = RUNS[name][2]
    n = draw(st.integers(1, _LIOUVILLE_MAX_N if matrices else _DOUBLING_MAX_DIM))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start, cap = _first_full_block()
    # budgets at the edges of the full blocks, that cut a full block short,
    # and that stop before the first
    edges = [start + k * cap for k in range(4)]
    budget = draw(
        st.sampled_from(sorted({max(1, e + d) for e in edges for d in (-1, 0, 1)}))
        | st.integers(start + cap, start + 3 * cap)
        | st.integers(1, start + cap)
    )
    if matrices:
        maps = _lazy_kraus(n, rng)
        if name == "channel":
            state = random_density(rng, n)
        else:
            state = random_hermitian(rng, n) + rng.uniform(-1.0, 2.0) * np.eye(n)
        limit = random_hermitian(rng, n)
    else:
        maps = _lazy_stochastic(n, rng)
        state = rng.uniform(-1.0, 2.0, n)
        limit = rng.uniform(-1.0, 2.0, n)
    return {
        "name": name,
        "maps": maps,
        "state": state,
        "limit": limit if draw(st.booleans()) else None,
        "budget": budget,
        # a tolerance stop, mostly inside a full block
        "stop_at": draw(
            st.none() | st.integers(min(start + cap, budget), budget) | st.integers(1, budget)
        ),
    }


def _scale(*arrays):
    return max([1.0] + [np.linalg.norm(a, 2) for a in arrays if a is not None])


@given(doubled_runs())
@settings(deadline=None, max_examples=120)
def test_doubled_runs_match_the_per_step_reference(case):
    name, maps, state = case["name"], case["maps"], case["state"]
    run, ref_run, _ = RUNS[name]
    scale = _scale(state, case["limit"])
    tolerance = 0.0
    if case["stop_at"] is not None:
        # between the levels of the drawn step and the one before it, and
        # clear of every level of the run by far more than the run bound
        levels = np.array(reference_levels(name, maps, state, case["budget"]))
        k = case["stop_at"]
        assume(np.isfinite(levels[k - 1]) and levels[k] > 0.0)
        tolerance = math.sqrt(levels[k - 1] * levels[k])
        assume(np.all(np.abs(levels - tolerance) > 1e-9 * tolerance + 1e-11 * scale))
    stop = StoppingRule(tolerance, case["budget"])
    new = run(maps, state, stop, case["limit"])
    ref = ref_run(maps, state, stop, case["limit"])
    assert_same_run(new, ref, scale)


class _Counted:
    """`_double`, recording the number of states of each block it fills."""

    def __init__(self, double):
        self.double, self.sizes = double, []

    @property
    def calls(self):
        return len(self.sizes)

    def __call__(self, states, powers):
        self.sizes.append(len(states) - 1)
        return self.double(states, powers)


@pytest.fixture
def doubling(monkeypatch):
    counted = _Counted(conesim.trace._double)
    monkeypatch.setattr(conesim.trace, "_double", counted)
    return counted


# every run at n = 2, and vector runs at the largest row form that doubles
ONE_MAP_RUNS = [pytest.param(name, 2, id=name) for name in sorted(RUNS)]
ONE_MAP_RUNS += [
    pytest.param(name, _DOUBLING_MAX_DIM, id=f"{name}-{_DOUBLING_MAX_DIM}")
    for name in ("consensus", "dual_consensus")
]


@pytest.mark.parametrize("name, n", ONE_MAP_RUNS)
def test_blocks_double_where_the_squares_pay(name, n, doubling):
    run, ref_run, matrices = RUNS[name]
    rng = np.random.default_rng(11)
    maps = _lazy_kraus(n, rng) if matrices else _lazy_stochastic(n, rng)
    state = random_density(rng, n) if matrices else rng.uniform(0.5, 2.0, n)
    rows = n * n if matrices else n
    fixed_cost, per_square = next(c for most, *c in _SQUARE_STEPS if rows <= most)
    # a budget that pays for all seven squares from the first block: every
    # block doubles, the last one, cut short by the budget, too
    budget = 2 * (fixed_cost + 7 * per_square) + 300
    edges, _ = _block_edges(None, budget)
    assert edges[-1] > budget
    stop = StoppingRule(0.0, budget)
    trace = run(maps, state, stop)
    assert doubling.sizes == list(np.diff([0] + edges[:-1] + [budget]))
    assert_same_run(trace, ref_run(maps, state, stop), _scale(state))
    # a budget that pays for none of the squares its blocks need: every
    # block steps, bit for bit
    doubling.sizes.clear()
    for budget in (1, _FIRST_BLOCK, fixed_cost + per_square):
        stop = StoppingRule(0.0, budget)
        trace = run(maps, state, stop)
        assert doubling.calls == 0
        ref = ref_run(maps, state, stop)
        assert repr(trace.records) == repr(ref.records)
        assert trace.final_state.tobytes() == ref.final_state.tobytes()
    # a tolerance stop soon after the first block, with an ample budget: the
    # level's decay says the run ends before the squares would pay
    levels = reference_levels(name, maps, state, 20)
    tolerance = math.sqrt(levels[19] * levels[20])
    stop = StoppingRule(tolerance, 10**6)
    trace = run(maps, state, stop)
    assert doubling.calls == 0
    assert trace.iterations <= 20
    assert repr(trace.records) == repr(ref_run(maps, state, stop).records)
    # a sequence of the same map steps one map at a time
    run([maps] * 600, state, StoppingRule(0.0, 600))
    assert doubling.calls == 0


@pytest.mark.parametrize("name", sorted(RUNS))
def test_maps_above_the_size_rules_step_one_at_a_time(name, doubling):
    run, ref_run, matrices = RUNS[name]
    rng = np.random.default_rng(12)
    # the stacked step above n = 8, a vector above _DOUBLING_MAX_DIM
    n = _LIOUVILLE_MAX_N + 1 if matrices else _DOUBLING_MAX_DIM + 1
    maps = _lazy_kraus(n, rng) if matrices else _lazy_stochastic(n, rng)
    state = random_density(rng, n) if matrices else rng.uniform(0.5, 2.0, n)
    start, cap = _first_full_block(16 * n * n if matrices else 8 * n)
    stop = StoppingRule(0.0, start + 2 * cap)
    trace = run(maps, state, stop)
    assert doubling.calls == 0
    ref = ref_run(maps, state, stop)
    assert repr(trace.records) == repr(ref.records)
    assert trace.final_state.tobytes() == ref.final_state.tobytes()


# --- drift of the conserved pairings -----------------------------------------


def _unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _mixing_kraus(n, steps, rng, unital):
    """(1 - eps) id + eps * a random map, mixing over about `steps` steps;
    unital as a channel when it mixes unitaries, so that its fixed point is
    the identity."""
    eps = min(1.0, 13.8 / steps / 0.4)
    if unital:
        ops = [math.sqrt(p) * _unitary(n, rng) for p in rng.dirichlet(np.ones(3))]
    else:
        ops = list(random_kraus_map(n, 3, rng).operators)
    return KrausMap((math.sqrt(1.0 - eps) * np.eye(n),) + tuple(math.sqrt(eps) * V for V in ops))


def _pairing_drift(name, maps, state, steps, doubled, monkeypatch):
    """The relative drift of the pairing the run conserves after `steps`
    steps: sum(z) for the classical dual, tr Z for the channel and, for a
    unital map, whose channel fixes the identity, tr X for the dual."""
    monkeypatch.setattr(conesim.trace, "_DOUBLING_MAX_DIM", _DOUBLING_MAX_DIM if doubled else 0)
    final = RUNS[name][0](maps, state, StoppingRule(0.0, steps)).final_state
    pairing = (lambda v: v.sum()) if name == "dual_consensus" else (lambda M: np.trace(M).real)
    return abs(pairing(final) - pairing(np.asarray(state))) / abs(pairing(np.asarray(state)))


# the longest benchmark runs take 3,500 steps
@pytest.mark.parametrize("steps", [3500, 10_000])
@pytest.mark.parametrize("name", ["dual_consensus", "channel", "noncommutative"])
def test_conserved_pairings_drift_no_more_than_per_step(name, steps, monkeypatch):
    # both paths drift by the map's own defect, M w - w for the pairing's w,
    # and by the rounding of their products, which walks like sqrt(T) eps:
    # run by run the doubled drift stays within such a walk of the per-step
    # one, and all of it is a few eps per hundred steps
    doubled, per_step = [], []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for n in (8, 32, _DOUBLING_MAX_DIM) if name == "dual_consensus" else (2, 4, 8):
            if name == "dual_consensus":
                maps, state = mixing_cycle(n, steps, rng), rng.uniform(0.5, 2.0, n)
            elif name == "channel":
                maps, state = _mixing_kraus(n, steps, rng, False), random_density(rng, n)
            else:
                maps = _mixing_kraus(n, steps, rng, True)
                state = random_hermitian(rng, n) + 3.0 * np.eye(n)
            doubled.append(_pairing_drift(name, maps, state, steps, True, monkeypatch))
            per_step.append(_pairing_drift(name, maps, state, steps, False, monkeypatch))
    doubled, per_step = np.array(doubled), np.array(per_step)
    assert np.all(doubled <= per_step + 8.0 * math.sqrt(steps) * EPS)
    assert doubled.sum() <= 1.1 * per_step.sum()
    assert doubled.max() <= steps * EPS
