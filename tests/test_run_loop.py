"""The stopping contract shared by the four consensus runs.

`run_consensus` and `run_noncommutative_consensus` stop on their spread
(spectral width), checked from t = 0; `run_dual_consensus` and `run_channel`
stop on the move between successive states, so they always take a step. The
iteration budget is tested before the next map is pulled.
"""
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import pytest

from conesim import (
    KrausMap,
    StoppingRule,
    TerminalStatus,
    make_spin_rotation_map,
    run_channel,
    run_consensus,
    run_dual_consensus,
    run_noncommutative_consensus,
)
from conesim.trace import iterate

LAZY = np.array([[0.9, 0.1], [0.1, 0.9]])  # doubly stochastic, slow mixing
SPIN = make_spin_rotation_map(0.3, 0.7, 0.5)  # unital as a channel


@dataclass(frozen=True)
class Case:
    run: object
    stops_on_level: bool
    quantum: bool
    moving: object  # a state far from the limit
    fixed: object  # a state every map leaves unchanged

    def maps(self, count):
        return [self.constant()] * count

    def constant(self):
        return SPIN if self.quantum else LAZY

    def wrong(self):
        """A map of twice the state's dimension."""
        if self.quantum:
            return KrausMap(tuple(np.kron(V, np.eye(2)) for V in SPIN.operators))
        return np.kron(LAZY, np.eye(2))


CASES = {
    "consensus": Case(run_consensus, True, False, [0.0, 1.0], [1.0, 1.0]),
    "dual_consensus": Case(run_dual_consensus, False, False, [0.0, 1.0], [1.0, 1.0]),
    "noncommutative": Case(
        run_noncommutative_consensus, True, True, np.diag([1.0, 0.0]), np.eye(2)
    ),
    "channel": Case(run_channel, False, True, np.diag([1.0, 0.0]), np.eye(2) / 2),
}

params = pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))


@params
@pytest.mark.parametrize("length", [1, 5])
def test_sequence_of_exactly_the_budget_ends_max_iters(case, length):
    trace = case.run(case.maps(length), case.moving, StoppingRule(1e-10, length))
    assert trace.status is TerminalStatus.MAX_ITERATIONS
    assert trace.iterations == length
    assert [r.t for r in trace.records] == list(range(length + 1))


@params
@pytest.mark.parametrize("length", [0, 1, 5])
def test_sequence_shorter_than_the_budget_ends_incomplete(case, length):
    trace = case.run(case.maps(length), case.moving, StoppingRule(1e-10, length + 1))
    assert trace.status is TerminalStatus.INCOMPLETE_SEQUENCE
    assert trace.iterations == length
    assert len(trace.records) == length + 1


@params
def test_fixed_state_stops_at_zero_on_level_after_one_step_on_move(case):
    trace = case.run(case.constant(), case.fixed, StoppingRule(1e-10, 10))
    assert trace.status is TerminalStatus.CONVERGED
    expected = 0 if case.stops_on_level else 1
    assert trace.iterations == expected
    assert len(trace.records) == expected + 1
    np.testing.assert_allclose(trace.final_state, case.fixed, atol=1e-15)


@params
def test_zero_tolerance_runs_the_whole_budget(case):
    trace = case.run(case.constant(), case.fixed, StoppingRule(0.0, 7))
    assert trace.status is TerminalStatus.MAX_ITERATIONS
    assert trace.iterations == 7
    assert len(trace.records) == 8


@params
def test_wrong_dimension_map_raises_at_its_step(case):
    # None is no map either: it raises at its step, and ends no sequence
    not_a_map = "NoneType is not a KrausMap" if case.quantum else "square 2-d array"
    mismatch = "dimension mismatch: map is 4, state is 2"
    for bad, message in [(case.wrong(), mismatch), (None, not_a_map)]:
        pulled = []

        def maps():
            for phi in [case.constant(), case.constant(), bad, case.constant()]:
                pulled.append(phi)
                yield phi

        with pytest.raises((TypeError, ValueError), match=message):
            case.run(maps(), case.moving, StoppingRule(1e-10, 10))
        assert len(pulled) == 3
    # a single map is checked once, before the run starts
    with pytest.raises(ValueError, match=mismatch):
        case.run(case.wrong(), case.fixed, StoppingRule(1e-10, 10))


def test_the_level_is_the_measured_width_or_the_norm_of_the_step():
    # x halves each step; the Lyapunov column stays at 1, so only the width
    # lambda_max - lambda_min = 2x, or the norm of the step the run's `move`
    # is handed, can stop the run
    def measure(states):
        x = states[:, 0]
        return np.ones(len(x)), -x, x, None, None

    def halve(_, x, out):
        np.multiply(x, 0.5, out=out)

    stop = StoppingRule(0.3, 50)
    trace = iterate(repeat(None), np.array([1.0]), halve, measure, stop)
    assert trace.iterations == 3  # widths 2, 1, 0.5, 0.25
    steps = []

    def move(d):
        steps.append(d.copy())
        return np.abs(d[:, 0])

    trace = iterate(repeat(None), np.array([1.0]), halve, measure, stop, move)
    assert trace.iterations == 2  # steps -0.5, -0.25
    np.testing.assert_array_equal(steps[0][:, 0], -(0.5 ** np.arange(1, 9)))
