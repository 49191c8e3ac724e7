import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conesim._csvcells
import conesim.trace
from conesim import (
    SimulationTrace,
    StoppingRule,
    TerminalStatus,
    TraceRecord,
    builtin_example,
    parse_scenario,
    run_consensus,
    run_scenario,
)
from conesim.trace import TraceInvariantError
from helpers import (
    mixing_cycle,
    reference_check_lyapunov_monotone,
    reference_write_csv,
    trace_from_records,
)


def make_trace(lyapunov_values):
    records = [
        TraceRecord(t, v, 0.0, 1.0, None) for t, v in enumerate(lyapunov_values)
    ]
    return trace_from_records(records, TerminalStatus.CONVERGED, np.zeros(2), len(records) - 1)


class TestStoppingRule:
    def test_defaults(self):
        rule = StoppingRule()
        assert rule.tolerance == 1e-10 and rule.max_iterations == 100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(-1.0)
        with pytest.raises(ValueError):
            StoppingRule(1e-10, 0)
        for bad in (2.5, 3.0, True, "10"):
            with pytest.raises(TypeError, match="max_iterations must be an integer"):
                StoppingRule(1e-10, bad)
        assert StoppingRule(1e-10, np.int64(7)).max_iterations == 7


class TestCsvWriter:
    def test_seventeen_digit_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable as a short decimal
        trace = make_trace([value, value / 2])
        path = trace.write_csv(tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,lyapunov,lambda_min,lambda_max,dist_to_limit"
        parsed = float(lines[1].split(",")[1])
        assert parsed == value

    def test_empty_cells_for_missing_values(self, tmp_path):
        trace = trace_from_records(
            [TraceRecord(0, None, 0.0, 1.0, None)], TerminalStatus.MAX_ITERATIONS, np.zeros(1), 0
        )
        path = trace.write_csv(tmp_path / "t.csv")
        assert path.read_text().splitlines()[1] == "0,,0,1,"

    def test_monotone_violation_aborts_with_diagnostics(self, tmp_path):
        trace = make_trace([1.0, 0.5, 0.75])
        with pytest.raises(TraceInvariantError, match=r"V\(1\)=0.5 -> V\(2\)=0.75"):
            trace.write_csv(tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_violation_is_caught_by_its_package_name(self, tmp_path):
        trace = make_trace([1.0, 2.0])
        with pytest.raises(conesim.TraceInvariantError):
            trace.write_csv(tmp_path / "t.csv")

    def test_gaps_in_lyapunov_column_are_allowed(self, tmp_path):
        records = [
            TraceRecord(0, None, 0.0, 1.0),
            TraceRecord(1, 2.0, 0.0, 1.0),
            TraceRecord(2, None, 0.0, 1.0),
            TraceRecord(3, 1.0, 0.0, 1.0),
        ]
        trace = trace_from_records(records, TerminalStatus.CONVERGED, np.zeros(1), 3)
        trace.write_csv(tmp_path / "t.csv")

    def test_final_lyapunov_skips_missing(self):
        records = [TraceRecord(0, 3.0, 0.0, 1.0), TraceRecord(1, None, 0.0, 1.0)]
        trace = trace_from_records(records, TerminalStatus.CONVERGED, np.zeros(1), 1)
        assert trace.final_lyapunov == 3.0

    def test_final_lyapunov_is_the_last_present_float(self):
        records = [TraceRecord(t, v, 0.0, 1.0) for t, v in enumerate([None, 2.0, 1.5, None])]
        trace = trace_from_records(records, TerminalStatus.CONVERGED, np.zeros(1), 3)
        assert type(trace.final_lyapunov) is float and trace.final_lyapunov == 1.5
        absent = [TraceRecord(t, None, 0.0, 1.0) for t in range(3)]
        trace = trace_from_records(absent, TerminalStatus.CONVERGED, np.zeros(1), 2)
        assert trace.final_lyapunov is None


# --- the columnar writer and check against the per-row kernels they replaced ---

# signed zeros, subnormals, +-1e308, integral floats, infinities and NaN
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308 / 3, 1e308, -1e308, 1.0, 1e16]
SPECIAL += [-3.0, math.inf, -math.inf, math.nan]


def _values(rng, n):
    """Floats from the whole exponent range, integral floats, the special
    values above and NaN gaps, mixed at random."""
    wide = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1080, 1025, n))
    integral = np.round(rng.uniform(-1e6, 1e6, n))
    special = rng.choice(SPECIAL, n)
    return np.choose(rng.integers(0, 4, n), [wide, integral, special, np.full(n, math.nan)])


def _lyapunov_chain(rng, n):
    """A column that moves down, stays, or rises within the check's tolerance,
    with NaN gaps; in half the columns it rises past the tolerance at times."""
    value, values = float(_values(rng, 1)[0]), []
    rise = rng.choice([0.0, 0.02])
    for _ in range(n):
        values.append(math.nan if rng.uniform() < 0.2 else value)
        if math.isfinite(value):
            tol = 1e-12 * max(1.0, abs(value))
            steps = [0.0, -abs(value) * rng.uniform(), -1.0, 0.5 * tol, 2.0 * tol]
            value += steps[rng.choice(5, p=[0.3, 0.3, 0.1, 0.3 - rise, rise])]
    return values


def _error(check):
    try:
        check()
    except TraceInvariantError as exc:
        return str(exc)
    return None


@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), chain=st.booleans())
@settings(deadline=None, max_examples=200)
def test_columnar_writer_and_check_match_the_per_row_reference(n, seed, chain, tmp_path_factory):
    rng = np.random.default_rng(seed)
    lyap = _lyapunov_chain(rng, n) if chain else _values(rng, n).tolist()
    rest = [_values(rng, n).tolist() for _ in range(4)]
    records = [
        TraceRecord(t, *(None if x != x else x for x in row))
        for t, row in enumerate(zip(lyap, *rest))
    ]
    tmp = tmp_path_factory.mktemp("csv")
    trace = trace_from_records(records, TerminalStatus.CONVERGED, np.zeros(1), n - 1)
    assert repr(trace.records) == repr(records)
    error = _error(trace.check_lyapunov_monotone)
    assert error == _error(lambda: reference_check_lyapunov_monotone(records))
    if error is None:
        new = trace.write_csv(tmp / "new.csv").read_bytes()
        assert new == reference_write_csv(records, tmp / "ref.csv").read_bytes()
    else:
        with pytest.raises(TraceInvariantError):
            trace.write_csv(tmp / "new.csv")
        assert not (tmp / "new.csv").exists()


# --- the numpy writer at decimal boundaries, on real traces, and its fast path ---

# 10^k and both its float neighbours, where the digits and the notation switch
# (1e-5 and 1e-4, 1e16 and 1e17 among them); exact ties at the 17th digit;
# signed zeros, the smallest normal, subnormals and infinities
BOUNDARY = [
    v
    for ten in (float(f"1e{k}") for k in range(-30, 31))
    for v in (math.nextafter(ten, -math.inf), ten, math.nextafter(ten, math.inf))
]
BOUNDARY += [2.0**-25, 3 * 2.0**-25, 0.0, sys.float_info.min, 5e-324, sys.float_info.min / 3]
BOUNDARY += [math.inf] + [-v for v in BOUNDARY]


def _written_and_reference(trace, tmp_path):
    new = trace.write_csv(tmp_path / "new.csv").read_bytes()
    return new, reference_write_csv(trace.records, tmp_path / "ref.csv").read_bytes()


def _cycle_trace(n):
    """A 3,500-step run on a lazy cycle, with all four CSV columns."""
    rng = np.random.default_rng(n)
    cycle, state = mixing_cycle(n, 3500, rng), rng.uniform(0.5, 2.0, n)
    return run_consensus(cycle, state, StoppingRule(0.0, 3500), limit=np.ones(n))


@pytest.fixture
def python_cells(monkeypatch):
    """The values the numpy writer hands to Python, in the order handed."""
    handed = []
    python_format = conesim._csvcells._python_format

    def counted(values):
        handed.extend(values.tolist())
        return python_format(values)

    monkeypatch.setattr(conesim._csvcells, "_python_format", counted)
    return handed


def test_writer_matches_the_reference_at_decimal_boundaries(tmp_path):
    values = np.array(BOUNDARY)
    assert len(values) >= conesim.trace._NUMPY_MIN_ROWS
    columns = (np.sort(values)[::-1], values, np.roll(values, 1), values[::-1])
    nan = np.full(len(values), np.nan)
    trace = SimulationTrace(*columns, nan, TerminalStatus.CONVERGED, nan, len(values) - 1)
    new, reference = _written_and_reference(trace, tmp_path)
    assert new == reference


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_built_in_example_traces_match_the_reference(tmp_path, name):
    result = run_scenario(builtin_example(name), out_dir=tmp_path)
    reference = reference_write_csv(result.trace.records, tmp_path / "ref.csv")
    assert result.trace_path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("n", [8, 128])
def test_lazy_cycle_traces_are_written_by_numpy_alone(tmp_path, python_cells, n):
    new, reference = _written_and_reference(_cycle_trace(n), tmp_path)
    assert new == reference
    assert python_cells == []


def test_python_formats_exactly_the_cells_numpy_leaves_undecided(tmp_path, python_cells):
    trace = _cycle_trace(8)
    # a tie at the 17th digit, a subnormal, infinities, |x| outside 1e-100..1e100
    undecided = [2.0**-25, 3 * 2.0**-25, 5e-324, math.inf, -math.inf, 1e-300, -1e300]
    trace.lambda_min[7::500] = undecided
    trace.lambda_min[11::500] = np.resize([0.0, -0.0, np.nan], 7)  # no digits to decide
    new, reference = _written_and_reference(trace, tmp_path)
    assert new == reference
    assert python_cells == undecided


def test_no_trace_record_is_built_on_the_run_path(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a TraceRecord was built")

    monkeypatch.setattr(conesim.trace, "TraceRecord", fail)
    dual = parse_scenario(
        {
            "kind": "classical_dual",
            "dimension": 3,
            "dynamics": {"matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]},
            "initial_state": [1.0, 0.0, 2.0],
            "stop": {"tolerance": 1e-12, "max_iterations": 500},
            "expected_limit": [1.0, 1.0, 1.0],
        }
    )
    for name, scenario in [
        ("example1", builtin_example("example1")),
        ("example2", builtin_example("example2")),
        ("dual", dual),
    ]:
        result = run_scenario(scenario, out_dir=tmp_path / name)
        assert result.exit_code == 0
        rows = result.trace_path.read_text().splitlines()
        assert len(rows) == result.trace.iterations + 2
        assert result.summary_path.read_text().startswith("{")
