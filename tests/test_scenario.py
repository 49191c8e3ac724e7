import importlib.util
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import (
    BUILTIN_EXAMPLES,
    Scenario,
    ScenarioError,
    builtin_example,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)
from conesim.channels import KrausMap
from conesim.classical import StochasticMatrix, as_stochastic_sequence
import conesim.channels
from conesim.scenario import (
    MAX_POWER_ENTRIES,
    SpinRotationSpec,
    SpontaneousEmissionSpec,
    complex_array_from_pairs,
    scenario_to_jsonable,
)
from helpers import assert_same_scenario, random_density, random_hermitian

MINIMAL_CLASSICAL = {
    "kind": "classical",
    "dimension": 2,
    "dynamics": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    "initial_state": [0.0, 1.0],
}

EMISSION_SCENARIO = {
    "kind": "quantum_dual",
    "dimension": 2,
    "dynamics": {"builder": {"name": "spontaneous_emission", "gamma": 0.2}},
    "initial_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}

EXAMPLE2 = scenario_to_jsonable(builtin_example("example2"))

EMBEDDED_4 = {
    "kind": "embedded",
    "dimension": 4,
    "dynamics": {"matrix": (np.ones((4, 4)) / 4).tolist()},
    "initial_state": [0.0, 1.0, 2.0, 3.0],
    "analysis": {"estimate_image_radius": {"samples": 1}},
}


class TestParsing:
    def test_minimal_classical(self):
        s = parse_scenario(json.dumps(MINIMAL_CLASSICAL))
        assert s.kind == "classical" and s.dimension == 2
        assert s.stop.tolerance == 1e-10 and s.stop.max_iterations == 100_000
        assert s.trace_csv == "trace.csv"

    def test_bad_row_sum_names_row_and_value(self):
        doc = dict(MINIMAL_CLASSICAL, dynamics={"matrix": [[1.0, 0.0], [0.4, 0.5]]})
        with pytest.raises(ScenarioError, match=r"dynamics\.matrix: row 1 sums to 0.9"):
            parse_scenario(doc)

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            parse_scenario(dict(MINIMAL_CLASSICAL, extra=1))

    def test_missing_required_field(self):
        doc = dict(MINIMAL_CLASSICAL)
        del doc["initial_state"]
        with pytest.raises(ScenarioError, match="missing required field"):
            parse_scenario(doc)

    def test_exactly_one_dynamics(self):
        doc = dict(
            MINIMAL_CLASSICAL,
            dynamics={"matrix": [[1.0, 0.0], [0.0, 1.0]], "matrices": [[[1.0]]]},
        )
        with pytest.raises(ScenarioError, match="exactly one dynamics"):
            parse_scenario(doc)
        with pytest.raises(ScenarioError, match="exactly one dynamics"):
            parse_scenario(dict(MINIMAL_CLASSICAL, dynamics={}))

    def test_kind_dynamics_compatibility(self):
        doc = dict(MINIMAL_CLASSICAL, dynamics=EMISSION_SCENARIO["dynamics"])
        with pytest.raises(ScenarioError, match="requires 'matrix'"):
            parse_scenario(doc)

    def test_invalid_json_reported(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            parse_scenario("{not json")

    def test_builder_domain_checks(self):
        doc = json.loads(json.dumps(EMISSION_SCENARIO))
        doc["dynamics"]["builder"]["gamma"] = 1.5
        with pytest.raises(ScenarioError, match=r"builder\.gamma"):
            parse_scenario(doc)

    def test_builder_produces_expected_operators(self):
        s = parse_scenario(EMISSION_SCENARIO)
        assert isinstance(s.dynamics, KrausMap)
        assert s.builder == SpontaneousEmissionSpec(0.2)
        reference = make_spontaneous_emission_map(0.2)
        for a, b in zip(s.dynamics.operators, reference.operators):
            assert np.array_equal(a, b)

    def test_spin_builder_fraction_forms(self):
        doc = {
            "kind": "quantum_channel",
            "dimension": 2,
            "dynamics": {
                "builder": {
                    "name": "spin_rotation",
                    "alpha_over_pi": "7/32",
                    "beta_over_pi": 0.5,
                    "p": 0.3,
                }
            },
            "initial_state": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        }
        s = parse_scenario(doc)
        b = s.builder
        assert isinstance(b, SpinRotationSpec)
        assert b.alpha_over_pi == Fraction(7, 32)
        assert b.beta_over_pi == Fraction(1, 2)
        assert b.special_cases() == ()

    def test_non_hermitian_initial_state_rejected(self):
        doc = json.loads(json.dumps(EMISSION_SCENARIO))
        doc["initial_state"][0][1] = [0.5, 0.0]
        with pytest.raises(ScenarioError, match="not Hermitian"):
            parse_scenario(doc)

    def test_channel_initial_state_must_be_density(self):
        doc = {
            "kind": "quantum_channel",
            "dimension": 2,
            "dynamics": {"builder": {"name": "spontaneous_emission", "gamma": 0.2}},
            "initial_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        with pytest.raises(ScenarioError, match="not a density matrix"):
            parse_scenario(doc)

    def test_kraus_operator_sum_checked(self):
        doc = {
            "kind": "quantum_dual",
            "dimension": 2,
            "dynamics": {
                "kraus_operators": [
                    [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]
                ]
            },
            "initial_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(ScenarioError, match="deviates from identity"):
            parse_scenario(doc)

    def test_analysis_kind_constraints(self):
        doc = dict(MINIMAL_CLASSICAL, analysis={"duality_check": True})
        with pytest.raises(ScenarioError, match="duality_check"):
            parse_scenario(doc)
        doc = json.loads(json.dumps(EMISSION_SCENARIO))
        doc["analysis"] = {"compute_diameter": True}
        with pytest.raises(ScenarioError, match="compute_diameter"):
            parse_scenario(doc)

    def test_estimate_settings_validated(self):
        doc = json.loads(json.dumps(EMISSION_SCENARIO))
        doc["analysis"] = {"estimate_image_radius": {"samples": 0}}
        with pytest.raises(ScenarioError, match="samples"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "doc, m, n, power",
        [
            (EXAMPLE2, 2, 2, 20),  # 2^20 * 4 = 2^22 entries
            (EXAMPLE2, 2, 2, 21),
            (EXAMPLE2, 2, 2, 40),
            (EMBEDDED_4, 4, 4, 9),  # an embedding has n operators: 4^9 * 16 = 2^22
            (EMBEDDED_4, 4, 4, 10),
        ],
    )
    def test_image_radius_power_is_bounded(self, doc, m, n, power):
        doc = json.loads(json.dumps(doc))
        doc["analysis"]["estimate_image_radius"]["power"] = power
        entries = m**power * n * n
        if entries <= MAX_POWER_ENTRIES:
            parse_scenario(doc)
            return
        with pytest.raises(
            ScenarioError,
            match=rf"^analysis\.estimate_image_radius\.power: {m}\^{power} operators of "
            rf"{n}x{n} make {entries} complex entries, limit {MAX_POWER_ENTRIES}$",
        ):
            parse_scenario(doc)

    def test_power_rejection_builds_nothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a Kraus power was built")

        monkeypatch.setattr(conesim.channels, "compose", fail)
        monkeypatch.setattr(conesim.channels, "kraus_power", fail)
        doc = json.loads(json.dumps(EXAMPLE2))
        for power in (40, 10**18):
            doc["analysis"]["estimate_image_radius"]["power"] = power
            tracemalloc.start()
            try:
                with pytest.raises(ScenarioError, match="estimate_image_radius.power"):
                    parse_scenario(doc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_expected_limit_shape(self):
        doc = dict(MINIMAL_CLASSICAL, expected_limit=[1.0, 2.0, 3.0])
        with pytest.raises(ScenarioError, match="expected_limit"):
            parse_scenario(doc)

    def test_output_paths(self):
        doc = dict(MINIMAL_CLASSICAL, output={"trace_csv": "a.csv", "summary": "b.json"})
        s = parse_scenario(doc)
        assert (s.trace_csv, s.summary_path) == ("a.csv", "b.json")

    @pytest.mark.parametrize(
        "output",
        [
            {"trace_csv": "summary.json", "summary": "summary.json"},
            {"trace_csv": "runs/out", "summary": "runs/./out"},
            {"summary": "trace.csv"},
            {"trace_csv": "runs", "summary": "runs/summary.json"},
            {"trace_csv": "runs/a/trace.csv", "summary": "runs/a"},
        ],
    )
    def test_output_names_must_differ(self, output):
        doc = dict(MINIMAL_CLASSICAL, output=output)
        with pytest.raises(ScenarioError, match=r"output\.summary: collides with output\.trace_csv"):
            parse_scenario(doc)

    @pytest.mark.parametrize("field", ["trace_csv", "summary"])
    @pytest.mark.parametrize("name", ["../escaped.csv", "/tmp/escaped.csv", "a/../../b", "."])
    def test_output_names_stay_inside_the_output_directory(self, field, name):
        doc = dict(MINIMAL_CLASSICAL, output={field: name})
        with pytest.raises(
            ScenarioError, match=rf"output\.{field}: must be a file path inside the output"
        ):
            parse_scenario(doc)

    def test_output_subdirectories_are_created(self, tmp_path):
        output = {"trace_csv": "runs/a/trace.csv", "summary": "runs/summary.json"}
        result = run_scenario(parse_scenario(dict(MINIMAL_CLASSICAL, output=output)), tmp_path)
        assert result.trace_path == tmp_path / "runs" / "a" / "trace.csv"
        assert result.trace_path.is_file() and result.summary_path.is_file()

    @pytest.mark.parametrize("angle", ["alpha_over_pi", "beta_over_pi"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_angle_names_the_field(self, angle, value):
        doc = {
            "kind": "quantum_channel",
            "dimension": 2,
            "dynamics": {
                "builder": {
                    "name": "spin_rotation",
                    "alpha_over_pi": "7/32",
                    "beta_over_pi": "11/32",
                    "p": 0.3,
                }
            },
            "initial_state": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        }
        doc["dynamics"]["builder"][angle] = value
        text = json.dumps(doc)  # json writes the value as Infinity / -Infinity
        with pytest.raises(
            ScenarioError, match=rf"dynamics\.builder\.{angle}: expected a rational number"
        ):
            parse_scenario(text)
        doc["dynamics"]["builder"][angle] = "1e400"  # exact, but no float angle
        with pytest.raises(ScenarioError, match=r"dynamics\.builder: "):
            parse_scenario(doc)

    def test_embedded_kind(self):
        doc = {
            "kind": "embedded",
            "dimension": 2,
            "dynamics": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
            "initial_state": [1.0, 2.0],
        }
        s = parse_scenario(doc)
        assert isinstance(s.dynamics, StochasticMatrix) and s.dynamics.n == 2
        assert s.initial_state.dtype == np.float64 and s.initial_state.shape == (2,)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
    def test_builtins_round_trip(self, name):
        s = builtin_example(name)
        assert_same_scenario(parse_scenario(serialize_scenario(s)), s)

    def test_custom_scenario_round_trips(self):
        doc = {
            "kind": "quantum_dual",
            "dimension": 2,
            "dynamics": {"builder": {"name": "spontaneous_emission", "gamma": 0.4}},
            "initial_state": [[[2.0, 0.0], [0.1, -0.3]], [[0.1, 0.3], [0.0, 0.0]]],
            "stop": {"tolerance": 1e-9, "max_iterations": 500},
            "analysis": {
                "estimate_image_radius": {"samples": 50, "seed": 3, "power": 2},
                "fixed_point": True,
            },
            "expected_limit": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
            "output": {"trace_csv": "t.csv", "summary": "s.json"},
        }
        s = parse_scenario(doc)
        assert_same_scenario(parse_scenario(serialize_scenario(s)), s)

    def test_unknown_example_rejected(self):
        with pytest.raises(ScenarioError, match="unknown example"):
            builtin_example("example9")


class TestMaterialization:
    def test_initial_matrix_complex_encoding(self):
        s = parse_scenario(EMISSION_SCENARIO)
        m = s.initial_state
        assert m.dtype == np.complex128 and not m.flags.writeable
        np.testing.assert_array_equal(m, np.diag([1.0, 0.0]).astype(complex))

    def test_complex_pair_helpers(self):
        arr = complex_array_from_pairs([[[1.0, 2.0], [0.0, -1.0]], [[0.0, 1.0], [3.0, 0.0]]])
        assert arr[0, 0] == 1 + 2j and arr[1, 0] == 1j

    def test_complex_pairs_keep_signed_zeros(self):
        arr = complex_array_from_pairs([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0], [0.0, 0.0]])
        assert np.signbit(arr.real).tolist() == [True, False, True, False]
        assert np.signbit(arr.imag).tolist() == [False, True, True, False]

    def test_sequence_materialization(self):
        doc = dict(
            MINIMAL_CLASSICAL,
            dynamics={"matrices": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]]},
        )
        mats = parse_scenario(doc).dynamics
        assert isinstance(mats, tuple) and all(isinstance(m, StochasticMatrix) for m in mats)
        seq = as_stochastic_sequence(mats)
        assert seq.length == 2 and seq.dimension == 2


class TestBuiltins:
    def test_descriptions_exist(self):
        assert set(BUILTIN_EXAMPLES) == {"example1", "example2", "example3"}
        assert all(isinstance(v, str) and v for v in BUILTIN_EXAMPLES.values())

    def test_example_scenarios_are_internally_consistent(self):
        e1 = builtin_example("example1")
        assert e1.kind == "classical"
        np.testing.assert_array_equal(e1.dynamics.entries, [[1.0, 0.0], [0.25, 0.75]])
        e2 = builtin_example("example2")
        assert e2.kind == "quantum_channel"
        assert e2.builder.special_cases() == ()
        e3 = builtin_example("example3")
        assert e3.kind == "quantum_dual"
        assert e3.analysis.fixed_point and e3.analysis.duality_check


# --- one representation: what a parsed Scenario holds ------------------------

FORMS = (
    "matrix",
    "matrices",
    "kraus_operators",
    "spin_rotation",
    "spontaneous_emission",
    "embedded",
)


def _pairs(arr):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _stochastic(rng, n):
    a = rng.uniform(size=(n, n))
    return (a / a.sum(axis=1, keepdims=True)).tolist()


def random_document(form, n, rng):
    """A valid scenario document with `form` dynamics, every analysis its kind
    allows and an expected limit on a coin flip. The builders are qubit maps,
    so they ignore n."""
    flip = bool(rng.integers(2))
    if form in ("matrix", "matrices", "embedded"):
        kind = "embedded" if form == "embedded" else ("classical_dual" if flip else "classical")
        if form == "matrices":
            dynamics = {"matrices": [_stochastic(rng, n) for _ in range(int(rng.integers(1, 5)))]}
        else:
            dynamics = {"matrix": _stochastic(rng, n)}
    else:
        kind = "quantum_channel" if flip else "quantum_dual"
        if form == "kraus_operators":
            m = int(rng.integers(1, 5))
            g = rng.standard_normal((m * n, n)) + 1j * rng.standard_normal((m * n, n))
            dynamics = {"kraus_operators": _pairs(np.linalg.qr(g)[0].reshape(m, n, n))}
        elif form == "spin_rotation":
            n = 2
            alpha, beta = (
                str(Fraction(int(rng.integers(-64, 65)), int(rng.integers(1, 33))))
                for _ in range(2)
            )
            dynamics = {
                "builder": {
                    "name": "spin_rotation",
                    "alpha_over_pi": alpha,
                    "beta_over_pi": beta,
                    "p": float(rng.uniform(0.05, 0.95)),
                }
            }
        else:
            n = 2
            gamma = float(rng.uniform(0.05, 0.95))
            dynamics = {"builder": {"name": "spontaneous_emission", "gamma": gamma}}
    classical = kind in ("classical", "classical_dual")
    if classical or kind == "embedded":
        state = rng.uniform(-2.0, 2.0, n).tolist()
        analysis = {"compute_diameter": True, "diameter_powers": int(rng.integers(1, 4))}
    else:
        state = _pairs(random_density(rng, n) if flip else random_hermitian(rng, n))
        analysis = {}
    if not classical:
        analysis.update(
            estimate_image_radius={"samples": 32, "seed": int(rng.integers(100)), "power": 2},
            fixed_point=True,
            duality_check=True,
            duality_steps=20,
        )
    doc = {
        "kind": kind,
        "dimension": n,
        "dynamics": dynamics,
        "initial_state": state,
        "stop": {"tolerance": 1e-9, "max_iterations": 60},
        "analysis": analysis,
    }
    if rng.integers(2):
        limit = rng.uniform(-2.0, 2.0, n)
        doc["expected_limit"] = limit.tolist() if classical else _pairs(np.diag(limit) + 0j)
    return doc


def _sign_zeros(pairs, rng):
    """The complex matrix `pairs` with each zero part drawn as 0.0 or -0.0."""
    arr = np.array(pairs, dtype=float)
    zero = arr == 0.0
    arr[zero] = np.where(rng.integers(2, size=int(zero.sum())) == 1, -0.0, 0.0)
    return arr.tolist()


def _holds(arr, value):
    """arr is read-only and holds the document's numbers bit for bit, signs
    of zeros included."""
    doc_arr = np.array(value, dtype=float)
    if np.iscomplexobj(arr):
        same = (
            arr.shape == doc_arr.shape[:-1]
            and arr.real.tobytes() == doc_arr[..., 0].tobytes()
            and arr.imag.tobytes() == doc_arr[..., 1].tobytes()
        )
    else:
        same = arr.dtype == np.float64 and arr.tobytes() == doc_arr.tobytes()
    return same and not arr.flags.writeable


@given(st.sampled_from(FORMS), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=80)
def test_serialise_parse_round_trip(form, n, seed):
    rng = np.random.default_rng(seed)
    doc = random_document(form, n, rng)
    if doc["kind"] in ("quantum_dual", "quantum_channel"):
        # the zero imaginary parts of the state's diagonal and the zero
        # entries of a diagonal limit take either sign
        doc["initial_state"] = _sign_zeros(doc["initial_state"], rng)
        if "expected_limit" in doc:
            doc["expected_limit"] = _sign_zeros(doc["expected_limit"], rng)
    s = parse_scenario(doc)
    text = serialize_scenario(s)
    again = parse_scenario(text)
    assert serialize_scenario(again) == text
    assert_same_scenario(again, s)

    dyn = doc["dynamics"]
    if "matrix" in dyn:
        assert isinstance(s.dynamics, StochasticMatrix) and _holds(s.dynamics.entries, dyn["matrix"])
    elif "matrices" in dyn:
        assert isinstance(s.dynamics, tuple) and len(s.dynamics) == len(dyn["matrices"])
        assert all(_holds(m.entries, v) for m, v in zip(s.dynamics, dyn["matrices"]))
    elif "kraus_operators" in dyn:
        assert isinstance(s.dynamics, KrausMap) and s.builder is None
        assert _holds(s.dynamics.operators, dyn["kraus_operators"])
    else:
        b = dyn["builder"]
        if b["name"] == "spin_rotation":
            alpha, beta = Fraction(b["alpha_over_pi"]), Fraction(b["beta_over_pi"])
            assert s.builder == SpinRotationSpec(alpha, beta, b["p"])
            ref = make_spin_rotation_map(float(alpha) * math.pi, float(beta) * math.pi, b["p"])
        else:
            assert s.builder == SpontaneousEmissionSpec(b["gamma"])
            ref = make_spontaneous_emission_map(b["gamma"])
        assert np.array_equal(s.dynamics.operators, ref.operators)
    for parsed in (s, again):
        assert _holds(parsed.initial_state, doc["initial_state"])
        if "expected_limit" in doc:
            assert _holds(parsed.expected_limit, doc["expected_limit"])
        else:
            assert parsed.expected_limit is None


def test_benchmark_documents_parse():
    # the image-radius power bound leaves every generated benchmark document valid
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    count = 0
    for name in ("classical-trajectories", "quantum-trajectories", "certificates"):
        for case in workloads.generate(name, 7):
            parse_scenario(case["doc"])
            count += 1
    assert count == 53


@pytest.mark.parametrize("form", FORMS)
def test_one_parsed_scenario_runs_many_times(form, tmp_path):
    s = parse_scenario(random_document(form, 3, np.random.default_rng(11)))
    state = s.initial_state.copy()
    r1 = run_scenario(s, out_dir=tmp_path / "r1")
    r2 = run_scenario(s, out_dir=tmp_path / "r2")
    assert r1.trace_path.read_bytes() == r2.trace_path.read_bytes()
    assert r1.summary_path.read_bytes() == r2.summary_path.read_bytes()
    assert np.array_equal(s.initial_state, state)
    with pytest.raises(ValueError, match="read-only"):
        s.initial_state[0] = 1.0
