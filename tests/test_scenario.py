import copy
import importlib.util
import json
import math
import re
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
    StoppingRule,
    TerminalStatus,
    builtin_example,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    parse_scenario,
    run_consensus,
    run_scenario,
    serialize_scenario,
    spin_rotation_special_cases,
)
from conesim.channels import KrausMap
from conesim.cli import main as cli_main
import conesim.channels
from conesim.scenario import (
    MAX_POWER_ENTRIES,
    SpinRotationSpec,
    SpontaneousEmissionSpec,
    complex_array_from_pairs,
    scenario_to_jsonable,
)
import conesim.scenario
from helpers import (
    assert_same_scenario,
    per_entry_number_parsing,
    random_density,
    random_hermitian,
    scenario_arrays,
)

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

    def test_bad_matrix_entry_names_its_path_once(self):
        cases = [
            (
                {"matrix": [[-math.inf, 1.0], [0.0, 1.0]]},
                "dynamics.matrix[0][0]: expected a finite number, got -inf",
            ),
            (
                {"matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, "x"]]]},
                "dynamics.matrices[1][1][1]: expected a number, got 'x'",
            ),
        ]
        for dynamics, message in cases:
            doc = dict(MINIMAL_CLASSICAL, dynamics=dynamics)
            with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
                parse_scenario(doc)

    def test_a_stack_is_read_whole_before_its_row_sums_are_checked(self):
        # matrices[0]'s row 0 sums to 0.9, but the non-number in matrices[1]
        # is named first: every matrix's shape and entries come before any
        # row sum
        dynamics = {"matrices": [[[0.5, 0.4], [0.0, 1.0]], [[1.0, 0.0], [0.0, "x"]]]}
        message = "dynamics.matrices[1][1][1]: expected a number, got 'x'"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(dict(MINIMAL_CLASSICAL, dynamics=dynamics))

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
        assert spin_rotation_special_cases(b.alpha_over_pi, b.beta_over_pi) == ()

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

    @pytest.mark.parametrize(
        "diagonal, message",
        [
            ([1.0, 1.0], "trace is 2.0, expected 1 within 1e-12"),
            ([1.5, -0.5], "not positive semidefinite: lambda_min=-5.000e-01"),
        ],
        ids=["trace", "indefinite"],
    )
    def test_density_messages_are_pinned(self, diagonal, message):
        doc = {
            "kind": "quantum_channel",
            "dimension": 2,
            "dynamics": {"builder": {"name": "spontaneous_emission", "gamma": 0.2}},
            "initial_state": [[[diagonal[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [diagonal[1], 0.0]]],
        }
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == f"initial_state: not a density matrix: {message}"

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

    @pytest.mark.parametrize("n", [45, 46, 64])
    @pytest.mark.parametrize("field", ["fixed_point", "estimate_image_radius"])
    def test_liouville_analyses_are_bounded(self, n, field):
        # an n x n scenario's Liouville matrix holds n^4 complex entries:
        # 45^4 is under the limit, 46^4 over it
        analysis = {"fixed_point": True}
        if field == "estimate_image_radius":
            analysis = {"estimate_image_radius": {"samples": 1}}
        doc = {
            "kind": "embedded",
            "dimension": n,
            "dynamics": {"matrix": (np.ones((n, n)) / n).tolist()},
            "initial_state": np.arange(n, dtype=float).tolist(),
            "analysis": analysis,
        }
        if n**4 <= MAX_POWER_ENTRIES:
            parse_scenario(doc)
            return
        with pytest.raises(
            ScenarioError,
            match=rf"^analysis\.{field}: the {n * n}x{n * n} Liouville matrix has {n**4} "
            rf"complex entries, limit {MAX_POWER_ENTRIES}$",
        ):
            parse_scenario(doc)

    def test_power_rejection_builds_nothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a Kraus power was built")

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

    def test_negative_sampling_seed_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(EXAMPLE2))
        doc["analysis"]["estimate_image_radius"]["seed"] = -1
        message = "analysis.estimate_image_radius.seed: must be >= 0, got -1"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_huge_integer_entry_names_the_field(self):
        doc = dict(MINIMAL_CLASSICAL, initial_state=[0.0, 10**400])
        message = "initial_state[1]: expected a finite number, got an integer of 1329 bits"
        for source in (doc, json.dumps(doc)):
            with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
                parse_scenario(source)
        doc["initial_state"][1] = 10**5000  # more digits than int() may print
        with pytest.raises(ScenarioError, match="integer of 16610 bits$"):
            parse_scenario(doc)
        with pytest.raises(ScenarioError, match="^invalid JSON: Exceeds the limit"):
            parse_scenario('{"dimension": 1' + "0" * 5000 + "}")

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
        assert s.dynamics.shape == (2, 2) and s.dynamics.dtype == np.float64
        assert not s.dynamics.flags.writeable
        assert s.initial_state.dtype == np.float64 and s.initial_state.shape == (2,)


SPIN = {"name": "spin_rotation", "alpha_over_pi": "7/32", "beta_over_pi": "11/32", "p": 0.3}
IDENTITY_2 = [[1.0, 0.0], [0.0, 1.0]]
PAIRS_IDENTITY_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def _classical(**fields):
    return dict(MINIMAL_CLASSICAL, **fields)


def _quantum(**fields):
    return dict(EMISSION_SCENARIO, **fields)


def _builder(dimension=2, **fields):
    return _quantum(dimension=dimension, dynamics={"builder": fields})


REJECTIONS = {
    "top_level_not_object": ("[]", "scenario must be a JSON object"),
    "dynamics_not_object": (_classical(dynamics=[]), "dynamics: expected an object"),
    "builder_not_object": (
        _quantum(dynamics={"builder": "spin_rotation"}),
        "dynamics.builder: expected an object",
    ),
    "stop_not_object": (_classical(stop=5), "stop: expected an object"),
    "analysis_not_object": (_classical(analysis=[]), "analysis: expected an object"),
    "estimate_not_object": (
        _quantum(analysis={"estimate_image_radius": 3}),
        "analysis.estimate_image_radius: expected an object",
    ),
    "output_not_object": (_classical(output="trace.csv"), "output: expected an object"),
    "embedded_sequence": (
        _classical(kind="embedded", dynamics={"matrices": [IDENTITY_2]}),
        "dynamics: kind 'embedded' requires a constant 'matrix'",
    ),
    "quantum_matrix": (
        _quantum(dynamics={"matrix": IDENTITY_2}),
        "dynamics: kind 'quantum_dual' requires 'kraus_operators' or 'builder'",
    ),
    "empty_matrices": (
        _classical(dynamics={"matrices": []}),
        "dynamics.matrices: expected a nonempty list of matrices",
    ),
    "empty_kraus_operators": (
        _quantum(dynamics={"kraus_operators": []}),
        "dynamics.kraus_operators: expected a nonempty list of operators",
    ),
    "later_matrix_row_sum": (
        _classical(dynamics={"matrices": [IDENTITY_2, IDENTITY_2, [[0.5, 0.5], [0.4, 0.5]]]}),
        "dynamics.matrices[2]: row 1 sums to 0.9, expected 1 within 1e-12",
    ),
    "later_matrix_negative_entry": (
        _classical(dynamics={"matrices": [IDENTITY_2, [[1.5, -0.5], [0.0, 1.0]]]}),
        "dynamics.matrices[1]: negative entry at (0,1): -0.5",
    ),
    "later_operator_bad_pair": (
        _quantum(
            dynamics={"kraus_operators": [PAIRS_IDENTITY_2, [[[1, 0], [0, 0]], [[0, 0], [0]]]]}
        ),
        "dynamics.kraus_operators[1][1][1]: complex entries are [re, im] pairs",
    ),
    "builder_missing_field": (
        _builder(**{k: v for k, v in SPIN.items() if k != "p"}),
        "dynamics.builder: missing field 'p'",
    ),
    "spin_rotation_dimension": (
        _builder(3, **SPIN),
        "dynamics.builder: spin_rotation is a qubit map, dimension must be 2, got 3",
    ),
    "spontaneous_emission_dimension": (
        _builder(3, name="spontaneous_emission", gamma=0.2),
        "dynamics.builder: spontaneous_emission is a qubit map, dimension must be 2, got 3",
    ),
    "p_outside_unit_interval": (
        _builder(**dict(SPIN, p=1)),
        "dynamics.builder.p: must be in (0, 1), got 1.0",
    ),
    "missing_gamma": (
        _builder(name="spontaneous_emission"),
        "dynamics.builder: missing field 'gamma'",
    ),
    "unknown_builder": (
        _builder(name="dephasing"),
        "dynamics.builder: unknown builder 'dephasing'; supported: spin_rotation, "
        "spontaneous_emission",
    ),
    "negative_tolerance": (
        _classical(stop={"tolerance": -1}),
        "stop.tolerance: must be >= 0, got -1.0",
    ),
    "estimate_without_samples": (
        _quantum(analysis={"estimate_image_radius": {"seed": 1}}),
        "analysis.estimate_image_radius: missing field 'samples'",
    ),
    "estimate_on_classical": (
        _classical(analysis={"estimate_image_radius": {"samples": 1}}),
        "analysis.estimate_image_radius: not applicable to kind 'classical'",
    ),
    "fixed_point_on_classical": (
        _classical(analysis={"fixed_point": True}),
        "analysis.fixed_point: not applicable to kind 'classical'",
    ),
    "empty_output_name": (
        _classical(output={"trace_csv": ""}),
        "output.trace_csv: expected a nonempty string",
    ),
    "unknown_kind": (
        _classical(kind="markov"),
        "kind: expected one of ['classical', 'classical_dual', 'quantum_dual', "
        "'quantum_channel', 'embedded'], got 'markov'",
    ),
    "non_integer_field": (_classical(dimension=2.0), "dimension: expected an integer, got 2.0"),
    "non_boolean_field": (
        _quantum(analysis={"fixed_point": 1}),
        "analysis.fixed_point: expected true/false, got 1",
    ),
    "boolean_angle": (
        _builder(**dict(SPIN, alpha_over_pi=True)),
        'dynamics.builder.alpha_over_pi: expected a rational number (e.g. "7/32" or 0.5), '
        "got True",
    ),
}


@pytest.mark.parametrize("doc, message", REJECTIONS.values(), ids=REJECTIONS)
def test_rejection_messages_are_pinned(doc, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(doc)
    assert str(info.value) == message


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
        assert mats.shape == (2, 2, 2) and mats.dtype == np.float64 and not mats.flags.writeable
        trace = run_consensus(mats, [0.0, 1.0], StoppingRule(0.0, 5))
        assert trace.status is TerminalStatus.INCOMPLETE_SEQUENCE and trace.iterations == 2


class TestBuiltins:
    def test_descriptions_exist(self):
        assert set(BUILTIN_EXAMPLES) == {"example1", "example2", "example3"}
        assert all(isinstance(v, str) and v for v in BUILTIN_EXAMPLES.values())

    def test_example_scenarios_are_internally_consistent(self):
        e1 = builtin_example("example1")
        assert e1.kind == "classical"
        np.testing.assert_array_equal(e1.dynamics, [[1.0, 0.0], [0.25, 0.75]])
        e2 = builtin_example("example2")
        assert e2.kind == "quantum_channel"
        b = e2.builder
        assert spin_rotation_special_cases(b.alpha_over_pi, b.beta_over_pi) == ()
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
        assert s.dynamics.ndim == 2 and _holds(s.dynamics, dyn["matrix"])
    elif "matrices" in dyn:
        assert s.dynamics.ndim == 3 and _holds(s.dynamics, dyn["matrices"])
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


# --- the one-pass grid check against the per-entry parser --------------------

LEAF_DEFECTS = {
    "bool": lambda v: True,
    "str": str,
    "null": lambda v: None,
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "huge int": lambda v: -(10**400) if v < 0 else 10**400,
    "nested": lambda v: [v],
    "tuple": lambda v: (v,),
    "numpy scalar": np.float64,
    "signed zero": lambda v: -0.0,
}
LIST_DEFECTS = ("short", "long", "tuple list")


def _lists(container, key):
    """(container, key) of the list container[key] and of every list in it."""
    out = [(container, key)]
    for i, v in enumerate(container[key]):
        if isinstance(v, list):
            out.extend(_lists(container[key], i))
    return out


def _grid_lists(doc):
    """(container, key) of every list in the document's number grids."""
    dyn = doc["dynamics"]
    grids = [(doc, "initial_state")]
    if "expected_limit" in doc:
        grids.append((doc, "expected_limit"))
    if "matrix" in dyn:
        grids.append((dyn, "matrix"))
    for key in ("matrices", "kraus_operators"):
        if key in dyn:
            grids.extend((dyn[key], t) for t in range(len(dyn[key])))
    return [slot for grid in grids for slot in _lists(*grid)]


def _outcome(doc):
    try:
        return parse_scenario(doc)
    except Exception as exc:
        return exc


@given(
    st.sampled_from(FORMS),
    st.integers(1, 6),
    st.sampled_from(sorted(LEAF_DEFECTS) + list(LIST_DEFECTS)),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=300)
def test_grid_check_matches_the_per_entry_parser(form, n, defect, seed):
    rng = np.random.default_rng(seed)
    doc = random_document(form, n, rng)
    slots = _grid_lists(doc)
    if defect in LEAF_DEFECTS:
        slots = [(c, k) for c, k in slots if not isinstance(c[k][0], list)]
    container, key = slots[int(rng.integers(len(slots)))]
    node = container[key]
    i = int(rng.integers(len(node)))
    if defect == "short":
        del node[i]
    elif defect == "long":  # a 3-element pair, a row or matrix too many
        node.insert(i, copy.deepcopy(node[int(rng.integers(len(node)))]))
    elif defect == "tuple list":
        container[key] = tuple(node)
    else:
        node[i] = LEAF_DEFECTS[defect](node[i])

    new = _outcome(doc)
    with per_entry_number_parsing():
        ref = _outcome(doc)
    assert type(new) is type(ref)
    if isinstance(ref, Exception):
        assert str(new) == str(ref)
        return
    assert serialize_scenario(new) == serialize_scenario(ref)
    xs, ys = scenario_arrays(new), scenario_arrays(ref)
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        # bit for bit, so the signs of zeros too
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert x.flags.c_contiguous and not x.flags.writeable and not y.flags.writeable


def test_valid_documents_skip_the_per_entry_loop(monkeypatch):
    require_number = conesim.scenario._require_number
    check_stochastic = conesim.scenario.as_stochastic_matrix

    def per_entry(value, path):
        if "[" in path:
            raise AssertionError(f"{path} was checked on its own")
        return require_number(value, path)

    checks = []

    def stochastic(A, ndim=2):
        checks.append(np.shape(A))
        return check_stochastic(A, ndim)

    monkeypatch.setattr(conesim.scenario, "_require_number", per_entry)
    monkeypatch.setattr(conesim.scenario, "_walk_grid", None)
    monkeypatch.setattr(conesim.scenario, "as_stochastic_matrix", stochastic)
    rng = np.random.default_rng(5)
    for form in FORMS:
        for n in (1, 4):
            checks.clear()
            s = parse_scenario(random_document(form, n, rng))
            # a stack is checked at once, never one matrix at a time
            if isinstance(s.dynamics, np.ndarray):
                assert checks == [s.dynamics.shape]


def test_numpy_scalars_in_a_dict_document_parse():
    doc = copy.deepcopy(EMISSION_SCENARIO)
    doc["initial_state"][0][0] = [np.float64(0.75), 0.0]
    doc["expected_limit"] = [[[np.float64(1.0), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    s = parse_scenario(doc)
    assert s.initial_state[0, 0] == 0.75 and s.expected_limit[0, 0] == 1.0
    doc = dict(MINIMAL_CLASSICAL, initial_state=[np.float64(0.5), 1])
    doc["dynamics"] = {"matrix": [[np.float64(0.5), 0.5], [0.0, 1.0]]}
    s = parse_scenario(doc)
    assert s.initial_state.tolist() == [0.5, 1.0]
    assert s.dynamics.tolist() == [[0.5, 0.5], [0.0, 1.0]]


def test_negative_zero_keeps_its_sign():
    doc = dict(MINIMAL_CLASSICAL, initial_state=[-0.0, 1.0])
    doc["dynamics"] = {"matrix": [[1.0, -0.0], [-0.0, 1]]}
    s = parse_scenario(json.dumps(doc))
    assert np.signbit(s.initial_state).tolist() == [True, False]
    assert np.signbit(s.dynamics).tolist() == [[False, True], [True, False]]
    doc = copy.deepcopy(EMISSION_SCENARIO)
    doc["initial_state"] = [[[1.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0.0, 0.0]]]
    s = parse_scenario(json.dumps(doc))
    assert np.signbit(s.initial_state.real).tolist() == [[False, True], [True, False]]
    assert np.signbit(s.initial_state.imag).tolist() == [[True, False], [True, False]]
