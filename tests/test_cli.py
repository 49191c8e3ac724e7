import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import conesim.channels
import conesim.runner
from conesim import TerminalStatus, builtin_example, parse_scenario, run_scenario
from conesim.cli import main
from conesim.scenario import (
    complex_array_from_pairs,
    pairs_from_complex_array,
    scenario_to_jsonable,
)
from helpers import assert_same_scenario, periodic_channel

IDENTITY_SCENARIO = {
    "kind": "classical",
    "dimension": 2,
    "dynamics": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    "initial_state": [0.0, 1.0],
    "stop": {"tolerance": 1e-10, "max_iterations": 50},
}


def _reject_constant(name):
    raise ValueError(f"summary holds the non-standard JSON constant {name}")


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestUsage:
    # exit code 2 means "budget exhausted", so a bad command line exits 1
    @pytest.mark.parametrize(
        "argv",
        [["bogus"], ["run"], ["run", "x.json", "--max-iters-override", "abc"]],
        ids=["unknown_command", "missing_scenario", "non_integer_override"],
    )
    def test_usage_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage: conesim" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: conesim" in capsys.readouterr().out


class TestExamplesCommand:
    def test_list_names_all_builtins(self, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("example1", "example2", "example3"):
            assert name in out

    def test_emit_produces_parseable_scenario(self, capsys):
        assert main(["examples", "emit", "example1"]) == 0
        emitted = capsys.readouterr().out
        assert_same_scenario(parse_scenario(emitted), builtin_example("example1"))

    def test_emit_unknown_name_fails(self, capsys):
        assert main(["examples", "emit", "example9"]) == 1
        assert "unknown example" in capsys.readouterr().err

    def test_emit_without_name_fails(self, capsys):
        assert main(["examples", "emit"]) == 1


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path, IDENTITY_SCENARIO)
        assert main(["validate", str(path)]) == 0
        assert "valid scenario" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        doc = dict(IDENTITY_SCENARIO, dynamics={"matrix": [[1.0, 0.0], [0.4, 0.5]]})
        path = write_scenario(tmp_path, doc)
        assert main(["validate", str(path)]) == 1
        assert "row 1 sums to" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/path.json"]) == 1


class TestRunCommand:
    def test_converged_scenario_exits_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, json.loads(open_example("example1")))
        code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=converged" in out
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_periodic_degenerate_channel_with_its_fixed_point_exits_zero(self, tmp_path):
        # a channel whose run from I/4 never settles; from this state it is
        # fixed after one step, and the fixed point is the average of that run
        doc = {
            "kind": "quantum_channel",
            "dimension": 4,
            "dynamics": {"kraus_operators": pairs_from_complex_array(periodic_channel().operators)},
            "initial_state": pairs_from_complex_array(np.diag([0.2, 0.4, 0.2, 0.2]) + 0j),
            "stop": {"tolerance": 1e-12, "max_iterations": 50},
            "analysis": {"fixed_point": True},
        }
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        fixed = summary["fixed_point"]
        assert (fixed["unique"], fixed["eigenvalue_one_multiplicity"]) == (False, 2)
        density = complex_array_from_pairs(fixed["matrix"])
        assert np.abs(density - np.diag([0.0, 0.375, 0.375, 0.25])).max() <= 1e-15

    def test_non_converged_scenario_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, IDENTITY_SCENARIO)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["classical", "quantum_dual"])
    def test_infinite_values_are_spelled_plus_inf_in_strict_json(self, tmp_path, kind):
        # the spread and the distance to the limit overflow to inf
        big = np.finfo(float).max
        doc = dict(
            IDENTITY_SCENARIO,
            kind=kind,
            initial_state=[big, -big],
            expected_limit=[-big, big],
            stop={"tolerance": 1e-10, "max_iterations": 5},
        )
        if kind == "quantum_dual":
            doc["dynamics"] = {"kraus_operators": [pairs_from_complex_array(np.eye(2) + 0j)]}
            for key in ("initial_state", "expected_limit"):
                doc[key] = pairs_from_complex_array(np.diag(doc[key]) + 0j)
        path = write_scenario(tmp_path, doc)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        summary = json.loads(
            (tmp_path / "out" / "summary.json").read_text(), parse_constant=_reject_constant
        )
        assert summary["expected_limit_distance_final"] == "+inf"
        # the dual's states are not positive definite: no Lyapunov value
        assert summary["final_lyapunov"] == ("+inf" if kind == "classical" else None)

    @pytest.mark.parametrize(
        "kind, sources",
        [("classical", {"cones.py", "classical.py"}), ("quantum_dual", {"channels.py"})],
    )
    def test_an_overflow_warns_only_where_its_columns_are_measured(self, tmp_path, kind, sources):
        # the run loop's level, lambda_max - lambda_min, repeats the spread
        big = np.finfo(float).max
        doc = dict(IDENTITY_SCENARIO, kind=kind, initial_state=[big, -big])
        doc["expected_limit"] = [-big, big]
        if kind == "quantum_dual":
            doc["dynamics"] = {"kraus_operators": [pairs_from_complex_array(np.eye(2) + 0j)]}
            for key in ("initial_state", "expected_limit"):
                doc[key] = pairs_from_complex_array(np.diag(doc[key]) + 0j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_scenario(parse_scenario(doc), out_dir=tmp_path)
        assert result.exit_code == 2
        raised_in = {Path(w.filename).parts[-2:] for w in caught}
        assert ("conesim", "trace.py") not in raised_in
        assert raised_in == {("conesim", name) for name in sources}

    def test_other_non_finite_summary_value_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(conesim.runner, "contraction_ratio", lambda d: float("nan"))
        # a positive matrix, whose diameter is finite and whose factor is NaN
        doc = dict(
            IDENTITY_SCENARIO,
            dynamics={"matrix": [[0.75, 0.25], [0.25, 0.75]]},
            analysis={"compute_diameter": True},
        )
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        doc = dict(IDENTITY_SCENARIO, dynamics={"matrix": [[1.0, 0.0], [0.4, 0.5]]})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1

    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["run", str(path)]) == 1

    def test_max_iters_override(self, tmp_path):
        doc = json.loads(open_example("example1"))
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out-dir", str(tmp_path), "--max-iters-override", "3"]) == 2

    def test_negative_seed_override_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, json.loads(open_example("example2")))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out), "--seed-override", "-3"]) == 1
        assert "seed_override must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_max_iters_override_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, json.loads(open_example("example2")))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out), "--max-iters-override", "0"]) == 1
        assert "max_iters_override must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_sampling(self, tmp_path):
        doc = json.loads(open_example("example2"))
        path = write_scenario(tmp_path, doc)
        for seed, sub in ((1, "a"), (2, "b")):
            assert (
                main(
                    [
                        "run",
                        str(path),
                        "--out-dir",
                        str(tmp_path / sub),
                        "--seed-override",
                        str(seed),
                    ]
                )
                == 0
            )
        sa = json.loads((tmp_path / "a" / "summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert sa["image_radius"]["seed"] == 1 and sb["image_radius"]["seed"] == 2
        assert sa["image_radius"]["lower"] != sb["image_radius"]["lower"]


def open_example(name):
    from conesim import serialize_scenario

    return serialize_scenario(builtin_example(name))


class TestRunnerArtifacts:
    def test_trace_csv_format(self, tmp_path):
        result = run_scenario(builtin_example("example1"), out_dir=tmp_path)
        lines = result.trace_path.read_text().splitlines()
        assert lines[0] == "t,lyapunov,lambda_min,lambda_max,dist_to_limit"
        assert lines[1].startswith("0,1,1,2,1")
        assert len(lines) == result.summary["iterations"] + 2

    def test_example1_summary_contents(self, tmp_path):
        result = run_scenario(builtin_example("example1"), out_dir=tmp_path)
        s = result.summary
        assert s["status"] == "converged"
        assert s["iterations"] <= 100
        assert max(abs(v - 1.0) for v in s["final_state"]) < 1e-8
        assert all(w["value"] == "+inf" for w in s["diameter"]["windows"])
        assert len(s["diameter"]["windows"]) == 10
        assert s["diameter"]["certified_contraction_factor"] is None
        assert s["expected_limit_distance_final"] < 1e-8

    def test_example2_summary_contents(self, tmp_path):
        result = run_scenario(builtin_example("example2"), out_dir=tmp_path)
        s = result.summary
        assert s["status"] == "converged"
        assert s["spin_rotation_special_cases"] == []
        assert isinstance(s["image_radius"]["lower"], float)
        assert s["image_radius"]["contraction_factor"] < 1.0
        assert s["fixed_point"]["unique"] is True
        assert s["fixed_point"]["residual"] <= 1e-10
        assert s["fixed_point"]["hypothesis_certified"] is True
        assert s["duality"]["ok"] is True
        fp = np.asarray(s["fixed_point"]["matrix"])
        np.testing.assert_allclose(fp[..., 0], np.eye(2) / 2, atol=1e-9)

    def test_negative_seed_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^seed_override must be >= 0, got -3$"):
            run_scenario(builtin_example("example2"), tmp_path / "out", seed_override=-3)
        assert not (tmp_path / "out").exists()

    def test_zero_max_iters_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^max_iters_override must be >= 1, got 0$"):
            run_scenario(builtin_example("example1"), tmp_path / "out", max_iters_override=0)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["seed_override", "max_iters_override"])
    @pytest.mark.parametrize("value", [True, 1.5], ids=["bool", "float"])
    def test_non_integer_override_rejected(self, tmp_path, name, value):
        message = f"^{name} must be an integer, got {value!r}$"
        with pytest.raises(TypeError, match=message):
            run_scenario(builtin_example("example2"), tmp_path / "out", **{name: value})
        assert not (tmp_path / "out").exists()

    def test_channel_without_limit_is_measured_against_its_fixed_point(self, tmp_path):
        doc = scenario_to_jsonable(builtin_example("example2"))
        del doc["expected_limit"]
        s = run_scenario(parse_scenario(doc), tmp_path).summary
        final = complex_array_from_pairs(s["final_state"])
        fixed = complex_array_from_pairs(s["fixed_point"]["matrix"])
        assert s["expected_limit_distance_final"] == np.linalg.norm(final - fixed)

    def test_example2_estimates_image_radius_once(self, tmp_path, monkeypatch):
        calls = []
        original = conesim.channels.estimate_image_radius

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(conesim.runner, "estimate_image_radius", counting)
        monkeypatch.setattr(conesim.channels, "estimate_image_radius", counting)
        s = run_scenario(builtin_example("example2"), out_dir=tmp_path).summary
        assert len(calls) == 1
        assert s["fixed_point"]["hypothesis_certified"] == (s["image_radius"]["upper"] != "+inf")

    def test_example3_summary_contents(self, tmp_path):
        result = run_scenario(builtin_example("example3"), out_dir=tmp_path)
        s = result.summary
        assert s["status"] == "converged"
        assert s["image_radius"]["lower"] == "+inf"
        assert s["image_radius"]["upper"] == "+inf"
        assert s["image_radius"]["contraction_factor"] == 1.0
        assert s["fixed_point"]["hypothesis_certified"] is False
        fp = np.asarray(s["fixed_point"]["matrix"])
        np.testing.assert_allclose(fp[..., 0], np.diag([1.0, 0.0]), atol=1e-9)
        assert s["duality"]["ok"] is True

    def test_determinism_byte_identical_traces(self, tmp_path):
        for name in ("example1", "example2", "example3"):
            s = builtin_example(name)
            r1 = run_scenario(s, out_dir=tmp_path / name / "r1")
            r2 = run_scenario(s, out_dir=tmp_path / name / "r2")
            assert r1.trace_path.read_bytes() == r2.trace_path.read_bytes()
            assert r1.summary_path.read_bytes() == r2.summary_path.read_bytes()

    def test_incomplete_sequence_maps_to_exit_two(self, tmp_path):
        doc = {
            "kind": "classical",
            "dimension": 2,
            "dynamics": {"matrices": [[[1.0, 0.0], [0.0, 1.0]]] * 2},
            "initial_state": [0.0, 1.0],
        }
        result = run_scenario(parse_scenario(doc), out_dir=tmp_path)
        assert result.status is TerminalStatus.INCOMPLETE_SEQUENCE
        assert result.exit_code == 2

    def test_embedded_scenario_runs(self, tmp_path):
        doc = {
            "kind": "embedded",
            "dimension": 2,
            "dynamics": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
            "initial_state": [0.0, 1.0],
            "stop": {"tolerance": 1e-10, "max_iterations": 500},
            "analysis": {"compute_diameter": True, "diameter_powers": 2, "fixed_point": True},
        }
        result = run_scenario(parse_scenario(doc), out_dir=tmp_path)
        assert result.status is TerminalStatus.CONVERGED
        final = np.asarray(result.summary["final_state"])
        np.testing.assert_allclose(final[..., 0], np.eye(2) / 2, atol=1e-9)
        windows = result.summary["diameter"]["windows"]
        assert all(isinstance(w["value"], float) for w in windows)
        assert result.summary["diameter"]["first_finite_k"] == 1
        assert 0.0 < result.summary["certified_contraction_factor"] < 1.0
        # a fixed point without an image-radius estimate is left undecided
        assert result.summary["fixed_point"]["hypothesis_certified"] is None

    def test_infinite_image_radius_leaves_the_diameter_factor(self, tmp_path):
        # A has a zero in every column, so a basis probe maps to a singular
        # image; A^2 is positive and gives the run its factor
        doc = {
            "kind": "embedded",
            "dimension": 3,
            "dynamics": {"matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]},
            "initial_state": [0.0, 1.0, 2.0],
            "stop": {"tolerance": 1e-10, "max_iterations": 500},
            "analysis": {
                "compute_diameter": True,
                "diameter_powers": 2,
                "fixed_point": True,
                "estimate_image_radius": {"samples": 50, "seed": 3, "power": 1},
            },
        }
        s = run_scenario(parse_scenario(doc), out_dir=tmp_path).summary
        assert s["image_radius"]["upper"] == "+inf"
        assert s["image_radius"]["contraction_factor"] == 1.0
        assert s["fixed_point"]["hypothesis_certified"] is False
        assert s["diameter"]["first_finite_k"] == 2
        assert s["diameter"]["certified_contraction_factor"] == pytest.approx(1.0 / 3.0)
        assert s["certified_contraction_factor"] == s["diameter"]["certified_contraction_factor"]

    # everyone copies agent 0: A^T has a zero row, so it maps the open
    # orthant onto its boundary and no window of its powers certifies
    COPY_AGENT_0 = [[1.0, 0.0], [1.0, 0.0]]
    UNIFORM = [[0.5, 0.5], [0.5, 0.5]]

    @pytest.mark.parametrize("via_cli", [False, True])
    def test_a_zero_row_window_reads_plus_inf(self, tmp_path, via_cli):
        doc = {
            "kind": "classical_dual",
            "dimension": 2,
            "dynamics": {"matrix": self.COPY_AGENT_0},
            "initial_state": [0.3, 0.7],
            "analysis": {"compute_diameter": True, "diameter_powers": 3},
        }
        summary = self._run(tmp_path, doc, via_cli, exit_code=0)
        assert summary["status"] == "converged"
        assert [w["value"] for w in summary["diameter"]["windows"]] == ["+inf"] * 3
        assert summary["diameter"]["first_finite_k"] is None
        assert summary["diameter"]["certified_contraction_factor"] is None
        assert summary["certified_contraction_factor"] is None

    @pytest.mark.parametrize("via_cli", [False, True])
    def test_windows_after_a_zero_row_window_go_on(self, tmp_path, via_cli):
        # the second product has a zero row, the third is positive again
        doc = {
            "kind": "classical_dual",
            "dimension": 2,
            "dynamics": {"matrices": [self.UNIFORM, self.COPY_AGENT_0, self.UNIFORM]},
            "initial_state": [0.3, 0.7],
            "analysis": {"compute_diameter": True, "diameter_powers": 3},
        }
        summary = self._run(tmp_path, doc, via_cli, exit_code=2)
        assert summary["status"] == "incomplete_sequence"
        assert [w["value"] for w in summary["diameter"]["windows"]] == [0.0, "+inf", 0.0]
        assert summary["diameter"]["first_finite_k"] == 1
        assert summary["certified_contraction_factor"] == 0.0

    @staticmethod
    def _run(tmp_path, doc, via_cli, exit_code):
        out = tmp_path / "out"
        if via_cli:
            path = write_scenario(tmp_path, doc)
            assert main(["validate", str(path)]) == 0
            assert main(["run", str(path), "--out-dir", str(out)]) == exit_code
        else:
            assert run_scenario(parse_scenario(doc), out_dir=out).exit_code == exit_code
        return json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)

    def test_classical_dual_scenario_runs(self, tmp_path):
        doc = {
            "kind": "classical_dual",
            "dimension": 2,
            "dynamics": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
            "initial_state": [1.0, 0.0],
            "stop": {"tolerance": 1e-12, "max_iterations": 500},
        }
        result = run_scenario(parse_scenario(doc), out_dir=tmp_path)
        assert result.status is TerminalStatus.CONVERGED
        np.testing.assert_allclose(result.summary["final_state"], [0.5, 0.5], atol=1e-10)

    # one document per kind, each with every analysis its kind allows
    SUMMARY_DOCS = {
        "classical": {"matrix": [[0.3, 0.7], [0.6, 0.4]]},
        "classical_dual": {"matrix": [[0.3, 0.7], [0.6, 0.4]]},
        "embedded": {"matrix": [[0.3, 0.7], [0.6, 0.4]]},
        "quantum_dual": {
            "builder": {
                "name": "spin_rotation", "alpha_over_pi": "1/4", "beta_over_pi": "1/3", "p": 0.5
            }
        },
        "quantum_channel": {"builder": {"name": "spontaneous_emission", "gamma": 0.2}},
    }
    KRAUS_ANALYSES = {
        "estimate_image_radius": {"samples": 50, "power": 2},
        "fixed_point": True,
        "duality_check": True,
        "duality_steps": 20,
    }
    BLOCK_KEYS = {
        "stopping": {"tolerance", "max_iterations"},
        "diameter": {"windows", "first_finite_k", "certified_contraction_factor"},
        "image_radius": {
            "lower", "upper", "contraction_factor", "samples", "seed", "power", "samples_drawn",
            "witness",
        },
        "fixed_point": {
            "matrix", "residual", "unique", "eigenvalue_one_multiplicity", "hypothesis_certified"
        },
        "duality": {
            "steps", "max_pairing_error", "ok", "final_pairing_value", "limit_value",
            "limit_error",
        },
    }

    def test_summary_keys_of_every_kind_are_pinned(self, tmp_path):
        common = {
            "kind", "dimension", "stopping", "status", "iterations", "final_lyapunov",
            "certified_contraction_factor", "expected_limit_distance_final", "final_state",
        }
        blocks = {
            "classical": {"diameter"},
            "classical_dual": {"diameter"},
            "embedded": {"diameter", "image_radius", "fixed_point", "duality"},
            "quantum_dual": {
                "image_radius", "fixed_point", "duality", "spin_rotation_special_cases"
            },
            "quantum_channel": {"image_radius", "fixed_point", "duality"},
        }
        summaries = {}
        for kind, dynamics in self.SUMMARY_DOCS.items():
            doc = {"kind": kind, "dimension": 2, "dynamics": dynamics}
            if kind in ("classical", "classical_dual", "embedded"):
                doc["initial_state"] = [0.2, 0.9]
                doc["analysis"] = {"compute_diameter": True, "diameter_powers": 2}
            else:
                doc["initial_state"] = [[[0.5, 0.0], [0.1, 0.0]], [[0.1, 0.0], [0.5, 0.0]]]
            if kind not in ("classical", "classical_dual"):
                doc["analysis"] = {**doc.get("analysis", {}), **self.KRAUS_ANALYSES}
            out = tmp_path / kind
            run_scenario(parse_scenario(doc), out_dir=out)
            s = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
            assert set(s) == common | blocks[kind], kind
            for name in set(s) & set(self.BLOCK_KEYS):
                assert set(s[name]) == self.BLOCK_KEYS[name], (kind, name)
            assert all(set(w) == {"k", "value"} for w in s.get("diameter", {}).get("windows", []))
            summaries[kind] = s
        # on `embedded` a finite image-radius bracket gives the run its factor,
        # ahead of the first finite diameter window's
        s = summaries["embedded"]
        assert s["image_radius"]["upper"] < math.inf
        assert s["fixed_point"]["hypothesis_certified"] is True
        assert s["certified_contraction_factor"] == s["image_radius"]["contraction_factor"]
        assert s["certified_contraction_factor"] == pytest.approx(0.96974, abs=1e-5)
        assert s["diameter"]["first_finite_k"] == 1
        assert s["diameter"]["certified_contraction_factor"] == pytest.approx(0.30334, abs=1e-5)

    # sqrt(0.7 s) and sqrt(0.3 s), s = 1 + 0.9e-10: a Kraus sum off by 0.9e-10
    NEAR_TOLERANCE_OPERATORS = [
        [[[0.8366600265717252, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8366600265717252, 0.0]]],
        [[[0.0, 0.0], [-0.5477225575298136, 0.0]], [[0.5477225575298136, 0.0], [0.0, 0.0]]],
    ]

    def test_a_power_near_the_kraus_tolerance_validates_and_runs(self, tmp_path, capsys):
        doc = {
            "kind": "quantum_dual",
            "dimension": 2,
            "dynamics": {"kraus_operators": self.NEAR_TOLERANCE_OPERATORS},
            "initial_state": [[[2.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]],
            "analysis": {"estimate_image_radius": {"samples": 50, "power": 2}},
        }
        path = write_scenario(tmp_path, doc)
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        s = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert s["status"] == "converged" and s["image_radius"]["power"] == 2
        # the square's four products, off by 1.8e-10, are refused as a document
        ops = complex_array_from_pairs(self.NEAR_TOLERANCE_OPERATORS)
        products = (ops[:, None] @ ops[None]).reshape(4, 2, 2)
        doc["dynamics"] = {"kraus_operators": pairs_from_complex_array(products)}
        path = write_scenario(tmp_path, doc, "products.json")
        capsys.readouterr()
        assert main(["validate", str(path)]) == 1
        assert "sum V*V deviates from identity by 1.800e-10" in capsys.readouterr().err
