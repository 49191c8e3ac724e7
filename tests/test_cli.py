import json

import numpy as np
import pytest

import conesim.channels
import conesim.runner
from conesim import TerminalStatus, builtin_example, parse_scenario, run_scenario
from conesim.cli import main
from helpers import assert_same_scenario

IDENTITY_SCENARIO = {
    "kind": "classical",
    "dimension": 2,
    "dynamics": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    "initial_state": [0.0, 1.0],
    "stop": {"tolerance": 1e-10, "max_iterations": 50},
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


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

    def test_non_converged_scenario_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, IDENTITY_SCENARIO)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2

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
