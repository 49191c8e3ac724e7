"""Whole scenario documents: the built-in examples as emitted, and edge
documents (degenerate sizes and maps) as parsed and run."""
import math
from pathlib import Path

import numpy as np
import pytest

from conesim import BUILTIN_EXAMPLES, parse_scenario, run_scenario
from conesim.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_emitted_examples_are_pinned_byte_for_byte(name, capsys):
    # the files hold `conesim examples emit` output as first pinned, so a
    # writer change that parses back to itself still shows here
    assert cli_main(["examples", "emit", name]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()


def _pairs(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


INF = "+inf"
EDGE_DOCUMENTS = {
    "orthant_n1": (
        {
            "kind": "classical",
            "dimension": 1,
            "dynamics": {"matrix": [[1.0]]},
            "initial_state": [3.0],
            "analysis": {"compute_diameter": True, "diameter_powers": 2},
        },
        {"status": "converged", "iterations": 0, "certified_contraction_factor": 0.0},
        {"diameter": [0.0, 0.0]},
    ),
    "pd_cone_n1": (
        {
            "kind": "quantum_dual",
            "dimension": 1,
            "dynamics": {"kraus_operators": [_pairs([[1.0]])]},
            "initial_state": _pairs([[2.0]]),
            "analysis": {
                "estimate_image_radius": {"samples": 10},
                "fixed_point": True,
                "duality_check": True,
            },
        },
        {"status": "converged", "iterations": 0, "certified_contraction_factor": 0.0},
        {"image_radius": [0.0, 0.0], "fixed_point": [True, 1, True]},
    ),
    "periodic_2x2": (
        {
            "kind": "classical",
            "dimension": 2,
            "dynamics": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
            "initial_state": [1.0, 2.0],
            "stop": {"max_iterations": 50},
            "analysis": {"compute_diameter": True, "diameter_powers": 3},
        },
        {"status": "max_iters", "iterations": 50, "certified_contraction_factor": None},
        {"diameter": [INF, INF, INF]},
    ),
    "zero_column": (
        {
            "kind": "classical",
            "dimension": 2,
            "dynamics": {"matrix": [[1.0, 0.0], [1.0, 0.0]]},
            "initial_state": [1.0, 2.0],
            "analysis": {"compute_diameter": True, "diameter_powers": 2},
        },
        {"status": "converged", "iterations": 1, "certified_contraction_factor": 0.0},
        {"diameter": [0.0, 0.0]},
    ),
    "identity_dual": (
        {
            "kind": "quantum_dual",
            "dimension": 2,
            "dynamics": {"kraus_operators": [_pairs(np.eye(2))]},
            "initial_state": _pairs(np.diag([1.0, 2.0])),
            "stop": {"max_iterations": 50},
            "analysis": {"estimate_image_radius": {"samples": 100}, "fixed_point": True},
        },
        {"status": "max_iters", "iterations": 50, "certified_contraction_factor": None},
        {"image_radius": [INF, INF], "fixed_point": [False, 4, False]},
    ),
    "dephasing_dual": (
        {
            "kind": "quantum_dual",
            "dimension": 2,
            "dynamics": {
                "kraus_operators": [
                    _pairs(math.sqrt(0.7) * np.eye(2)),
                    _pairs(math.sqrt(0.3) * np.diag([1.0, -1.0])),
                ]
            },
            "initial_state": _pairs([[2.0, 0.5], [0.5, 1.0]]),
            "stop": {"max_iterations": 50},
            "analysis": {"estimate_image_radius": {"samples": 100}, "fixed_point": True},
        },
        {"status": "max_iters", "iterations": 50, "certified_contraction_factor": None},
        {"image_radius": [INF, INF], "fixed_point": [False, 2, False]},
    ),
    # the emission map unrotated; rotated by a unitary it is still reported
    # finite (a sampled radius), which is not pinned here
    "emission_channel": (
        {
            "kind": "quantum_channel",
            "dimension": 2,
            "dynamics": {"builder": {"name": "spontaneous_emission", "gamma": 0.5}},
            "initial_state": _pairs([[0.25, 0.0], [0.0, 0.75]]),
            "analysis": {
                "estimate_image_radius": {"samples": 100, "power": 2},
                "fixed_point": True,
            },
        },
        {"status": "converged", "iterations": 77, "certified_contraction_factor": None},
        {"image_radius": [INF, INF], "fixed_point": [True, 1, False]},
    ),
}


@pytest.mark.parametrize(
    "doc, expected, certificate", EDGE_DOCUMENTS.values(), ids=EDGE_DOCUMENTS
)
def test_edge_documents_run_as_pinned(doc, expected, certificate, tmp_path):
    summary = run_scenario(parse_scenario(doc), out_dir=tmp_path).summary
    assert {key: summary[key] for key in expected} == expected
    found = {}
    if "diameter" in summary:
        found["diameter"] = [w["value"] for w in summary["diameter"]["windows"]]
    if "image_radius" in summary:
        found["image_radius"] = [summary["image_radius"][k] for k in ("lower", "upper")]
    if "fixed_point" in summary:
        fp = summary["fixed_point"]
        found["fixed_point"] = [
            fp[k] for k in ("unique", "eigenvalue_one_multiplicity", "hypothesis_certified")
        ]
    assert found == certificate
