"""The one reader of scenario blocks against the hand-written readers it
replaced, and the number checks that ride with it.

`stop`, `analysis` (with `estimate_image_radius`), the builders and `output`
are drawn valid, then given zero, one or two defects: a missing, unknown or
`null` field, a bool where an int belongs (an int for a bool), a value of
the wrong type, a value out of bounds, or a `null` block. A valid document
must parse to the scenario the references give; a document with one defect
must be rejected with the reference's message, and one with two defects
with the message the reference gives for one of them alone. The unknown key
is always `bogus`: two unknown keys are named together, as by the reference.
"""
import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import ScenarioError, builtin_example, parse_scenario, scenario_to_jsonable
from helpers import (
    assert_same_scenario,
    reference_parse_analysis,
    reference_parse_builder,
    reference_parse_output,
    reference_parse_stop,
)

IDENTITY_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
BASE = {
    "stop": {"kind": "classical", "dynamics": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
    "output": {"kind": "classical", "dynamics": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
    # `embedded` admits every analysis
    "analysis": {"kind": "embedded", "dynamics": {"matrix": [[0.5, 0.5], [0.5, 0.5]]}},
    "builder": {"kind": "quantum_dual", "initial_state": IDENTITY_2},
}

# field -> (valid values, out-of-bound values)
STOP = {
    "tolerance": ([0, 1e-9, 0.5, 3], [-1, -1e-300]),
    "max_iterations": ([1, 7, 10**5], [0, -3]),
}
ANALYSIS = {
    "compute_diameter": ([True, False], []),
    "diameter_powers": ([1, 3], [0, -1]),
    "fixed_point": ([True, False], []),
    "duality_check": ([True, False], []),
    "duality_steps": ([1, 20], [0]),
}
ESTIMATE = {"samples": ([1, 50], [0, -2]), "seed": ([0, 9], [-1]), "power": ([1, 3], [0])}
SPIN = {
    "name": (["spin_rotation"], ["dephasing"]),
    "alpha_over_pi": (["7/32", 0.5, 1, "-3/4"], ["1e400"]),
    "beta_over_pi": (["11/32", 0.25, -2], ["-1e400"]),
    "p": ([0.3, 0.99], [0, 1, 1.5, -0.2]),
}
EMISSION = {"name": (["spontaneous_emission"], ["spin"]), "gamma": ([0.2, 0.5], [0.0, 1.0, -1])}
OUTPUT = {
    "trace_csv": (["trace.csv", "runs/t.csv"], ["", ".", "../x.csv", "/abs.csv"]),
    "summary": (["summary.json", "s.json"], ["", "a/../../b", "/s.json"]),
}
REQUIRED = {"samples", "name", "alpha_over_pi", "beta_over_pi", "p", "gamma"}
DEFECTS = (
    "missing", "unknown", "null", "bool_for_int", "wrong_type", "out_of_bound", "null_block"
)


@st.composite
def valid_block(draw, spec):
    block = {}
    for name, (valid, _) in spec.items():
        if name in REQUIRED or draw(st.booleans()):
            block[name] = draw(st.sampled_from(valid))
    return block


@st.composite
def defect(draw, spec):
    """(path within the block, operation): a key is deleted, or set; the
    empty path is the block itself."""
    kind = draw(st.sampled_from(DEFECTS))
    if kind == "null_block":
        return (), ("set", None)
    if kind == "unknown":
        return ("bogus",), ("set", 1)
    if kind == "out_of_bound":
        candidates = [name for name, (_, bad) in spec.items() if bad]
        name = draw(st.sampled_from(candidates))
        return (name,), ("set", draw(st.sampled_from(spec[name][1])))
    name = draw(st.sampled_from(list(spec)))
    valid = spec[name][0][0]
    if kind == "missing":
        return (name,), ("delete", None)
    if kind == "null":
        return (name,), ("set", None)
    if kind == "bool_for_int":
        return (name,), ("set", 1 if isinstance(valid, bool) else True)
    return (name,), ("set", 5 if name in OUTPUT else "x")


def _apply(block, defects, prefix=()):
    """A copy of `block` with `defects` applied in order; a defect inside a
    block that an earlier one made null is dropped."""
    root = {"block": copy.deepcopy(block)}
    for path, (op, value) in defects:
        *outer, key = ("block",) + prefix + path
        target = root
        for k in outer:
            target = target[k]
            if target is None:
                break
        else:
            if op == "delete":
                target.pop(key, None)
            else:
                target[key] = value
    return root["block"]


@st.composite
def case(draw):
    """(block name, valid block, defects, estimate prefix or ())."""
    name = draw(st.sampled_from(["stop", "analysis", "estimate", "builder", "output"]))
    prefix = ()
    if name == "estimate":
        block = draw(valid_block(ANALYSIS))
        block["estimate_image_radius"] = draw(valid_block(ESTIMATE))
        spec, prefix, name = ESTIMATE, ("estimate_image_radius",), "analysis"
    elif name == "builder":
        spec = draw(st.sampled_from([SPIN, EMISSION]))
        block = draw(valid_block(spec))
    else:
        spec = {"stop": STOP, "analysis": ANALYSIS, "output": OUTPUT}[name]
        block = draw(valid_block(spec))
        if name == "analysis" and draw(st.booleans()):
            block["estimate_image_radius"] = draw(st.one_of(st.none(), valid_block(ESTIMATE)))
    defects = draw(st.lists(defect(spec), max_size=2))
    return name, block, defects, prefix


def _document(name, block):
    doc = {"dimension": 2, "initial_state": [0.0, 1.0], **BASE[name]}
    if name == "builder":
        doc["dynamics"] = {"builder": block}
    else:
        doc[name] = block
    return doc


def _reference(name, block):
    """The reference reader's value for the block, or its exception."""
    try:
        if name == "stop":
            return reference_parse_stop(block)
        if name == "analysis":
            return reference_parse_analysis(block, "embedded")
        if name == "builder":
            return reference_parse_builder({"builder": block}, 2)
        return reference_parse_output(block)
    except ScenarioError as exc:
        return exc


def _replaced(scenario, name, value):
    if name == "builder":
        return dataclasses.replace(scenario, dynamics=value[0], builder=value[1])
    if name == "output":
        return dataclasses.replace(scenario, trace_csv=value[0], summary_path=value[1])
    return dataclasses.replace(scenario, **{name: value})


@given(case())
@settings(deadline=None, max_examples=400)
def test_block_reader_matches_the_hand_written_readers(drawn):
    name, block, defects, prefix = drawn
    broken = _apply(block, defects, prefix)
    ref = _reference(name, broken)
    try:
        new = parse_scenario(_document(name, broken))
    except ScenarioError as exc:
        assert isinstance(ref, ScenarioError), f"{exc} where the reference accepts"
        if len(defects) < 2:
            assert str(exc) == str(ref)
        else:
            alone = [_reference(name, _apply(block, [d], prefix)) for d in defects]
            assert str(exc) in {str(e) for e in alone if isinstance(e, ScenarioError)}
        return
    assert not isinstance(ref, ScenarioError), f"accepted where the reference raises {ref}"
    assert_same_scenario(new, _replaced(new, name, ref))


@pytest.mark.parametrize("kind", ["quantum_dual", "embedded"])
def test_non_hermitian_expected_limit_is_rejected(kind):
    # unchecked, the runner measured the distance to the limit's Hermitian
    # part, [[1, 2.5], [2.5, 1]], a matrix the document never gave
    doc = scenario_to_jsonable(builtin_example("example3"))
    doc["expected_limit"] = [[[1.0, 0.0], [5.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    if kind == "embedded":
        doc.update(kind=kind, dynamics={"matrix": [[0.5, 0.5], [0.5, 0.5]]})
        doc["initial_state"] = [0.0, 1.0]
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.dumps(doc))
    assert str(info.value) == "expected_limit: not Hermitian: max |X - X*| = 5.000e+00"
