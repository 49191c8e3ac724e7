"""Scenario documents describing one consensus run and its analyses.

A scenario is a JSON object:

    {
      "kind": "classical" | "classical_dual" | "quantum_dual"
              | "quantum_channel" | "embedded",
      "dimension": n,
      "dynamics": exactly one of
          {"matrix": [[...]]}              constant averaging matrix
          {"matrices": [[[...]], ...]}     finite explicit matrix sequence
          {"kraus_operators": [V, ...]}    explicit complex operators
          {"builder": {"name": "spin_rotation",
                       "alpha_over_pi": "7/32", "beta_over_pi": "11/32",
                       "p": 0.3}}
          {"builder": {"name": "spontaneous_emission", "gamma": 0.2}},
      "initial_state": real vector (classical kinds, embedded)
                       or complex matrix (quantum kinds),
      "stop": {"tolerance": 1e-10, "max_iterations": 100000},
      "analysis": {"compute_diameter": false, "diameter_powers": 1,
                   "estimate_image_radius": {"samples": 1000, "seed": 0,
                                             "power": 1},
                   "fixed_point": false,
                   "duality_check": false, "duality_steps": 200},
      "expected_limit": optional known limit, same shape as the state,
      "output": {"trace_csv": "trace.csv", "summary": "summary.json"}
    }

Complex scalars are two-element arrays [re, im]; complex matrices are
row-major nested arrays of such pairs. Rotation angles are exact rational
multiples of pi ("p/q" strings or plain numbers) so that the degenerate
angle configurations can be detected exactly rather than from floats.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import PurePath

import numpy as np

from .channels import (
    DensityMatrix,
    KrausMap,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    spin_rotation_special_cases,
)
from .classical import StochasticMatrix
from .trace import StoppingRule

__all__ = [
    "ScenarioError",
    "Scenario",
    "SpinRotationSpec",
    "SpontaneousEmissionSpec",
    "EstimateSettings",
    "AnalysisFlags",
    "parse_scenario",
    "scenario_to_jsonable",
    "serialize_scenario",
    "builtin_example",
    "BUILTIN_EXAMPLES",
]

KINDS = ("classical", "classical_dual", "quantum_dual", "quantum_channel", "embedded")
CLASSICAL_KINDS = ("classical", "classical_dual")
QUANTUM_KINDS = ("quantum_dual", "quantum_channel")

HERMITIAN_INPUT_TOL = 1e-10


class ScenarioError(ValueError):
    pass


def _err(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise _err(path, f"expected a finite number, got {value!r}")
    return v


def _require_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _err(path, f"must be >= {minimum}, got {value}")
    return value


def _require_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _err(path, f"expected true/false, got {value!r}")
    return value


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise _err(path, f"unknown field(s): {sorted(unknown)}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _require_pair(pair, path: str) -> tuple[float, float]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise _err(path, "complex entries are [re, im] pairs")
    return _require_number(pair[0], f"{path}[0]"), _require_number(pair[1], f"{path}[1]")


def _parse_rows(data, n: int, path: str, entry) -> list:
    """n rows of n entries, each checked by entry(value, path)."""
    if not isinstance(data, list) or len(data) != n:
        raise _err(path, f"expected {n} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise _err(f"{path}[{i}]", f"expected {n} entries")
        rows.append([entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return rows


def _parse_stochastic_matrix(data, n: int, path: str) -> StochasticMatrix:
    try:
        return StochasticMatrix(np.array(_parse_rows(data, n, path, _require_number)))
    except ValueError as exc:
        raise _err(path, str(exc)) from exc


def _parse_real_vector(data, n: int, path: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != n:
        raise _err(path, f"expected a vector of length {n}")
    return _read_only(
        np.array([_require_number(v, f"{path}[{i}]") for i, v in enumerate(data)])
    )


def _parse_complex_matrix(data, n: int, path: str) -> np.ndarray:
    return _read_only(complex_array_from_pairs(_parse_rows(data, n, path, _require_pair)))


def complex_array_from_pairs(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    # assigned, not re + 1j * im, which loses the sign of a -0.0 part
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out


def pairs_from_complex_array(arr: np.ndarray) -> list:
    out = np.stack([arr.real, arr.imag], axis=-1)
    return out.tolist()


def _parse_fraction(value, path: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, bool):
            raise TypeError
        if isinstance(value, (int, float)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        pass
    raise _err(path, f"expected a rational number (e.g. \"7/32\" or 0.5), got {value!r}")


@dataclass(frozen=True)
class SpinRotationSpec:
    alpha_over_pi: Fraction
    beta_over_pi: Fraction
    p: float

    def special_cases(self) -> tuple[str, ...]:
        return spin_rotation_special_cases(self.alpha_over_pi, self.beta_over_pi)

    def to_jsonable(self) -> dict:
        return {
            "name": "spin_rotation",
            "alpha_over_pi": str(self.alpha_over_pi),
            "beta_over_pi": str(self.beta_over_pi),
            "p": self.p,
        }


@dataclass(frozen=True)
class SpontaneousEmissionSpec:
    gamma: float

    def to_jsonable(self) -> dict:
        return {"name": "spontaneous_emission", "gamma": self.gamma}


@dataclass(frozen=True)
class EstimateSettings:
    samples: int
    seed: int = 0
    power: int = 1


@dataclass(frozen=True)
class AnalysisFlags:
    compute_diameter: bool = False
    diameter_powers: int = 1
    estimate_image_radius: EstimateSettings | None = None
    fixed_point: bool = False
    duality_check: bool = False
    duality_steps: int = 200


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario, as `parse_scenario` returns it.

    `dynamics` is a StochasticMatrix for `matrix`, a tuple of them for
    `matrices`, and a KrausMap for `kraus_operators` and both builders;
    `builder` keeps a builder's exact parameters. The states are read-only
    arrays: real vectors for the classical kinds and `embedded`, complex
    matrices otherwise (`expected_limit` of `embedded` is a matrix too).
    """

    kind: str
    dimension: int
    dynamics: StochasticMatrix | tuple[StochasticMatrix, ...] | KrausMap
    initial_state: np.ndarray
    stop: StoppingRule = field(default_factory=StoppingRule)
    analysis: AnalysisFlags = field(default_factory=AnalysisFlags)
    expected_limit: np.ndarray | None = None
    trace_csv: str = "trace.csv"
    summary_path: str = "summary.json"
    builder: SpinRotationSpec | SpontaneousEmissionSpec | None = None


def _parse_dynamics(data, kind: str, n: int):
    """(dynamics, builder) as held by Scenario."""
    path = "dynamics"
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    _require_keys(data, {"matrix", "matrices", "kraus_operators", "builder"}, path)
    present = [k for k in ("matrix", "matrices", "kraus_operators", "builder") if k in data]
    if len(present) != 1:
        raise _err(path, f"exactly one dynamics entry required, found {present or 'none'}")
    spec = present[0]

    if kind in CLASSICAL_KINDS and spec not in ("matrix", "matrices"):
        raise _err(path, f"kind {kind!r} requires 'matrix' or 'matrices'")
    if kind == "embedded" and spec != "matrix":
        raise _err(path, "kind 'embedded' requires a constant 'matrix'")
    if kind in QUANTUM_KINDS and spec not in ("kraus_operators", "builder"):
        raise _err(path, f"kind {kind!r} requires 'kraus_operators' or 'builder'")

    if spec == "matrix":
        return _parse_stochastic_matrix(data["matrix"], n, f"{path}.matrix"), None

    if spec == "matrices":
        seq = data["matrices"]
        if not isinstance(seq, list) or not seq:
            raise _err(f"{path}.matrices", "expected a nonempty list of matrices")
        mats = tuple(
            _parse_stochastic_matrix(m, n, f"{path}.matrices[{t}]") for t, m in enumerate(seq)
        )
        return mats, None

    if spec == "kraus_operators":
        seq = data["kraus_operators"]
        if not isinstance(seq, list) or not seq:
            raise _err(f"{path}.kraus_operators", "expected a nonempty list of operators")
        ops = [
            _parse_complex_matrix(op, n, f"{path}.kraus_operators[{k}]")
            for k, op in enumerate(seq)
        ]
        try:
            return KrausMap(ops), None
        except ValueError as exc:
            raise _err(f"{path}.kraus_operators", str(exc)) from exc

    builder = data["builder"]
    bpath = f"{path}.builder"
    if not isinstance(builder, dict):
        raise _err(bpath, "expected an object")
    name = builder.get("name")
    if name == "spin_rotation":
        _require_keys(builder, {"name", "alpha_over_pi", "beta_over_pi", "p"}, bpath)
        for key in ("alpha_over_pi", "beta_over_pi", "p"):
            if key not in builder:
                raise _err(bpath, f"missing field {key!r}")
        if n != 2:
            raise _err(bpath, f"spin_rotation is a qubit map, dimension must be 2, got {n}")
        p = _require_number(builder["p"], f"{bpath}.p")
        if not (0.0 < p < 1.0):
            raise _err(f"{bpath}.p", f"must be in (0, 1), got {p}")
        alpha = _parse_fraction(builder["alpha_over_pi"], f"{bpath}.alpha_over_pi")
        beta = _parse_fraction(builder["beta_over_pi"], f"{bpath}.beta_over_pi")
        try:
            phi = make_spin_rotation_map(float(alpha) * math.pi, float(beta) * math.pi, p)
        except (ValueError, OverflowError) as exc:
            raise _err(bpath, str(exc)) from exc
        return phi, SpinRotationSpec(alpha, beta, p)
    if name == "spontaneous_emission":
        _require_keys(builder, {"name", "gamma"}, bpath)
        if "gamma" not in builder:
            raise _err(bpath, "missing field 'gamma'")
        if n != 2:
            raise _err(bpath, f"spontaneous_emission is a qubit map, dimension must be 2, got {n}")
        gamma = _require_number(builder["gamma"], f"{bpath}.gamma")
        if not (0.0 < gamma < 1.0):
            raise _err(f"{bpath}.gamma", f"must be in (0, 1), got {gamma}")
        return make_spontaneous_emission_map(gamma), SpontaneousEmissionSpec(gamma)
    raise _err(
        bpath, f"unknown builder {name!r}; supported: spin_rotation, spontaneous_emission"
    )


def _parse_initial_state(data, kind: str, n: int) -> np.ndarray:
    path = "initial_state"
    if kind in CLASSICAL_KINDS or kind == "embedded":
        return _parse_real_vector(data, n, path)
    arr = _parse_complex_matrix(data, n, path)
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > HERMITIAN_INPUT_TOL:
        raise _err(path, f"not Hermitian: max |X - X*| = {dev:.3e}")
    if kind == "quantum_channel":
        try:
            DensityMatrix(arr)
        except ValueError as exc:
            raise _err(path, f"not a density matrix: {exc}") from exc
    return arr


def _parse_stop(data) -> StoppingRule:
    if data is None:
        return StoppingRule()
    path = "stop"
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    _require_keys(data, {"tolerance", "max_iterations"}, path)
    tol = _require_number(data.get("tolerance", StoppingRule.tolerance), f"{path}.tolerance")
    if tol < 0.0:
        raise _err(f"{path}.tolerance", f"must be >= 0, got {tol}")
    max_it = _require_int(
        data.get("max_iterations", StoppingRule.max_iterations), f"{path}.max_iterations", 1
    )
    return StoppingRule(tol, max_it)


def _parse_analysis(data, kind: str) -> AnalysisFlags:
    if data is None:
        return AnalysisFlags()
    path = "analysis"
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    # the document's keys are the field names
    _require_keys(data, {f.name for f in fields(AnalysisFlags)}, path)
    compute_diameter = _require_bool(data.get("compute_diameter", False), f"{path}.compute_diameter")
    diameter_powers = _require_int(data.get("diameter_powers", 1), f"{path}.diameter_powers", 1)
    fixed_point = _require_bool(data.get("fixed_point", False), f"{path}.fixed_point")
    duality_check = _require_bool(data.get("duality_check", False), f"{path}.duality_check")
    duality_steps = _require_int(data.get("duality_steps", 200), f"{path}.duality_steps", 1)

    estimate = None
    if "estimate_image_radius" in data and data["estimate_image_radius"] is not None:
        e = data["estimate_image_radius"]
        epath = f"{path}.estimate_image_radius"
        if not isinstance(e, dict):
            raise _err(epath, "expected an object")
        _require_keys(e, {"samples", "seed", "power"}, epath)
        if "samples" not in e:
            raise _err(epath, "missing field 'samples'")
        estimate = EstimateSettings(
            _require_int(e["samples"], f"{epath}.samples", 1),
            _require_int(e.get("seed", 0), f"{epath}.seed"),
            _require_int(e.get("power", 1), f"{epath}.power", 1),
        )

    quantum_like = kind in QUANTUM_KINDS or kind == "embedded"
    if compute_diameter and kind not in ("classical", "classical_dual", "embedded"):
        raise _err(f"{path}.compute_diameter", f"not applicable to kind {kind!r}")
    if estimate is not None and not quantum_like:
        raise _err(f"{path}.estimate_image_radius", f"not applicable to kind {kind!r}")
    if fixed_point and not quantum_like:
        raise _err(f"{path}.fixed_point", f"not applicable to kind {kind!r}")
    if duality_check and not quantum_like:
        raise _err(f"{path}.duality_check", f"not applicable to kind {kind!r}")

    return AnalysisFlags(
        compute_diameter, diameter_powers, estimate, fixed_point, duality_check, duality_steps
    )


# complex entries (64 MB) the Kraus power of an image-radius estimate may hold
MAX_POWER_ENTRIES = 1 << 22


def _check_power_size(estimate: EstimateSettings | None, dynamics, n: int) -> None:
    """Reject an estimate whose Kraus power, m^power operators of n x n
    entries, would exceed MAX_POWER_ENTRIES; counted, nothing is built."""
    if estimate is None:
        return
    m = dynamics.operator_count if isinstance(dynamics, KrausMap) else n  # embedded: n
    p = estimate.power
    if m > 1 and p > 1024:
        # far over the limit; m^p itself would be a huge integer
        count = f"more than 2^{p}"
    else:
        entries = m**p * n * n
        if entries <= MAX_POWER_ENTRIES:
            return
        count = str(entries)
    raise _err(
        "analysis.estimate_image_radius.power",
        f"{m}^{p} operators of {n}x{n} make {count} complex entries, "
        f"limit {MAX_POWER_ENTRIES}",
    )


def _parse_expected_limit(data, kind: str, n: int) -> np.ndarray | None:
    if data is None:
        return None
    path = "expected_limit"
    if kind in CLASSICAL_KINDS:
        return _parse_real_vector(data, n, path)
    return _parse_complex_matrix(data, n, path)


def _parse_output(data) -> tuple[str, str]:
    if data is None:
        return "trace.csv", "summary.json"
    path = "output"
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    _require_keys(data, {"trace_csv", "summary"}, path)
    trace_csv = data.get("trace_csv", "trace.csv")
    summary = data.get("summary", "summary.json")
    for name, value in (("trace_csv", trace_csv), ("summary", summary)):
        if not isinstance(value, str) or not value:
            raise _err(f"{path}.{name}", "expected a nonempty string")
        # subdirectories are fine, the runner creates them
        name_path = PurePath(value)
        if not name_path.parts or name_path.is_absolute() or ".." in name_path.parts:
            raise _err(
                f"{path}.{name}",
                f"must be a file path inside the output directory, got {value!r}",
            )
    # one name may not be the other, nor a directory on the other's path
    a, b = PurePath(trace_csv), PurePath(summary)
    if a == b or a in b.parents or b in a.parents:
        raise _err(f"{path}.summary", f"collides with {path}.trace_csv: {summary!r}, {trace_csv!r}")
    return trace_csv, summary


def parse_scenario(source) -> Scenario:
    """Parse and fully validate a scenario from JSON text or a dict.

    All matrix invariants (row sums, Kraus sums, Hermitian/density initial
    states) are checked here, on the objects the returned Scenario holds;
    errors name the offending field and the violated invariant.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require_keys(
        obj,
        {
            "kind",
            "dimension",
            "dynamics",
            "initial_state",
            "stop",
            "analysis",
            "expected_limit",
            "output",
        },
        "scenario",
    )
    for key in ("kind", "dimension", "dynamics", "initial_state"):
        if key not in obj:
            raise ScenarioError(f"scenario: missing required field {key!r}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise _err("kind", f"expected one of {list(KINDS)}, got {kind!r}")
    n = _require_int(obj["dimension"], "dimension", 1)

    dynamics, builder = _parse_dynamics(obj["dynamics"], kind, n)
    initial_state = _parse_initial_state(obj["initial_state"], kind, n)
    stop = _parse_stop(obj.get("stop"))
    analysis = _parse_analysis(obj.get("analysis"), kind)
    _check_power_size(analysis.estimate_image_radius, dynamics, n)
    expected = _parse_expected_limit(obj.get("expected_limit"), kind, n)
    trace_csv, summary_path = _parse_output(obj.get("output"))

    return Scenario(
        kind=kind,
        dimension=n,
        dynamics=dynamics,
        initial_state=initial_state,
        stop=stop,
        analysis=analysis,
        expected_limit=expected,
        trace_csv=trace_csv,
        summary_path=summary_path,
        builder=builder,
    )


def _state_to_jsonable(x: np.ndarray) -> list:
    return pairs_from_complex_array(x) if np.iscomplexobj(x) else x.tolist()


def _dynamics_to_jsonable(s: Scenario) -> dict:
    if s.builder is not None:
        return {"builder": s.builder.to_jsonable()}
    if isinstance(s.dynamics, KrausMap):
        return {"kraus_operators": pairs_from_complex_array(s.dynamics.operators)}
    if isinstance(s.dynamics, tuple):
        return {"matrices": [m.entries.tolist() for m in s.dynamics]}
    return {"matrix": s.dynamics.entries.tolist()}


def scenario_to_jsonable(s: Scenario) -> dict:
    # the document's keys are the field names, as in _parse_analysis
    analysis = asdict(s.analysis)
    if analysis["estimate_image_radius"] is None:
        del analysis["estimate_image_radius"]
    out: dict = {
        "kind": s.kind,
        "dimension": s.dimension,
        "dynamics": _dynamics_to_jsonable(s),
        "initial_state": _state_to_jsonable(s.initial_state),
        "stop": asdict(s.stop),
        "analysis": analysis,
        "output": {"trace_csv": s.trace_csv, "summary": s.summary_path},
    }
    if s.expected_limit is not None:
        out["expected_limit"] = _state_to_jsonable(s.expected_limit)
    return out


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_jsonable(s), indent=2, sort_keys=True) + "\n"


BUILTIN_EXAMPLES = {
    "example1": (
        "directed two-node averaging with infinite projective diameter at every "
        "power, yet converging to the leading node's value"
    ),
    "example2": (
        "random mix of two qubit rotations: a doubly stochastic channel "
        "contracting to the maximally mixed state"
    ),
    "example3": (
        "qubit spontaneous emission: an absorbing channel whose dual consensus "
        "adopts the excited-level population"
    ),
}


def _qubit_diagonal(a: float, b: float) -> list:
    return [[[a, 0.0], [0.0, 0.0]], [[0.0, 0.0], [b, 0.0]]]


# the built-ins are documents like any scenario file and go through the same
# validation
_BUILTIN_DOCUMENTS = {
    "example1": {
        "kind": "classical",
        "dimension": 2,
        "dynamics": {"matrix": [[1.0, 0.0], [0.25, 0.75]]},
        "initial_state": [1.0, 2.0],
        "stop": {"tolerance": 1e-10, "max_iterations": 1000},
        "analysis": {"compute_diameter": True, "diameter_powers": 10},
        "expected_limit": [1.0, 1.0],
    },
    "example2": {
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
        "initial_state": _qubit_diagonal(1.0, 0.0),
        "stop": {"tolerance": 1e-12, "max_iterations": 5000},
        "analysis": {
            "estimate_image_radius": {"samples": 2000, "seed": 7, "power": 2},
            "fixed_point": True,
            "duality_check": True,
        },
        "expected_limit": _qubit_diagonal(0.5, 0.5),
    },
    "example3": {
        "kind": "quantum_dual",
        "dimension": 2,
        "dynamics": {"builder": {"name": "spontaneous_emission", "gamma": 0.2}},
        "initial_state": _qubit_diagonal(1.0, 0.0),
        "stop": {"tolerance": 1e-10, "max_iterations": 2000},
        "analysis": {
            "estimate_image_radius": {"samples": 500, "seed": 7, "power": 1},
            "fixed_point": True,
            "duality_check": True,
        },
        "expected_limit": _qubit_diagonal(1.0, 1.0),
    },
}


def builtin_example(name: str) -> Scenario:
    if name in _BUILTIN_DOCUMENTS:
        return parse_scenario(_BUILTIN_DOCUMENTS[name])
    raise ScenarioError(
        f"unknown example {name!r}; available: {', '.join(sorted(BUILTIN_EXAMPLES))}"
    )
