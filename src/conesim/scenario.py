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

The keys of `stop`, `analysis` (with `estimate_image_radius`) and a builder
are the field names of the block's dataclass. An absent field takes its
default, and `null` for an optional block takes all of them.

Complex scalars are two-element arrays [re, im]; complex matrices are
row-major nested arrays of such pairs. Rotation angles are exact rational
multiples of pi ("p/q" strings or plain numbers) so that the degenerate
angle configurations can be detected exactly rather than from floats.

Every number grid, from a vector to a whole `matrices` stack or Kraus
operator list, is read in one pass by `_read_grid`, or walked to name its
first bad entry. A stack's row sums are checked after all its entries, at
once; a failing stack is named by its first failing matrix.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from itertools import chain
from pathlib import PurePath

import numpy as np

from .channels import (
    KrausMap,
    _as_density_array,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
)
from .classical import as_stochastic_matrix
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
    try:
        v = float(value)
    except OverflowError:
        # an int past the float range; it may have too many digits to print
        bits = value.bit_length()
        raise _err(path, f"expected a finite number, got an integer of {bits} bits") from None
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


def _object(data, path: str, allowed=None, required=()) -> dict:
    """`data`, checked to be an object whose keys are among `allowed` (any
    keys when None) and include each key of `required`."""
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    unknown = set() if allowed is None else set(data).difference(allowed)
    if unknown:
        raise _err(path, f"unknown field(s): {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise _err(path, f"missing field {key!r}")
    return data


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _number_grid(data, shape: tuple) -> np.ndarray | None:
    """`data` as a float array of `shape` when it is nested lists of exactly
    that shape with finite int and float leaves (not bool), else None. A
    first length of None takes any nonempty list, as a stack's.

    Each nesting level is checked at once, by the set of its types and
    lengths, instead of one call per entry. On None `_walk_grid` runs: it
    names the first bad entry, or accepts what this does not (numpy scalars
    in a dict document, say).
    """
    if shape[0] is None and type(data) is list:
        shape = (len(data), *shape[1:])  # an empty stack fails at its next level
    level = [data]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        arr = np.array(level, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(arr).all():
        return None
    arr.shape = shape
    return arr


def _walk_grid(data, levels: tuple, path: str):
    """`data` as nested lists of floats, read one entry at a time: `levels`
    holds one (length, message) pair per nesting level, a length of None
    taking any nonempty list. Raises for the first bad entry in document
    order, with the message of its level."""
    if not levels:
        return _require_number(data, path)
    (size, message), inner = levels[0], levels[1:]
    if not isinstance(data, list) or (not data if size is None else len(data) != size):
        raise _err(path, message)
    return [_walk_grid(v, inner, f"{path}[{i}]") for i, v in enumerate(data)]


def _read_grid(data, levels: tuple, path: str) -> np.ndarray:
    """The one reader of a document's number grids, `levels` as in
    `_walk_grid`: one pass over a well-formed grid, the walk otherwise."""
    grid = _number_grid(data, tuple(size for size, _ in levels))
    if grid is None:
        grid = np.array(_walk_grid(data, levels, path), dtype=float)
    return grid


def _square(n: int, pairs: bool = False) -> tuple:
    """The levels of an n x n matrix, of numbers or of [re, im] pairs."""
    rows = ((n, f"expected {n} rows"), (n, f"expected {n} entries"))
    return rows + ((2, "complex entries are [re, im] pairs"),) if pairs else rows


def _parse_stochastic(grid: np.ndarray, path: str) -> np.ndarray:
    """`grid`, an (n, n) matrix or a (T, n, n) stack, checked row-stochastic
    at once; a failing stack is named by its first failing matrix."""
    try:
        return as_stochastic_matrix(grid, grid.ndim)
    except ValueError as exc:
        if grid.ndim == 2:
            raise _err(path, str(exc)) from exc
        for t, m in enumerate(grid):
            _parse_stochastic(m, f"{path}[{t}]")
        raise


def _parse_real_vector(data, n: int, path: str) -> np.ndarray:
    return _read_only(_read_grid(data, ((n, f"expected a vector of length {n}"),), path))


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


@dataclass(frozen=True)
class SpontaneousEmissionSpec:
    gamma: float


# builder name -> (its parameters, the map they build)
_BUILDERS = {
    "spin_rotation": (
        SpinRotationSpec,
        lambda s: make_spin_rotation_map(
            float(s.alpha_over_pi) * math.pi, float(s.beta_over_pi) * math.pi, s.p
        ),
    ),
    "spontaneous_emission": (
        SpontaneousEmissionSpec,
        lambda s: make_spontaneous_emission_map(s.gamma),
    ),
}


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

    `dynamics` is a checked read-only float64 array, (n, n) for `matrix`
    and one (T, n, n) stack for `matrices`, or a KrausMap for
    `kraus_operators` and both builders; `builder` keeps a builder's exact
    parameters. The states are read-only arrays: real vectors for the
    classical kinds and `embedded`, complex matrices otherwise
    (`expected_limit` of `embedded` is a matrix too).
    """

    kind: str
    dimension: int
    dynamics: np.ndarray | KrausMap
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
    entries = ("matrix", "matrices", "kraus_operators", "builder")
    present = [k for k in entries if k in _object(data, path, entries)]
    if len(present) != 1:
        raise _err(path, f"exactly one dynamics entry required, found {present or 'none'}")
    spec = present[0]

    if kind in CLASSICAL_KINDS and spec not in ("matrix", "matrices"):
        raise _err(path, f"kind {kind!r} requires 'matrix' or 'matrices'")
    if kind == "embedded" and spec != "matrix":
        raise _err(path, "kind 'embedded' requires a constant 'matrix'")
    if kind in QUANTUM_KINDS and spec not in ("kraus_operators", "builder"):
        raise _err(path, f"kind {kind!r} requires 'kraus_operators' or 'builder'")

    spath = f"{path}.{spec}"
    if spec in ("matrix", "matrices"):
        stack = ((None, "expected a nonempty list of matrices"),) if spec == "matrices" else ()
        return _parse_stochastic(_read_grid(data[spec], stack + _square(n), spath), spath), None

    if spec == "kraus_operators":
        levels = ((None, "expected a nonempty list of operators"), *_square(n, pairs=True))
        ops = complex_array_from_pairs(_read_grid(data[spec], levels, spath))
        try:
            return KrausMap(ops), None
        except ValueError as exc:
            raise _err(spath, str(exc)) from exc

    builder = _object(data["builder"], spath)
    name = builder.get("name")
    if not isinstance(name, str) or name not in _BUILDERS:
        raise _err(spath, f"unknown builder {name!r}; supported: {', '.join(_BUILDERS)}")
    if n != 2:
        raise _err(spath, f"{name} is a qubit map, dimension must be 2, got {n}")
    params_type, build = _BUILDERS[name]
    params = _read_block(params_type, {k: v for k, v in builder.items() if k != "name"}, spath)
    try:
        return build(params), params
    except (ValueError, OverflowError) as exc:
        raise _err(spath, str(exc)) from exc


def _parse_hermitian(data, n: int, path: str) -> np.ndarray:
    arr = _read_only(complex_array_from_pairs(_read_grid(data, _square(n, pairs=True), path)))
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > HERMITIAN_INPUT_TOL:
        raise _err(path, f"not Hermitian: max |X - X*| = {dev:.3e}")
    return arr


def _parse_initial_state(data, kind: str, n: int) -> np.ndarray:
    path = "initial_state"
    if kind in CLASSICAL_KINDS or kind == "embedded":
        return _parse_real_vector(data, n, path)
    arr = _parse_hermitian(data, n, path)
    if kind == "quantum_channel":
        try:
            _as_density_array(arr)
        except ValueError as exc:
            raise _err(path, f"not a density matrix: {exc}") from exc
    return arr


# lower bounds of the blocks' numbers; every other int field is >= 1
_MINIMUM = {"tolerance": 0, "seed": 0}


def _read_block(cls, data, path: str):
    """A `cls` from the block `data`, whose keys are the dataclass's field
    names: a field without a default is required, an absent one takes its
    default, and a `null` block takes every default. Each value is checked
    by its field's annotation, with the bounds of `_MINIMUM`; a builder's
    `p` and `gamma` lie in (0, 1)."""
    if data is None:
        return cls()
    specs = fields(cls)
    required = [f.name for f in specs if f.default is MISSING]
    _object(data, path, [f.name for f in specs], required)
    present = [f for f in specs if f.name in data]
    return cls(**{f.name: _read_field(f, data[f.name], f"{path}.{f.name}") for f in present})


def _read_field(f, value, path: str):
    if f.type == "bool":
        return _require_bool(value, path)
    if f.type == "int":
        return _require_int(value, path, _MINIMUM.get(f.name, 1))
    if f.type == "Fraction":
        return _parse_fraction(value, path)
    if f.type == "float":
        v = _require_number(value, path)
        if f.name in ("p", "gamma") and not 0.0 < v < 1.0:
            raise _err(path, f"must be in (0, 1), got {v}")
        if v < _MINIMUM.get(f.name, -math.inf):
            raise _err(path, f"must be >= {_MINIMUM[f.name]}, got {v}")
        return v
    # the one nested block, analysis.estimate_image_radius, whose null is None
    return None if value is None else _read_block(EstimateSettings, value, path)


def _parse_analysis(data, kind: str) -> AnalysisFlags:
    analysis = _read_block(AnalysisFlags, data, "analysis")
    quantum_like = kind in QUANTUM_KINDS or kind == "embedded"
    if analysis.compute_diameter and kind in QUANTUM_KINDS:
        raise _err("analysis.compute_diameter", f"not applicable to kind {kind!r}")
    for name in ("estimate_image_radius", "fixed_point", "duality_check"):
        if getattr(analysis, name) and not quantum_like:
            raise _err(f"analysis.{name}", f"not applicable to kind {kind!r}")
    return analysis


# complex entries (64 MB) that the Kraus power of an image-radius estimate,
# or the n^2 x n^2 Liouville matrix of an estimate or fixed point, may hold
MAX_POWER_ENTRIES = 1 << 22


def _check_sizes(analysis: AnalysisFlags, dynamics, n: int) -> None:
    """Reject an analysis whose Liouville matrix (n^4 entries) or Kraus power
    (m^power operators of n x n entries) would exceed MAX_POWER_ENTRIES;
    counted, nothing is built."""
    for name in ("fixed_point", "estimate_image_radius"):
        if getattr(analysis, name) and n**4 > MAX_POWER_ENTRIES:
            count = f"the {n * n}x{n * n} Liouville matrix has {n**4} complex entries"
            raise _err(f"analysis.{name}", f"{count}, limit {MAX_POWER_ENTRIES}")
    if analysis.estimate_image_radius is None:
        return
    m = dynamics.operator_count if isinstance(dynamics, KrausMap) else n  # embedded: n
    p = analysis.estimate_image_radius.power
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
    return _parse_hermitian(data, n, path)


def _parse_output(data) -> tuple[str, str]:
    path = "output"
    names = {"trace_csv": Scenario.trace_csv, "summary": Scenario.summary_path}
    if data is not None:
        names.update(_object(data, path, names))
    for name, value in names.items():
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
    trace_csv, summary = names.values()
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
        except ValueError as exc:  # JSONDecodeError, or an int of too many digits
            raise ScenarioError(f"invalid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    required = ("kind", "dimension", "dynamics", "initial_state")
    _object(obj, "scenario", (*required, "stop", "analysis", "expected_limit", "output"))
    for key in required:
        if key not in obj:
            raise ScenarioError(f"scenario: missing required field {key!r}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise _err("kind", f"expected one of {list(KINDS)}, got {kind!r}")
    n = _require_int(obj["dimension"], "dimension", 1)

    dynamics, builder = _parse_dynamics(obj["dynamics"], kind, n)
    initial_state = _parse_initial_state(obj["initial_state"], kind, n)
    stop = _read_block(StoppingRule, obj.get("stop"), "stop")
    analysis = _parse_analysis(obj.get("analysis"), kind)
    _check_sizes(analysis, dynamics, n)
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
        name = next(k for k, (spec, _) in _BUILDERS.items() if isinstance(s.builder, spec))
        values = {k: str(v) if isinstance(v, Fraction) else v for k, v in asdict(s.builder).items()}
        return {"builder": {"name": name, **values}}
    if isinstance(s.dynamics, KrausMap):
        return {"kraus_operators": pairs_from_complex_array(s.dynamics.operators)}
    return {"matrices" if s.dynamics.ndim == 3 else "matrix": s.dynamics.tolist()}


def scenario_to_jsonable(s: Scenario) -> dict:
    # the document's keys are the field names, as in _read_block
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
