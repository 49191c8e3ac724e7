"""Execute a validated scenario and write trace and summary artifacts."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import (
    FixedPointResult,
    build_classical_embedding,
    channel_fixed_point,
    duality_invariant_check,
    estimate_image_radius,
    kraus_power,
    run_channel,
    run_noncommutative_consensus,
    spin_rotation_special_cases,
)
from .classical import projective_diameter, run_consensus, run_dual_consensus
from .cones import contraction_ratio
from .scenario import (
    CLASSICAL_KINDS,
    Scenario,
    SpinRotationSpec,
    _state_to_jsonable,
    pairs_from_complex_array,
)
from .trace import SimulationTrace, StoppingRule, TerminalStatus, _check_count

__all__ = ["RunResult", "run_scenario"]


@dataclass
class RunResult:
    status: TerminalStatus
    exit_code: int
    trace_path: Path
    summary_path: Path
    summary: dict
    trace: SimulationTrace


def _json_extended(d: float | None) -> float | str | None:
    """A summary value that may be infinite: "+inf" then, else d. The summary
    is strict JSON, so any other non-finite float fails its dump."""
    return d if d is None or math.isfinite(d) else "+inf"


def _diameter_windows(s: Scenario) -> tuple[list[dict], int | None, float | None]:
    """Projective diameters of the cumulative matrix products over the first
    diameter_powers steps (plain powers for a constant matrix)."""
    k = s.analysis.diameter_powers
    seq = s.dynamics[:k] if s.dynamics.ndim == 3 else [s.dynamics] * k
    transpose = s.kind == "classical_dual"
    windows: list[dict] = []
    first_finite_k: int | None = None
    factor: float | None = None
    product: np.ndarray | None = None
    for k, a in enumerate(seq, start=1):
        step = a.T if transpose else a
        product = step if product is None else step @ product
        # a zero row (classical_dual's transposes only) maps the open orthant
        # onto its boundary: Birkhoff's bound certifies nothing for that
        # window (Seneta 2006 defines it for allowable matrices only)
        diam = projective_diameter(product) if product.any(axis=1).all() else math.inf
        windows.append({"k": k, "value": _json_extended(diam)})
        if math.isfinite(diam) and first_finite_k is None:
            first_finite_k = k
            factor = contraction_ratio(diam)
    return windows, first_finite_k, factor


def run_scenario(
    s: Scenario,
    out_dir: str | Path = ".",
    seed_override: int | None = None,
    max_iters_override: int | None = None,
) -> RunResult:
    """Run the scenario's dynamics and analyses, writing the trace CSV and a
    machine-readable summary into `out_dir`.

    Exit code contract: 0 when the run converged, 2 when it hit the iteration
    budget (or exhausted a finite sequence); errors raise and the CLI maps
    them to exit 1.
    """
    if seed_override is not None and _check_count("seed_override", seed_override) < 0:
        raise ValueError(f"seed_override must be >= 0, got {seed_override}")
    stop = s.stop
    if max_iters_override is not None:
        if _check_count("max_iters_override", max_iters_override) < 1:
            raise ValueError(f"max_iters_override must be >= 1, got {max_iters_override}")
        stop = StoppingRule(stop.tolerance, max_iters_override)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary: dict = {
        "kind": s.kind,
        "dimension": s.dimension,
        "stopping": {"tolerance": stop.tolerance, "max_iterations": stop.max_iterations},
    }

    # the reported factor tanh(Δ/4): a finite image-radius bracket wins,
    # otherwise the first finite product diameter gives it
    factor: float | None = None
    if s.kind in CLASSICAL_KINDS:
        run = run_consensus if s.kind == "classical" else run_dual_consensus
        trace = run(s.dynamics, s.initial_state, stop, s.expected_limit)
    else:
        trace, factor = _run_quantum_like(s, stop, summary, seed_override)

    if s.analysis.compute_diameter:
        # embedded runs start diagonal and stay diagonal, so the classical
        # product-diameter certificate applies to their whole trajectory too
        windows, first_k, diameter_factor = _diameter_windows(s)
        summary["diameter"] = {
            "windows": windows,
            "first_finite_k": first_k,
            "certified_contraction_factor": diameter_factor,
        }
        if factor is None:
            factor = diameter_factor

    summary["status"] = trace.status.value
    summary["iterations"] = trace.iterations
    summary["final_lyapunov"] = _json_extended(trace.final_lyapunov)
    summary["certified_contraction_factor"] = factor
    dist = trace.dist_to_limit[-1].item()
    summary["expected_limit_distance_final"] = None if math.isnan(dist) else _json_extended(dist)
    summary["final_state"] = _state_to_jsonable(trace.final_state)

    # dumped first, so that a summary that is no JSON leaves no trace either
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    trace_path = out / s.trace_csv
    summary_path = out / s.summary_path
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    trace.write_csv(trace_path)
    summary_path.write_text(text)

    exit_code = 0 if trace.status is TerminalStatus.CONVERGED else 2
    return RunResult(trace.status, exit_code, trace_path, summary_path, summary, trace)


def _run_quantum_like(
    s: Scenario, stop: StoppingRule, summary: dict, seed_override: int | None
) -> tuple[SimulationTrace, float | None]:
    """Run a Kraus map scenario and its analyses; also return tanh(2R/4), the
    factor of the diameter bracket [R, 2R], when the image radius R is finite."""
    if s.kind == "embedded":
        phi = build_classical_embedding(s.dynamics)
        state0 = np.diag(s.initial_state).astype(complex)
    else:
        phi = s.dynamics
        state0 = s.initial_state

    b = s.builder
    if isinstance(b, SpinRotationSpec):
        cases = spin_rotation_special_cases(b.alpha_over_pi, b.beta_over_pi)
        summary["spin_rotation_special_cases"] = list(cases)

    est = s.analysis.estimate_image_radius
    est_seed = seed_override if seed_override is not None else (est.seed if est else 0)

    # one radius estimate per run: it decides the fixed point's
    # hypothesis_certified and the run's factor, and fills the image_radius
    # block
    factor = certified = None
    if est is not None:
        target = kraus_power(phi, est.power) if est.power > 1 else phi
        estimate = estimate_image_radius(target, est.samples, est_seed)
        upper = 2.0 * estimate.radius
        factor = contraction_ratio(upper)
        certified = math.isfinite(upper)

    fp: FixedPointResult | None = None
    if s.analysis.fixed_point:
        fp = channel_fixed_point(phi)
        summary["fixed_point"] = {
            "matrix": pairs_from_complex_array(fp.density),
            "residual": fp.residual,
            "unique": fp.unique,
            "eigenvalue_one_multiplicity": fp.eigenvalue_one_multiplicity,
            "hypothesis_certified": certified,
        }

    limit = s.expected_limit
    if limit is None and fp is not None:
        if s.kind == "quantum_channel":
            limit = fp.density
        else:
            consensus_value = float(np.trace(fp.density @ state0).real)
            limit = consensus_value * np.eye(s.dimension, dtype=complex)

    if s.kind == "quantum_channel":
        trace = run_channel(phi, state0, stop, limit)
    else:
        trace = run_noncommutative_consensus(phi, state0, stop, limit)

    if est is not None:
        summary["image_radius"] = {
            "lower": _json_extended(estimate.radius),
            "upper": _json_extended(upper),
            "contraction_factor": factor,
            "samples": est.samples,
            "seed": est_seed,
            "power": est.power,
            "samples_drawn": estimate.samples_drawn,
            "witness": pairs_from_complex_array(estimate.attained_at),
        }

    if s.analysis.duality_check:
        if s.kind == "quantum_channel":
            z_probe = state0
            x_probe = np.zeros((s.dimension, s.dimension), dtype=complex)
            x_probe[0, 0] = 1.0
        else:
            z_probe = np.eye(s.dimension, dtype=complex) / s.dimension
            x_probe = state0
        report = duality_invariant_check(
            phi,
            z_probe,
            x_probe,
            s.analysis.duality_steps,
            zbar=fp.density if fp is not None else None,
        )
        summary["duality"] = {
            "steps": report.steps,
            "max_pairing_error": report.max_pairing_error,
            "ok": report.pairing_ok,
            "final_pairing_value": report.final_pairing_value,
            "limit_value": report.limit_value,
            "limit_error": report.limit_error,
        }
    return trace, factor if certified else None
