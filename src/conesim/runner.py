"""Execute a validated scenario and write trace and summary artifacts."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import (
    DiameterBracket,
    FixedPointResult,
    build_classical_embedding,
    channel_fixed_point,
    duality_invariant_check,
    estimate_image_radius,
    kraus_power,
    run_channel,
    run_noncommutative_consensus,
)
from .classical import projective_diameter, run_consensus, run_dual_consensus
from .cones import contraction_ratio
from .scenario import (
    Scenario,
    SpinRotationSpec,
    pairs_from_complex_array,
)
from .trace import SimulationTrace, StoppingRule, TerminalStatus

__all__ = ["RunResult", "run_scenario"]


@dataclass
class RunResult:
    status: TerminalStatus
    exit_code: int
    trace_path: Path
    summary_path: Path
    summary: dict
    trace: SimulationTrace


def _diameter_windows(s: Scenario) -> tuple[list[dict], int | None, float | None]:
    """Projective diameters of the cumulative matrix products over the first
    diameter_powers steps (plain powers for a constant matrix)."""
    k = s.analysis.diameter_powers
    seq = s.dynamics[:k] if isinstance(s.dynamics, tuple) else [s.dynamics] * k
    transpose = s.kind == "classical_dual"
    windows: list[dict] = []
    first_finite_k: int | None = None
    factor: float | None = None
    product: np.ndarray | None = None
    for k, mat in enumerate(seq, start=1):
        step = mat.entries.T if transpose else mat.entries
        product = step if product is None else step @ product
        diam = projective_diameter(product)
        windows.append({"k": k, "value": diam.to_json()})
        if diam.is_finite and first_finite_k is None:
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stop = s.stop
    if max_iters_override is not None:
        stop = StoppingRule(stop.tolerance, max_iters_override)

    summary: dict = {
        "kind": s.kind,
        "dimension": s.dimension,
        "stopping": {"tolerance": stop.tolerance, "max_iterations": stop.max_iterations},
    }

    # the reported factor tanh(Δ/4): a finite image-radius bracket wins,
    # otherwise the first finite product diameter gives it
    factor: float | None = None
    if s.kind in ("classical", "classical_dual"):
        run = run_consensus if s.kind == "classical" else run_dual_consensus
        trace = run(s.dynamics, s.initial_state, stop, s.expected_limit)
    else:
        trace, bracket = _run_quantum_like(s, stop, summary, seed_override)
        if bracket is not None and bracket.upper.is_finite:
            factor = bracket.contraction_factor

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
    summary["final_lyapunov"] = trace.final_lyapunov
    summary["certified_contraction_factor"] = factor
    last = trace.records[-1]
    summary["expected_limit_distance_final"] = last.dist_to_limit
    if s.kind in ("classical", "classical_dual"):
        summary["final_state"] = [float(v) for v in trace.final_state]
    else:
        summary["final_state"] = pairs_from_complex_array(trace.final_state)

    trace_path = out / s.trace_csv
    summary_path = out / s.summary_path
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    trace.write_csv(trace_path)
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    exit_code = 0 if trace.status is TerminalStatus.CONVERGED else 2
    return RunResult(trace.status, exit_code, trace_path, summary_path, summary, trace)


def _run_quantum_like(
    s: Scenario, stop: StoppingRule, summary: dict, seed_override: int | None
) -> tuple[SimulationTrace, DiameterBracket | None]:
    """Run a Kraus map scenario and its analyses; also return the image-radius
    bracket when one was estimated."""
    if s.kind == "embedded":
        phi = build_classical_embedding(s.dynamics)
        state0 = np.diag(s.initial_state).astype(complex)
    else:
        phi = s.dynamics
        state0 = s.initial_state

    if isinstance(s.builder, SpinRotationSpec):
        summary["spin_rotation_special_cases"] = list(s.builder.special_cases())

    est = s.analysis.estimate_image_radius
    est_seed = seed_override if seed_override is not None else (est.seed if est else 0)

    # one radius estimate per run: it decides the fixed point's
    # hypothesis_certified and the run's factor, and fills the image_radius
    # block
    bracket: DiameterBracket | None = None
    if est is not None:
        target = kraus_power(phi, est.power) if est.power > 1 else phi
        estimate = estimate_image_radius(target, est.samples, est_seed)
        bracket = DiameterBracket.from_radius(estimate.radius)

    fp: FixedPointResult | None = None
    if s.analysis.fixed_point:
        fp = channel_fixed_point(phi)
        summary["fixed_point"] = {
            "matrix": pairs_from_complex_array(fp.density.matrix),
            "residual": fp.residual,
            "unique": fp.unique,
            "eigenvalue_one_multiplicity": fp.eigenvalue_one_multiplicity,
            "hypothesis_certified": None if bracket is None else bracket.upper.is_finite,
        }

    limit = s.expected_limit
    if limit is None and fp is not None:
        if s.kind == "quantum_channel":
            limit = fp.density.matrix
        else:
            consensus_value = float(np.trace(fp.density.matrix @ state0).real)
            limit = consensus_value * np.eye(s.dimension, dtype=complex)

    if s.kind == "quantum_channel":
        trace = run_channel(phi, state0, stop, limit)
    else:
        trace = run_noncommutative_consensus(phi, state0, stop, limit)

    if est is not None:
        summary["image_radius"] = {
            "lower": bracket.lower.to_json(),
            "upper": bracket.upper.to_json(),
            "contraction_factor": bracket.contraction_factor,
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
            zbar=fp.density.matrix if fp is not None else None,
        )
        summary["duality"] = {
            "steps": report.steps,
            "max_pairing_error": report.max_pairing_error,
            "ok": report.pairing_ok,
            "final_pairing_value": report.final_pairing_value,
            "limit_value": report.limit_value,
            "limit_error": report.limit_error,
        }
    return trace, bracket
