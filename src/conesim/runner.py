"""Execute a validated scenario and write trace and summary artifacts."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .channels import (
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
from .scenario import Scenario, SpinRotationSpec, _state_to_jsonable, pairs_from_complex_array
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


def _diameter_windows(s: Scenario) -> dict:
    """The diameter block: projective diameters of the cumulative matrix
    products over the first diameter_powers steps (plain powers for a
    constant matrix), and the first finite window with its factor."""
    k = s.analysis.diameter_powers
    seq = s.dynamics[:k] if s.dynamics.ndim == 3 else [s.dynamics] * k
    transpose = s.kind == "classical_dual"
    block: dict = {"windows": [], "first_finite_k": None, "certified_contraction_factor": None}
    product: np.ndarray | None = None
    for k, a in enumerate(seq, start=1):
        step = a.T if transpose else a
        product = step if product is None else step @ product
        # a zero row (classical_dual's transposes only) maps the open orthant
        # onto its boundary: Birkhoff's bound certifies nothing for that
        # window (Seneta 2006 defines it for allowable matrices only)
        diam = projective_diameter(product) if product.any(axis=1).all() else math.inf
        block["windows"].append({"k": k, "value": _json_extended(diam)})
        if math.isfinite(diam) and block["first_finite_k"] is None:
            block["first_finite_k"] = k
            block["certified_contraction_factor"] = contraction_ratio(diam)
    return block


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

    summary: dict = {"kind": s.kind, "dimension": s.dimension, "stopping": asdict(stop)}
    classical = {"classical": run_consensus, "classical_dual": run_dual_consensus}.get(s.kind)
    if classical is not None:
        trace = classical(s.dynamics, s.initial_state, stop, s.expected_limit)
        factor = None
    else:
        trace, factor = _run_quantum_like(s, stop, summary, seed_override)

    if s.analysis.compute_diameter:
        # embedded runs start diagonal and stay diagonal, so the classical
        # product-diameter certificate applies to their whole trajectory too
        summary["diameter"] = _diameter_windows(s)
        # the run's factor tanh(Δ/4): a finite image-radius bracket wins,
        # else the first finite diameter window gives it
        if factor is None:
            factor = summary["diameter"]["certified_contraction_factor"]

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
    """Run a Kraus map scenario and its analyses (image radius, fixed point,
    run, duality), filling their summary blocks.

    Also return the run's factor tanh(2R/4), that of the diameter bracket
    [R, 2R], when the sampled image radius R is finite, else None: the
    diameter windows' factor then stands in. The fixed point's
    `hypothesis_certified` says that R is finite, and is None without an
    estimate. On `embedded` R is sampled on the whole positive definite
    cone, while the diameter windows certify the diagonal sub-cone the run
    stays in.
    """
    channel = s.kind == "quantum_channel"
    if s.kind == "embedded":
        phi = build_classical_embedding(s.dynamics)
        state0 = np.diag(s.initial_state).astype(complex)
    else:
        phi, state0 = s.dynamics, s.initial_state
    b = s.builder
    if isinstance(b, SpinRotationSpec):
        cases = spin_rotation_special_cases(b.alpha_over_pi, b.beta_over_pi)
        summary["spin_rotation_special_cases"] = list(cases)

    factor = certified = None
    est = s.analysis.estimate_image_radius
    if est is not None:
        seed = est.seed if seed_override is None else seed_override
        target = kraus_power(phi, est.power) if est.power > 1 else phi
        estimate = estimate_image_radius(target, est.samples, seed)
        upper = 2.0 * estimate.radius
        certified = math.isfinite(upper)
        summary["image_radius"] = {
            "lower": _json_extended(estimate.radius),
            "upper": _json_extended(upper),
            "contraction_factor": contraction_ratio(upper),
            "samples": est.samples,
            "seed": seed,
            "power": est.power,
            "samples_drawn": estimate.samples_drawn,
            "witness": pairs_from_complex_array(estimate.attained_at),
        }
        if certified:
            factor = summary["image_radius"]["contraction_factor"]

    limit, zbar = s.expected_limit, None
    if s.analysis.fixed_point:
        fp = channel_fixed_point(phi)
        zbar = fp.density
        summary["fixed_point"] = {
            "matrix": pairs_from_complex_array(zbar),
            "residual": fp.residual,
            "unique": fp.unique,
            "eigenvalue_one_multiplicity": fp.eigenvalue_one_multiplicity,
            "hypothesis_certified": certified,
        }
        # the channel tends to its fixed point, the dual to tr(zbar X0) I
        if limit is None and channel:
            limit = zbar
        elif limit is None:
            limit = float(np.trace(zbar @ state0).real) * np.eye(s.dimension, dtype=complex)

    run = run_channel if channel else run_noncommutative_consensus
    trace = run(phi, state0, stop, limit)

    if s.analysis.duality_check:
        # probes (Z0, X0): the channel's start against E_00, the maximally
        # mixed state against the dual's start
        eye = np.eye(s.dimension, dtype=complex)
        z0, x0 = (state0, np.outer(eye[0], eye[0])) if channel else (eye / s.dimension, state0)
        report = asdict(duality_invariant_check(phi, z0, x0, s.analysis.duality_steps, zbar=zbar))
        report["ok"] = report.pop("pairing_ok")
        summary["duality"] = report
    return trace, factor
