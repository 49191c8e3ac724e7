"""Plain-numpy reference checks for conesim's run outputs.

Every reference is recomputed here from the scenario document alone: the
consensus value from the left Perron vector, the channel fixed point from the
null space of the Liouville superoperator, projective diameters from the
column-pair formula. Outputs are compared within tolerances derived from the
scenario's own stopping rule, never against stored digests, so a last-bit
change in conesim is not a failure.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from workloads import superoperator

PD_FLOOR = 1e-12  # conesim's relative eigenvalue floor for "singular"


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _inf_or_float(v) -> float:
    return math.inf if v == "+inf" else float(v)


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def kraus_operators(doc: dict) -> list[np.ndarray]:
    dyn = doc["dynamics"]
    if "kraus_operators" in dyn:
        return [_complex(v) for v in dyn["kraus_operators"]]
    b = dyn["builder"]
    if b["name"] == "spin_rotation":
        alpha = float(Fraction(b["alpha_over_pi"])) * math.pi
        beta = float(Fraction(b["beta_over_pi"])) * math.pi
        p = b["p"]
        v0 = math.sqrt(p) * np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
        c, s = math.cos(beta), math.sin(beta)
        v1 = math.sqrt(1.0 - p) * np.array([[c, 1j * s], [1j * s, c]])
        return [v0, v1]
    if b["name"] == "spontaneous_emission":
        g = b["gamma"]
        v0 = np.diag([1.0, math.sqrt(1.0 - g * g)]).astype(complex)
        v1 = np.array([[0.0, g], [0.0, 0.0]], dtype=complex)
        return [v0, v1]
    raise ValueError(f"oracle does not know builder {b['name']!r}")


def stationary(mat: np.ndarray) -> np.ndarray:
    """Vector v with v = mat v and sum(v) = 1 (mat with a simple eigenvalue 1)."""
    k = mat.shape[0]
    lhs = mat - np.eye(k)
    lhs[0, :] = 1.0
    rhs = np.zeros(k, dtype=mat.dtype)
    rhs[0] = 1.0
    return np.linalg.solve(lhs, rhs)


def fixed_point(S: np.ndarray, n: int) -> np.ndarray:
    """Trace-one density fixed by the channel: null space of S - I."""
    k = n * n
    lhs = S - np.eye(k)
    lhs[0, :] = np.eye(n).reshape(-1)  # trace row replaces one equation
    rhs = np.zeros(k, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(lhs, rhs).reshape(n, n)
    return 0.5 * (rho + rho.conj().T)


def second_modulus(mat: np.ndarray) -> float:
    return float(np.sort(np.abs(np.linalg.eigvals(mat)))[-2])


def projective_diameter(a: np.ndarray) -> float:
    """Column-pair form: max over nonzero columns j, q of d_H(A e_j, A e_q)."""
    cols = a[:, (a > 0.0).any(axis=0)]
    support = cols > 0.0
    if not (support == support[:, :1]).all():
        return math.inf
    logs = np.log(cols[support[:, 0]])
    m = (logs[:, :, None] - logs[:, None, :]).max(axis=0)  # max_i L_ij - L_iq
    return float((m + m.T).max())


def _check_diameter(doc: dict, summary: dict, problems: list) -> None:
    a = np.asarray(doc["dynamics"]["matrix"], dtype=float)
    step = a.T if doc["kind"] == "classical_dual" else a
    product = None
    first_k, factor = None, None
    windows = summary["diameter"]["windows"]
    if len(windows) != doc["analysis"]["diameter_powers"]:
        problems.append(f"{len(windows)} diameter windows")
    for k, win in enumerate(windows, start=1):
        product = step if product is None else step @ product
        ref = projective_diameter(product)
        got = _inf_or_float(win["value"])
        if win["k"] != k or not _close(got, ref):
            problems.append(f"diameter window {k}: {got!r} vs reference {ref!r}")
        if first_k is None and math.isfinite(ref):
            first_k, factor = k, math.tanh(ref / 4.0)
    d = summary["diameter"]
    if d["first_finite_k"] != first_k:
        problems.append(f"first_finite_k {d['first_finite_k']} vs reference {first_k}")
    got_factor = d["certified_contraction_factor"]
    if (got_factor is None) != (factor is None) or (
        factor is not None and not _close(got_factor, factor)
    ):
        problems.append(f"diameter factor {got_factor} vs reference {factor}")


def _check_classical(doc: dict, summary: dict, expect: str, problems: list) -> None:
    x0 = np.asarray(doc["initial_state"], dtype=float)
    x = np.asarray(summary["final_state"], dtype=float)
    tol = doc["stop"]["tolerance"]
    scale = float(np.abs(x0).max())
    dyn = doc["dynamics"]
    if expect == "incomplete_sequence":
        ref = x0
        for m in dyn["matrices"]:
            ref = np.asarray(m) @ ref
        if summary["iterations"] != len(dyn["matrices"]):
            problems.append(f"{summary['iterations']} iterations, sequence has {len(dyn['matrices'])}")
        err = float(np.abs(x - ref).max())
        if err > 1e-10 * scale:
            problems.append(f"final state off the sequence product by {err:.3e}")
        return
    a = np.asarray(dyn["matrix"], dtype=float)
    pi = stationary(a.T)  # left Perron vector: pi A = pi
    if doc["kind"] == "classical":
        # pi . x(t) is invariant and lies inside [min x(t), max x(t)]
        ref = float(pi @ x0) * np.ones_like(x0)
        bound = tol + 1e-9 * scale
    else:
        ref = pi * x0.sum()
        bound = 20.0 * tol / (1.0 - second_modulus(a)) + 1e-9 * scale
    err = float(np.abs(x - ref).max())
    if err > bound:
        problems.append(f"final state {err:.3e} from the consensus limit (bound {bound:.3e})")
    if "analysis" in doc and doc["analysis"].get("compute_diameter"):
        _check_diameter(doc, summary, problems)


def _dual_image(S_power: np.ndarray, proj: np.ndarray) -> np.ndarray:
    n = proj.shape[0]
    image = (S_power.conj().T @ proj.reshape(-1)).reshape(n, n)
    return 0.5 * (image + image.conj().T)


def _radius_value(image: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(image)
    if ev[0] <= PD_FLOOR * max(1.0, ev[-1]):
        return math.inf
    return float(math.log(ev[-1]) - math.log(ev[0]))


def _check_radius(doc, summary, S, n, problems) -> bool:
    est = doc["analysis"]["estimate_image_radius"]
    rad = summary["image_radius"]
    Sk = np.linalg.matrix_power(S, est["power"])
    lower = _inf_or_float(rad["lower"])
    witness = _complex(rad["witness"])
    at_witness = _radius_value(_dual_image(Sk, witness))
    if not _close(at_witness, lower, rel=1e-7, abs_=1e-9):
        problems.append(f"radius {lower!r} but the witness gives {at_witness!r}")
    basis = max(
        _radius_value(_dual_image(Sk, np.diag(np.eye(n)[k]).astype(complex))) for k in range(n)
    )
    if lower < basis - 1e-9:
        problems.append(f"radius {lower!r} below the basis-probe value {basis!r}")
    if _inf_or_float(rad["upper"]) != 2.0 * lower:
        problems.append("bracket upper end is not twice the lower end")
    if math.isfinite(lower):
        if rad["samples_drawn"] != est["samples"] + n:
            problems.append(f"samples_drawn {rad['samples_drawn']}")
        if not _close(rad["contraction_factor"], math.tanh(lower / 2.0)):
            problems.append("bracket factor is not tanh(upper / 4)")
    return math.isfinite(lower)


def _check_quantum(doc: dict, summary: dict, problems: list) -> None:
    n = doc["dimension"]
    ops = kraus_operators(doc)
    S = superoperator(ops)
    rho = fixed_point(S, n)
    x0 = _complex(doc["initial_state"])
    final = _complex(summary["final_state"])
    tol = doc["stop"]["tolerance"]
    if doc["kind"] == "quantum_dual":
        # tr(rho X(t)) is invariant and lies inside the spectral interval
        c = float(np.trace(rho @ x0).real)
        err = float(np.abs(np.linalg.eigvalsh(final - c * np.eye(n))).max())
        bound = tol + 1e-9 * max(1.0, abs(c))
    else:
        err = float(np.linalg.norm(final - rho))
        bound = 20.0 * tol / (1.0 - second_modulus(S)) + 1e-9
    if err > bound:
        problems.append(f"final state {err:.3e} from the limit (bound {bound:.3e})")

    analysis = doc.get("analysis", {})
    finite = None
    if analysis.get("estimate_image_radius"):
        finite = _check_radius(doc, summary, S, n, problems)
        if finite and summary["certified_contraction_factor"] != summary["image_radius"]["contraction_factor"]:
            problems.append("run factor differs from the bracket factor")
    if analysis.get("fixed_point"):
        fp = summary["fixed_point"]
        err = float(np.linalg.norm(_complex(fp["matrix"]) - rho))
        if err > 1e-8:
            problems.append(f"fixed point {err:.3e} from the null-space reference")
        if not (fp["unique"] and fp["eigenvalue_one_multiplicity"] == 1 and fp["residual"] <= 1e-10):
            problems.append(f"fixed point report {fp['unique']}, {fp['eigenvalue_one_multiplicity']}, {fp['residual']}")
        if fp["hypothesis_certified"] != finite:
            problems.append(f"hypothesis_certified {fp['hypothesis_certified']} vs {finite}")
    if analysis.get("duality_check"):
        _check_duality(doc, summary, S, rho, x0, problems)


def _check_duality(doc, summary, S, rho, x0, problems) -> None:
    n = doc["dimension"]
    dual = summary["duality"]
    steps = doc["analysis"].get("duality_steps", 200)
    if doc["kind"] == "quantum_channel":
        z, x = x0, np.zeros((n, n), dtype=complex)
        x[0, 0] = 1.0
    else:
        z, x = np.eye(n, dtype=complex) / n, x0
    zt = (np.linalg.matrix_power(S, steps) @ z.reshape(-1)).reshape(n, n)
    pairing = float(np.trace(zt @ x).real)
    if not (dual["ok"] and dual["max_pairing_error"] <= 1e-10 and dual["steps"] == steps):
        problems.append(f"duality report {dual['ok']}, {dual['max_pairing_error']}")
    if not _close(dual["final_pairing_value"], pairing, rel=1e-9, abs_=1e-10):
        problems.append(f"pairing {dual['final_pairing_value']!r} vs reference {pairing!r}")
    if doc.get("analysis", {}).get("fixed_point"):
        limit = float(np.trace(rho @ x).real)
        if not _close(dual["limit_value"], limit, rel=1e-8, abs_=1e-9):
            problems.append(f"pairing limit {dual['limit_value']!r} vs reference {limit!r}")


def check(case: dict, output: dict) -> list[str]:
    """Problems found in one run's output; an empty list means it passed.

    `output` holds the run's parsed `summary` and the row count of its trace
    CSV (`csv_rows`, header included).
    """
    doc, summary = case["doc"], output["summary"]
    problems: list[str] = []
    if summary["status"] != case["expect"]:
        return [f"status {summary['status']!r}, construction implies {case['expect']!r}"]
    if summary["iterations"] > doc["stop"]["max_iterations"]:
        problems.append("iterations exceed the budget")
    if output["csv_rows"] != summary["iterations"] + 2:
        problems.append(f"trace has {output['csv_rows']} lines for {summary['iterations']} iterations")
    if doc["kind"] in ("classical", "classical_dual"):
        _check_classical(doc, summary, case["expect"], problems)
    else:
        _check_quantum(doc, summary, problems)
    return problems
