"""Seeded scenario generators for the benchmark workloads.

Everything here is plain numpy and never imports conesim: the benchmark
builds scenario JSON documents from a seed and hands them to conesim as a
user would. The same seed gives byte-identical documents.

Each generated case is a dict with
    id             stable name inside the workload ("c07-n64-classical")
    doc            the scenario JSON object (None for cli-examples, whose
                   documents are the built-ins as `conesim examples emit`
                   prints them)
    expect         the terminal status the construction implies
    seed_override  cli-examples only: the sampling seed passed to the CLI
"""
from __future__ import annotations

import math
import zlib

import numpy as np

WORKLOADS = ("classical-trajectories", "quantum-trajectories", "certificates", "cli-examples")

CLI_EXAMPLES = ("example1", "example2", "example3")

# ln(1e6): how far a trajectory's convergence measure shrinks when its mixing
# rate allows; well above the 1e-10 rounding floor of stop_tolerance
LN_TOL_RANGE = 13.8

# Iterations per trajectory. They are fixed rather than drawn so that every
# seed asks for the same amount of work (the seed draws the weights), and set
# so that most trajectories take about the same time (~55 ms here) while a
# few heavy ones take 2-4x as long. Scenario latencies then fall into a
# typical cluster, holding the median, and a heavy cluster, holding the tail,
# instead of a ladder whose close rungs would swap places run to run.
CLASSICAL_STEPS = 1200  # ~46 us per step with both Lyapunov records
CLASSICAL_DUAL_STEPS = 3500  # ~16 us per step, no Lyapunov record
CLASSICAL_HEAVY_STEPS = 2600
QUANTUM_STEPS = {2: 1250, 4: 1250, 8: 1050, 32: 1000}  # ~52, 52, 62, 225 us per step


def rng_for(workload: str, seed: int) -> np.random.Generator:
    # numpy seeds must be non-negative; the modulus keeps any int usable
    return np.random.default_rng([seed % 2**64, zlib.crc32(workload.encode())])


def _pairs(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def lazy_cycle(n: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Row-stochastic lazy walk on a cycle with random forward/backward weights.

    Mixing takes ~n^2/scale steps, which is what makes these trajectories long.
    """
    fwd = scale * rng.uniform(0.5, 1.5, n)
    bwd = scale * rng.uniform(0.5, 1.5, n)
    a = np.diag(1.0 - fwd - bwd)
    idx = np.arange(n)
    a[idx, (idx + 1) % n] += fwd
    a[idx, (idx - 1) % n] += bwd
    return a / a.sum(axis=1, keepdims=True)


def _cycle_scale(n: int, steps: int) -> float:
    # spectral gap of a uniform lazy cycle is ~ scale * (2 - 2 cos(2 pi / n));
    # aim it at LN_TOL_RANGE / steps, capped so the diagonal stays >= 0.1
    gap_unit = 2.0 - 2.0 * math.cos(2.0 * math.pi / n)
    return min(0.3, (LN_TOL_RANGE / steps) / gap_unit)


def banded(n: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Row-stochastic band matrix (|i-j| <= width, no wrap-around): the k-th
    power is entrywise positive exactly when k * width >= n - 1."""
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) <= width
    a = rng.uniform(0.2, 1.0, (n, n)) * mask
    return a / a.sum(axis=1, keepdims=True)


def random_kraus(n: int, m: int, rng: np.random.Generator) -> list:
    """m random operators from a QR-orthonormalized Gaussian block."""
    g = rng.standard_normal((m * n, n)) + 1j * rng.standard_normal((m * n, n))
    q, _ = np.linalg.qr(g)
    return [q[i * n : (i + 1) * n, :] for i in range(m)]


def mix_identity(ops: list, eps: float) -> list:
    """Kraus operators of (1 - eps) id + eps * map: a slowly mixing map."""
    n = ops[0].shape[0]
    mixed = [math.sqrt(eps) * v for v in ops]
    if eps < 1.0:
        mixed.insert(0, math.sqrt(1.0 - eps) * np.eye(n, dtype=complex))
    return mixed


def superoperator(ops) -> np.ndarray:
    """Row-major Liouville matrix of Z -> sum V Z V*: vec(V Z V*) = (V kron conj V) vec Z."""
    return sum(np.kron(v, v.conj()) for v in ops)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = g @ g.conj().T + 0.1 * np.eye(n)
    z = 0.5 * (z + z.conj().T)
    return z / np.trace(z).real


def random_pd(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = g @ g.conj().T / n + 0.2 * np.eye(n)
    return 0.5 * (x + x.conj().T)


def stop_tolerance(measure: list) -> tuple[float, int]:
    """Tolerance that stops a run exactly at the last new minimum of its
    convergence measure, and that step.

    `measure[t]` is the quantity the run compares with the tolerance after
    step t (inf where it does not check). Values below 1e-10 of the first
    finite one are rounding noise and are not used. The tolerance is the
    geometric mean of the chosen minimum and the one before it, so rounding
    differences between this simulation and conesim cannot move the step.
    """
    floor = 1e-10 * next(v for v in measure if math.isfinite(v))
    best, stop, prev_best = math.inf, 0, math.inf
    for t, v in enumerate(measure):
        if floor <= v < best:
            prev_best, best, stop = best, v, t
    return math.sqrt(best * prev_best), stop


def _spreads(a: np.ndarray, x: np.ndarray, steps: int) -> list:
    out = [float(x.max() - x.min())]
    for _ in range(steps):
        x = a @ x
        out.append(float(x.max() - x.min()))
    return out


def _step_sizes(a: np.ndarray, z: np.ndarray, steps: int) -> list:
    out = [math.inf]
    for _ in range(steps):
        z_new = a @ z
        out.append(float(np.abs(z_new - z).max()))
        z = z_new
    return out


# --- classical-trajectories ---------------------------------------------------


def _classical_case(n: int, kind: str, steps: int, rng: np.random.Generator) -> dict:
    a = lazy_cycle(n, _cycle_scale(n, steps), rng)
    x0 = rng.uniform(0.5, 2.0, n)
    if kind == "classical":
        tol, steps = stop_tolerance(_spreads(a, x0, steps))
    else:
        tol, steps = stop_tolerance(_step_sizes(a.T, x0, steps))
    doc = {
        "kind": kind,
        "dimension": n,
        "dynamics": {"matrix": a.tolist()},
        "initial_state": x0.tolist(),
        "stop": {"tolerance": tol, "max_iterations": 2 * steps + 1000},
    }
    return {"doc": doc, "expect": "converged"}


def _sequence_case(n: int, length: int, rng: np.random.Generator) -> dict:
    """Finite sequence that runs out before it converges."""
    scale = _cycle_scale(n, 4 * length)
    mats = [lazy_cycle(n, scale, rng) for _ in range(length)]
    x = x0 = rng.uniform(0.5, 2.0, n)
    for a in mats:
        x = a @ x
    # the spread never grows, so it stays above the tolerance all the way
    tol = float(x.max() - x.min()) / 100.0
    doc = {
        "kind": "classical",
        "dimension": n,
        "dynamics": {"matrices": [a.tolist() for a in mats]},
        "initial_state": x0.tolist(),
        "stop": {"tolerance": tol, "max_iterations": length + 1000},
    }
    return {"doc": doc, "expect": "incomplete_sequence"}


def classical_trajectories(rng: np.random.Generator) -> list[dict]:
    cases = []
    for n in (8, 32, 64, 128):
        cases += [_classical_case(n, "classical", CLASSICAL_STEPS, rng) for _ in range(2)]
        cases.append(_classical_case(n, "classical_dual", CLASSICAL_DUAL_STEPS, rng))
        cases.append(_classical_case(n, "classical", CLASSICAL_HEAVY_STEPS, rng))
    cases.append(_sequence_case(8, 400, rng))
    cases.append(_sequence_case(32, 40, rng))
    cases.append(_classical_case(64, "classical", CLASSICAL_STEPS, rng))
    cases.append(_classical_case(128, "classical", CLASSICAL_STEPS, rng))
    cases.append(_classical_case(128, "classical_dual", CLASSICAL_DUAL_STEPS, rng))
    return cases


# --- quantum-trajectories -----------------------------------------------------


def _mixing_weight(base: list, steps: int) -> float:
    """Weight eps of the random map in (1 - eps) id + eps * map such that the
    slowest mode shrinks by exp(-LN_TOL_RANGE) over `steps` steps."""
    n = base[0].shape[0]
    if n > 8:
        # the n^2 x n^2 spectrum is too costly here; random maps concentrate
        # their subleading eigenvalues near 1/sqrt(m)
        return min(1.0, (LN_TOL_RANGE / steps) / (1.0 - 1.0 / math.sqrt(len(base))))
    ev = np.linalg.eigvals(superoperator(base))
    ev = ev[np.argsort(np.abs(ev))][:-1]  # drop the leading eigenvalue 1
    target = math.exp(-LN_TOL_RANGE / steps)
    lo, hi = 0.0, 1.0  # the rate 1 - eps (1 - lambda) falls as eps grows
    for _ in range(60):
        eps = 0.5 * (lo + hi)
        if np.abs(1.0 - eps + eps * ev).max() > target:
            lo = eps
        else:
            hi = eps
    return hi


def _quantum_case(n: int, m: int, kind: str, steps: int, rng: np.random.Generator) -> dict:
    base = random_kraus(n, m, rng)
    ops = mix_identity(base, _mixing_weight(base, steps))
    if kind == "quantum_dual":
        x0 = random_pd(n, rng)
        states = _trajectory([v.conj().T for v in ops], x0, steps)
        ev = np.linalg.eigvalsh(states)
        tol, steps = stop_tolerance((ev[:, -1] - ev[:, 0]).tolist())
    else:
        x0 = random_density(n, rng)
        states = _trajectory(ops, x0, steps)
        moves = np.linalg.norm(np.diff(states, axis=0), axis=(1, 2))
        tol, steps = stop_tolerance([math.inf] + moves.tolist())
    doc = {
        "kind": kind,
        "dimension": n,
        "dynamics": {"kraus_operators": [_pairs(v) for v in ops]},
        "initial_state": _pairs(x0),
        "stop": {"tolerance": tol, "max_iterations": 2 * steps + 1000},
    }
    return {"doc": doc, "expect": "converged"}


def _trajectory(ops: list, x: np.ndarray, steps: int) -> np.ndarray:
    """States x(0..steps) under x -> sum V x V*, stacked."""
    out = np.empty((steps + 1,) + x.shape, dtype=complex)
    out[0] = x
    for t in range(steps):
        x = sum(v @ x @ v.conj().T for v in ops)
        x = 0.5 * (x + x.conj().T)
        out[t + 1] = x
    return out


def quantum_trajectories(rng: np.random.Generator) -> list[dict]:
    cases = []
    for n in (2, 4, 8):
        steps = QUANTUM_STEPS[n]
        for m in (3, 4):
            cases.append(_quantum_case(n, m, "quantum_dual", steps, rng))
            cases.append(_quantum_case(n, m, "quantum_channel", steps, rng))
    # the heavy cluster; no channel runs at n = 32, where the oracle's rate
    # estimate would need the full n^2 x n^2 spectrum
    for m in (3, 4, 3):
        cases.append(_quantum_case(32, m, "quantum_dual", QUANTUM_STEPS[32], rng))
    return cases


# --- certificates -------------------------------------------------------------


def _diameter_case(
    n: int, kind: str, finite_at: int, rng: np.random.Generator, powers: int | None = None
) -> dict:
    """Band matrix whose products first become positive at power finite_at;
    the diameter windows cover powers 1..powers (default finite_at + 1)."""
    width = -(-(n - 1) // finite_at)  # ceil: the finite_at-th product is positive
    a = banded(n, width, rng)
    x0 = rng.uniform(0.5, 2.0, n)
    doc = {
        "kind": kind,
        "dimension": n,
        "dynamics": {"matrix": a.tolist()},
        "initial_state": x0.tolist(),
        "stop": {"tolerance": 1e-8, "max_iterations": 100_000},
        "analysis": {"compute_diameter": True, "diameter_powers": powers or finite_at + 1},
    }
    return {"doc": doc, "expect": "converged"}


def _analysis_case(
    n: int,
    m: int,
    kind: str,
    rng: np.random.Generator,
    power: int | None,
    samples: int = 1000,
    fixed_point: bool = True,
    duality: bool = True,
) -> dict:
    ops = random_kraus(n, m, rng)
    x0 = random_pd(n, rng) if kind == "quantum_dual" else random_density(n, rng)
    analysis: dict = {"fixed_point": fixed_point, "duality_check": duality, "duality_steps": 100}
    if power is not None:
        analysis["estimate_image_radius"] = {
            "samples": samples,
            "seed": int(rng.integers(0, 2**31)),
            "power": power,
        }
    doc = {
        "kind": kind,
        "dimension": n,
        "dynamics": {"kraus_operators": [_pairs(v) for v in ops]},
        "initial_state": _pairs(x0),
        "stop": {"tolerance": 1e-11, "max_iterations": 100_000},
        "analysis": analysis,
    }
    return {"doc": doc, "expect": "converged"}


def _spin_case(rng: np.random.Generator, power: int) -> dict:
    # odd numerators over 32 or 64 keep clear of the degenerate angle cases,
    # and angles away from 0 and pi/2 keep the run short
    alpha = f"{2 * int(rng.integers(2, 6)) + 1}/32"
    beta = f"{2 * int(rng.integers(4, 12)) + 1}/64"
    doc = {
        "kind": "quantum_channel",
        "dimension": 2,
        "dynamics": {
            "builder": {
                "name": "spin_rotation",
                "alpha_over_pi": alpha,
                "beta_over_pi": beta,
                "p": float(rng.uniform(0.3, 0.7)),
            }
        },
        "initial_state": _pairs(random_density(2, rng)),
        "stop": {"tolerance": 1e-12, "max_iterations": 100_000},
        "analysis": {
            "estimate_image_radius": {
                "samples": 2000,
                "seed": int(rng.integers(0, 2**31)),
                "power": power,
            },
            "fixed_point": True,
            "duality_check": True,
        },
    }
    return {"doc": doc, "expect": "converged"}


def certificates(rng: np.random.Generator) -> list[dict]:
    # every radius target has full Kraus rank (m^power >= n^2), so its image
    # radius is finite and the sampled estimate has a finite limit; the two
    # n = 64 cases, each with one finite O(n^4) window, are the heavy cluster
    return [
        _diameter_case(64, "classical", 2, rng, powers=2),
        _diameter_case(64, "classical", 2, rng, powers=2),
        _diameter_case(32, "classical", 4, rng),
        _diameter_case(32, "classical_dual", 3, rng),
        _diameter_case(24, "classical", 2, rng),
        _diameter_case(16, "classical", 3, rng),
        _diameter_case(16, "classical_dual", 2, rng),
        _diameter_case(8, "classical", 2, rng),
        _analysis_case(2, 4, "quantum_dual", rng, power=4),  # 256 operators
        _analysis_case(4, 4, "quantum_channel", rng, power=3),  # 64 operators
        _analysis_case(8, 8, "quantum_channel", rng, power=2),  # 64 operators
        _analysis_case(3, 3, "quantum_dual", rng, power=2, samples=200),
        _analysis_case(16, 3, "quantum_dual", rng, power=None, duality=False),
        _analysis_case(12, 2, "quantum_dual", rng, power=None),
        _analysis_case(6, 3, "quantum_channel", rng, power=None, duality=False),
        _analysis_case(4, 3, "quantum_dual", rng, power=None, fixed_point=False),
        _spin_case(rng, power=3),
    ]


# --- warm-up -------------------------------------------------------------------


def warmup_cases() -> list[dict]:
    """Tiny fixed scenarios touching every code path once before timing."""
    rng = np.random.default_rng(12345)
    tiny = [
        _diameter_case(6, "classical", 2, rng),
        _diameter_case(6, "classical_dual", 2, rng),
        _analysis_case(2, 2, "quantum_dual", rng, power=2, samples=64),
        _analysis_case(3, 2, "quantum_channel", rng, power=1, samples=64),
    ]
    return [{"id": f"warmup{i}", **case} for i, case in enumerate(tiny)]


GENERATORS = {
    "classical-trajectories": classical_trajectories,
    "quantum-trajectories": quantum_trajectories,
    "certificates": certificates,
}


def generate(workload: str, seed: int) -> list[dict]:
    """Cases of one workload for one seed, in run order."""
    rng = rng_for(workload, seed)
    if workload == "cli-examples":
        return [
            {
                "id": name,
                "doc": None,
                "expect": "converged",
                "seed_override": int(rng.integers(0, 2**31)),
            }
            for name in CLI_EXAMPLES
        ]
    cases = GENERATORS[workload](rng)
    out = []
    for i, case in enumerate(cases):
        doc = case["doc"]
        out.append({"id": f"c{i:02d}-n{doc['dimension']}-{doc['kind']}", **case})
    return out
