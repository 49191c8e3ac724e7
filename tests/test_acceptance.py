"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite stays within desk scale (n <= 16, <= 1e5 iterations,
<= 1e4 fuzz cases) and finishes in well under a minute.
"""
import json
import math
from contextlib import contextmanager

import numpy as np

from conesim import (
    StochasticMatrixSequence,
    StoppingRule,
    apply_channel,
    apply_dual,
    build_classical_embedding,
    builtin_example,
    channel_fixed_point,
    check_birkhoff_contraction,
    contraction_ratio,
    duality_invariant_check,
    eigenvalues,
    estimate_image_radius,
    hilbert_distance_orthant,
    hilbert_distance_psd,
    kraus_power,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    projective_diameter,
    random_kraus_map,
    random_stochastic_matrix,
    run_consensus,
    run_noncommutative_consensus,
    serialize_scenario,
    spontaneous_emission_spectral_shift,
)
from conesim.cli import main as cli_main
from helpers import random_density, random_hermitian, random_positive_definite

LEADER = np.array([[1.0, 0.0], [0.25, 0.75]])


@contextmanager
def criterion(cid, title):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {cid}: {title}")
        raise
    print(f"[PASS] criterion {cid}: {title}")


def induced_diagonal_map(kraus, n=2):
    cols = []
    for k in range(n):
        basis = np.zeros((n, n), dtype=complex)
        basis[k, k] = 1.0
        cols.append(np.diagonal(apply_dual(kraus, basis)).real)
    return np.column_stack(cols)


def test_criterion_01_metric_axioms_and_projective_invariance():
    with criterion(1, "Hilbert orthant metric axioms and projective invariance"):
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            x, y, z = 10.0 ** rng.uniform(-6.0, 6.0, (3, n))
            d_xy = hilbert_distance_orthant(x, y)
            assert hilbert_distance_orthant(y, x) == d_xy
            assert hilbert_distance_orthant(x, z) <= d_xy + hilbert_distance_orthant(y, z) + 1e-10
            alpha, beta = 10.0 ** rng.uniform(-6.0, 6.0, 2)
            assert abs(hilbert_distance_orthant(alpha * x, beta * y) - d_xy) <= 1e-12


def test_criterion_02_tsitsiklis_monotonicity():
    with criterion(2, "spread Lyapunov function non-increasing along random sequences"):
        densities = (None, 0.7, 0.4)
        for trial in range(1000):
            n = 2 + trial % 9
            seq = StochasticMatrixSequence.random_iid(
                n, seed=trial, length=100, density=densities[trial % 3]
            )
            rng = np.random.default_rng(10_000 + trial)
            x0 = rng.uniform(-1.0, 2.0, n)
            trace = run_consensus(seq, x0, StoppingRule(0.0, 100))
            vals = trace.lyapunov_values()
            assert len(vals) == 101
            assert all(b <= a + 1e-13 for a, b in zip(vals, vals[1:]))


def test_criterion_03_birkhoff_contraction():
    with criterion(3, "Birkhoff contraction bound with exact O(n^4) diameter"):
        rng = np.random.default_rng(303)
        for trial in range(1000):
            n = 2 + trial % 7
            a = rng.uniform(0.05, 1.0, (n, n))
            pairs = [
                (10.0 ** rng.uniform(-2.0, 2.0, n), 10.0 ** rng.uniform(-2.0, 2.0, n))
                for _ in range(10)
            ]
            report = check_birkhoff_contraction(a, pairs, slack=1e-9)
            assert report.certified
            assert report.violations == 0
        symmetric = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        factor = contraction_ratio(projective_diameter(symmetric))
        assert abs(factor - 1.0 / 3.0) <= 1e-12


def test_criterion_04_leader_example_reproduction():
    with criterion(4, "two-node leader example: convergence despite infinite diameter"):
        trace = run_consensus(LEADER, [1.0, 2.0], StoppingRule(1e-10, 100))
        assert trace.status.value == "converged"
        assert trace.iterations <= 100
        assert np.max(np.abs(trace.final_state - np.array([1.0, 1.0]))) < 1e-8
        for k in range(1, 11):
            assert not projective_diameter(np.linalg.matrix_power(LEADER, k)).is_finite


def _map_population(count):
    rng = np.random.default_rng(505)
    maps = []
    for trial in range(count):
        n = 2 + trial % 5
        m = 1 + trial % 4
        maps.append((random_kraus_map(n, m, rng), n, rng))
    return maps


def test_criterion_05_spectral_interval_nesting():
    with criterion(5, "spectral interval nesting under random dual maps"):
        for phi, n, rng in _map_population(1000):
            for _ in range(10):
                x = random_hermitian(rng, n)
                before = eigenvalues(x)
                after = eigenvalues(apply_dual(phi, x))
                assert after[0] >= before[0] - 1e-10
                assert after[-1] <= before[-1] + 1e-10


def test_criterion_06_hilbert_lyapunov_monotonicity():
    with criterion(6, "Hilbert distance to identity non-increasing along runs"):
        for phi, n, rng in _map_population(1000):
            x0 = random_positive_definite(rng, n)
            trace = run_noncommutative_consensus(phi, x0, StoppingRule(1e-14, 40))
            vals = trace.lyapunov_values()
            assert len(vals) == len(trace.records)
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_criterion_07_spin_rotation_reproduction():
    with criterion(7, "mixed-rotation channel: contraction to I/2 and finite image radius"):
        phi = make_spin_rotation_map(0.7, 1.1, 0.3)
        z = np.diag([1.0, 0.0]).astype(complex)
        half = np.eye(2) / 2
        reached = None
        for t in range(1, 501):
            z = apply_channel(phi, z)
            if eigenvalues(z)[0] > 1e-12 and hilbert_distance_psd(z, half) < 1e-8:
                reached = t
                break
        assert reached is not None

        estimate = estimate_image_radius(kraus_power(phi, 2), samples=10_000, seed=707)
        assert estimate.radius.is_finite

        half_turn = make_spin_rotation_map(0.7, math.pi / 2, 0.3)
        induced = induced_diagonal_map(half_turn)
        target = np.array([[0.3, 0.7], [0.7, 0.3]])
        assert np.max(np.abs(induced - target)) <= 1e-13


def test_criterion_08_emission_closed_form():
    with criterion(8, "emission map: closed-form interval shifts and absorption"):
        rng = np.random.default_rng(808)
        for gamma in (0.1, 0.5, 0.9):
            psi = make_spontaneous_emission_map(gamma)
            for _ in range(1000):
                x = random_hermitian(rng, 2)
                rho_plus, rho_minus = spontaneous_emission_spectral_shift(x, gamma)
                before = eigenvalues(x)
                after = eigenvalues(apply_dual(psi, x))
                assert abs(after[0] - (before[0] + rho_plus)) <= 1e-12
                assert abs(after[-1] - (before[-1] - rho_minus)) <= 1e-12

        trace = run_noncommutative_consensus(
            make_spontaneous_emission_map(0.2), np.diag([1.0, 0.0]), StoppingRule(1e-9, 2000)
        )
        assert np.max(np.abs(trace.final_state - np.eye(2))) < 1e-8

        for gamma in (0.1, 0.5, 0.9):
            induced = induced_diagonal_map(make_spontaneous_emission_map(gamma))
            target = np.array([[1.0, 0.0], [gamma**2, 1.0 - gamma**2]])
            # exact up to one rounding unit: sqrt(1-g^2)^2 may differ from
            # 1-g^2 by 1 ulp
            assert np.max(np.abs(induced - target)) <= np.spacing(1.0)


def test_criterion_09_fixed_points_and_duality():
    with criterion(9, "channel fixed points and the pairing invariant"):
        spin = make_spin_rotation_map(0.7, 1.1, 0.3)
        emission = make_spontaneous_emission_map(0.2)

        fp_spin = channel_fixed_point(spin)
        assert fp_spin.residual <= 1e-10
        assert np.max(np.abs(fp_spin.density.matrix - np.eye(2) / 2)) <= 1e-8

        fp_emission = channel_fixed_point(emission)
        assert fp_emission.residual <= 1e-10
        assert np.max(np.abs(fp_emission.density.matrix - np.diag([1.0, 0.0]))) <= 1e-8

        rng = np.random.default_rng(909)
        for psi, zbar in ((spin, fp_spin.density.matrix), (emission, fp_emission.density.matrix)):
            for _ in range(20):
                z0 = random_density(rng, 2)
                x0 = random_hermitian(rng, 2)
                report = duality_invariant_check(psi, z0, x0, t_max=200, zbar=zbar)
                assert report.max_pairing_error <= 1e-10
                # pairing converges to its stationary value at the run's own
                # convergence horizon
                z = z0.copy()
                for _ in range(5000):
                    z_next = apply_channel(psi, z)
                    step = float(np.linalg.norm(z_next - z))
                    z = z_next
                    if step < 1e-12:
                        break
                pairing = float(np.trace(z @ x0).real)
                stationary = float(np.trace(zbar @ x0).real)
                assert abs(pairing - stationary) <= 1e-7


def test_criterion_10_embedding_equivalence():
    with criterion(10, "classical averaging embeds exactly into the matrix cone"):
        rng = np.random.default_rng(1010)
        for trial in range(100):
            n = 2 + trial % 5
            a = random_stochastic_matrix(n, rng)
            embedding = build_classical_embedding(a)
            gram = sum(v.conj().T @ v for v in embedding.operators)
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
            x = rng.uniform(0.1, 3.0, n)
            state = np.diag(x).astype(complex)
            for _ in range(100):
                state = apply_dual(embedding, state)
                x = a.entries @ x
                assert np.max(np.abs(np.diagonal(state).real - x)) <= 1e-11


def test_criterion_11_harness_determinism_and_exit_codes(tmp_path):
    with criterion(11, "scenario harness determinism and exit-code contract"):
        for name in ("example1", "example2", "example3"):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_scenario(builtin_example(name)))
            codes = []
            for run_id in ("r1", "r2"):
                codes.append(
                    cli_main(["run", str(path), "--out-dir", str(tmp_path / name / run_id)])
                )
            assert codes == [0, 0]
            b1 = (tmp_path / name / "r1" / "trace.csv").read_bytes()
            b2 = (tmp_path / name / "r2" / "trace.csv").read_bytes()
            assert b1 == b2

        stuck = {
            "kind": "classical",
            "dimension": 2,
            "dynamics": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "initial_state": [0.0, 1.0],
            "stop": {"tolerance": 1e-10, "max_iterations": 50},
        }
        stuck_path = tmp_path / "stuck.json"
        stuck_path.write_text(json.dumps(stuck))
        assert cli_main(["run", str(stuck_path), "--out-dir", str(tmp_path / "stuck")]) == 2

        invalid = dict(stuck, dynamics={"matrix": [[1.0, 0.0], [0.4, 0.5]]})
        invalid_path = tmp_path / "invalid.json"
        invalid_path.write_text(json.dumps(invalid))
        assert cli_main(["run", str(invalid_path), "--out-dir", str(tmp_path / "invalid")]) == 1
