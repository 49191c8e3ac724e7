import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import (
    DensityMatrix,
    DiameterBracket,
    ExtendedNonnegReal,
    KrausMap,
    StoppingRule,
    TerminalStatus,
    apply_channel,
    apply_dual,
    build_classical_embedding,
    channel_fixed_point,
    check_spectral_nesting,
    compose,
    duality_invariant_check,
    eigenvalues,
    estimate_image_radius,
    hilbert_distance_psd,
    kraus_power,
    make_spin_rotation_map,
    make_spontaneous_emission_map,
    random_kraus_map,
    random_stochastic_matrix,
    run_channel,
    run_noncommutative_consensus,
    spin_rotation_special_cases,
    spontaneous_emission_spectral_shift,
)
from helpers import (
    random_density,
    random_hermitian,
    random_positive_definite,
    reference_classical_embedding,
)

SPIN = dict(alpha=0.7, beta=1.1, p=0.3)


def spin_map():
    return make_spin_rotation_map(**SPIN)


class TestKrausMap:
    def test_rejects_invalid_sum(self):
        with pytest.raises(ValueError, match="deviates from identity"):
            KrausMap((np.eye(2, dtype=complex) * 0.9,))

    def test_no_silent_renormalization(self):
        ops = (0.9 * np.eye(2, dtype=complex), 0.2 * np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(ValueError, match="deviates from identity"):
            KrausMap(ops)

    def test_unital_flags(self):
        assert spin_map().is_unital_channel
        assert not make_spontaneous_emission_map(0.2).is_unital_channel

    def test_needs_at_least_one_operator(self):
        with pytest.raises(ValueError):
            KrausMap(())

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            KrausMap((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))


class TestDualAction:
    def test_unitality(self):
        phi = spin_map()
        assert np.max(np.abs(apply_dual(phi, np.eye(2)) - np.eye(2))) <= 1e-10

    def test_scalar_matrices_fixed(self):
        phi = spin_map()
        for alpha in (-2.0, 0.5, 3.0):
            out = apply_dual(phi, alpha * np.eye(2))
            assert np.max(np.abs(out - alpha * np.eye(2))) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(1)
        phi = random_kraus_map(3, 2, rng)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        lhs = apply_dual(phi, 2.0 * x + 0.3 * y)
        rhs = 2.0 * apply_dual(phi, x) + 0.3 * apply_dual(phi, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_single_unitary_preserves_spectrum(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        phi = KrausMap((q,))
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(eigenvalues(apply_dual(phi, x)), eigenvalues(x), atol=1e-11)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_dual(spin_map(), np.eye(3))

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_monotone_and_positive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        phi = random_kraus_map(n, int(rng.integers(1, 4)), rng)
        x = random_hermitian(rng, n)
        y = x + random_positive_definite(rng, n, floor=0.0)
        # order preserved: y - x PSD implies dual(y) - dual(x) PSD
        gap = apply_dual(phi, y) - apply_dual(phi, x)
        assert eigenvalues(gap)[0] >= -1e-10
        # interior preserved
        assert eigenvalues(apply_dual(phi, random_positive_definite(rng, n)))[0] > 0.0


class TestChannelAction:
    def test_unital_channel_fixes_maximally_mixed(self):
        out = apply_channel(spin_map(), np.eye(2) / 2)
        assert np.max(np.abs(out - np.eye(2) / 2)) <= 1e-12

    def test_emission_moves_excited_population(self):
        psi = make_spontaneous_emission_map(0.2)
        out = apply_channel(psi, np.diag([0.0, 1.0]))
        np.testing.assert_allclose(out, np.diag([0.04, 0.96]), atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_trace_preservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        psi = random_kraus_map(n, int(rng.integers(1, 5)), rng)
        z = random_hermitian(rng, n)
        assert abs(np.trace(apply_channel(psi, z)).real - np.trace(z).real) <= 1e-11

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_psd_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        psi = random_kraus_map(n, int(rng.integers(1, 5)), rng)
        z = random_density(rng, n)
        assert eigenvalues(apply_channel(psi, z))[0] >= -1e-10


class TestComposition:
    def test_operator_count(self):
        phi = spin_map()
        assert kraus_power(phi, 3).operator_count == 8

    def test_composition_matches_sequential_application(self):
        rng = np.random.default_rng(3)
        a = random_kraus_map(3, 2, rng)
        b = random_kraus_map(3, 3, rng)
        x = random_hermitian(rng, 3)
        z = random_density(rng, 3)
        comp = compose(a, b)
        np.testing.assert_allclose(
            apply_dual(comp, x), apply_dual(b, apply_dual(a, x)), atol=1e-12
        )
        np.testing.assert_allclose(
            apply_channel(comp, z), apply_channel(a, apply_channel(b, z)), atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(spin_map(), random_kraus_map(3, 2, 0))


class TestRunNoncommutativeConsensus:
    def test_scalar_start_converges_immediately(self):
        trace = run_noncommutative_consensus(spin_map(), 0.7 * np.eye(2))
        assert trace.status is TerminalStatus.CONVERGED
        assert trace.iterations == 0

    def test_spin_map_converges_to_half_identity(self):
        trace = run_noncommutative_consensus(
            spin_map(), np.diag([1.0, 0.0]), StoppingRule(1e-10, 1000)
        )
        assert trace.status is TerminalStatus.CONVERGED
        assert np.max(np.abs(trace.final_state - np.eye(2) / 2)) <= 1e-9

    def test_emission_map_adopts_excited_population(self):
        psi = make_spontaneous_emission_map(0.2)
        trace = run_noncommutative_consensus(
            psi, np.diag([1.0, 0.0]), StoppingRule(1e-10, 2000)
        )
        assert trace.status is TerminalStatus.CONVERGED
        assert np.max(np.abs(trace.final_state - np.eye(2))) <= 1e-9

    def test_lyapunov_column_non_increasing(self):
        rng = np.random.default_rng(4)
        phi = random_kraus_map(4, 3, rng)
        x0 = random_positive_definite(rng, 4)
        trace = run_noncommutative_consensus(phi, x0, StoppingRule(0.0, 60))
        vals = trace.lyapunov_values()
        assert len(vals) == 61
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        phi = random_kraus_map(3, 2, rng)
        x0 = random_hermitian(rng, 3)
        alpha = -1.7
        a = x0.copy()
        b = x0 + alpha * np.eye(3)
        for _ in range(60):
            a = apply_dual(phi, a)
            b = apply_dual(phi, b)
            assert np.max(np.abs(b - (a + alpha * np.eye(3)))) <= 1e-10

    def test_finite_map_list_exhaustion(self):
        maps = [spin_map()] * 3
        trace = run_noncommutative_consensus(maps, np.diag([1.0, 0.0]), StoppingRule(1e-12, 50))
        assert trace.status is TerminalStatus.INCOMPLETE_SEQUENCE
        assert trace.iterations == 3

    def test_indefinite_start_converges_inside_initial_interval(self):
        x0 = np.diag([1.0, -1.0])
        trace = run_noncommutative_consensus(spin_map(), x0, StoppingRule(1e-10, 2000))
        assert trace.status is TerminalStatus.CONVERGED
        c = float(np.trace(trace.final_state).real) / 2.0
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9
        assert np.max(np.abs(trace.final_state - c * np.eye(2))) <= 1e-9
        # spectral interval never widens along the run
        lo = [r.lambda_min for r in trace.records]
        hi = [r.lambda_max for r in trace.records]
        assert all(b >= a - 1e-12 for a, b in zip(lo, lo[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(hi, hi[1:]))


class TestRunChannel:
    def test_unital_fixed_point_converges_fast(self):
        trace = run_channel(spin_map(), np.eye(2) / 2, StoppingRule(1e-12, 10))
        assert trace.status is TerminalStatus.CONVERGED
        assert trace.iterations == 1

    def test_emission_absorbs_into_ground_state(self):
        psi = make_spontaneous_emission_map(0.3)
        trace = run_channel(psi, np.diag([0.0, 1.0]), StoppingRule(1e-13, 2000))
        assert trace.status is TerminalStatus.CONVERGED
        assert np.max(np.abs(trace.final_state - np.diag([1.0, 0.0]))) <= 1e-10

    def test_lyapunov_column_only_for_unital_channels(self):
        unital = run_channel(spin_map(), np.diag([1.0, 0.0]), StoppingRule(1e-10, 50))
        assert len(unital.lyapunov_values()) > 0
        non_unital = run_channel(
            make_spontaneous_emission_map(0.3), np.eye(2) / 2, StoppingRule(1e-10, 50)
        )
        assert non_unital.lyapunov_values() == []

    def test_rejects_non_density_start(self):
        with pytest.raises(ValueError, match="trace"):
            run_channel(spin_map(), np.eye(2))


class TestSpectralNesting:
    def test_identity_margins_zero(self):
        report = check_spectral_nesting(spin_map(), np.eye(2))
        assert report.satisfied
        assert report.min_margin == pytest.approx(0.0, abs=1e-12)
        assert report.max_margin == pytest.approx(0.0, abs=1e-12)

    def test_emission_hand_margins(self):
        gamma = 0.2
        report = check_spectral_nesting(
            make_spontaneous_emission_map(gamma), np.diag([1.0, 0.0])
        )
        assert report.satisfied
        assert report.min_margin == pytest.approx(gamma**2, abs=1e-14)
        assert report.max_margin == pytest.approx(0.0, abs=1e-14)
        assert report.after.lambda_min == pytest.approx(gamma**2, abs=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=100)
    def test_fuzz_random_maps_and_states(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        phi = random_kraus_map(n, int(rng.integers(1, 5)), rng)
        for _ in range(5):
            assert check_spectral_nesting(phi, random_hermitian(rng, n)).satisfied


class TestImageRadius:
    def test_identity_map_is_infinite_on_first_probe(self):
        ident = KrausMap((np.eye(2, dtype=complex),))
        est = estimate_image_radius(ident, samples=10, seed=0)
        assert not est.radius.is_finite
        assert est.samples_drawn == 1
        # witness is a rank-1 projector
        assert np.linalg.matrix_rank(est.attained_at) == 1

    def test_spin_square_is_finite(self):
        est = estimate_image_radius(kraus_power(spin_map(), 2), samples=2000, seed=0)
        assert est.radius.is_finite
        assert est.radius.value > 0.0

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_emission_powers_are_infinite(self, k):
        psi = make_spontaneous_emission_map(0.2)
        est = estimate_image_radius(kraus_power(psi, k), samples=50, seed=3)
        assert not est.radius.is_finite
        # the witness projector really maps to a singular matrix: exact-rank
        # oracle applies the base dual k times, independent of the composition
        img = est.attained_at
        for _ in range(k):
            img = apply_dual(psi, img)
        assert np.linalg.matrix_rank(img, tol=1e-12) < 2

    def test_grid_oracle_confirms_infinite_radius(self):
        # exact rank over a grid of projectors including the coordinate poles
        psi = make_spontaneous_emission_map(0.2)
        found_singular = False
        for i in range(25):
            theta = math.pi * i / 48.0
            x = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
            img = np.outer(x, x.conj())
            for _ in range(4):
                img = apply_dual(psi, img)
            if np.linalg.matrix_rank(img, tol=1e-12) < 2:
                found_singular = True
        assert found_singular

    def test_deterministic_for_fixed_seed(self):
        phi = kraus_power(spin_map(), 2)
        a = estimate_image_radius(phi, samples=500, seed=42)
        b = estimate_image_radius(phi, samples=500, seed=42)
        assert a.radius == b.radius
        assert np.array_equal(a.attained_at, b.attained_at)

    def test_haar_only_misses_null_set_witness(self):
        # without the deterministic pole probes the emission degeneracy is
        # almost surely invisible to Haar sampling
        psi = make_spontaneous_emission_map(0.2)
        est = estimate_image_radius(psi, samples=200, seed=11, include_basis_probes=False)
        assert est.radius.is_finite

    def test_radius_is_lower_bound_growing_with_samples(self):
        phi = kraus_power(spin_map(), 2)
        small = estimate_image_radius(phi, samples=50, seed=5)
        large = estimate_image_radius(phi, samples=5000, seed=5)
        assert small.radius <= large.radius


class TestDiameterBracket:
    def test_zero_radius(self):
        b = DiameterBracket.from_radius(ExtendedNonnegReal(0.0))
        assert (b.lower.value, b.upper.value) == (0.0, 0.0)
        assert b.contraction_factor == 0.0

    def test_infinite_radius(self):
        b = DiameterBracket.from_radius(ExtendedNonnegReal.infinite())
        assert not b.lower.is_finite and not b.upper.is_finite
        assert b.contraction_factor == 1.0

    def test_hand_value(self):
        b = DiameterBracket.from_radius(ExtendedNonnegReal(math.log(4)))
        assert b.upper.value == pytest.approx(math.log(16), abs=1e-12)
        assert b.contraction_factor == pytest.approx(3.0 / 5.0, abs=1e-12)

    def test_bracket_consistency_with_pairwise_distances(self):
        # high-sample radius; interior pairs must stay within twice of it
        phi = kraus_power(spin_map(), 2)
        r_inf = estimate_image_radius(phi, samples=20_000, seed=9).radius.value
        rng = np.random.default_rng(10)
        for _ in range(100):
            g1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x = 0.9 * np.outer(g1, g1.conj()) / np.linalg.norm(g1) ** 2 + 0.1 * np.eye(2) / 2
            y = 0.9 * np.outer(g2, g2.conj()) / np.linalg.norm(g2) ** 2 + 0.1 * np.eye(2) / 2
            d = hilbert_distance_psd(apply_dual(phi, x), apply_dual(phi, y))
            assert d <= 2.0 * r_inf + 1e-9


class TestChannelFixedPoint:
    def test_spin_map_fixed_point_is_maximally_mixed(self):
        result = channel_fixed_point(spin_map())
        assert result.unique
        assert result.residual <= 1e-10
        assert np.max(np.abs(result.density.matrix - np.eye(2) / 2)) <= 1e-10

    def test_emission_fixed_point_is_ground_state(self):
        result = channel_fixed_point(make_spontaneous_emission_map(0.2))
        assert result.unique
        assert result.residual <= 1e-10
        assert np.max(np.abs(result.density.matrix - np.diag([1.0, 0.0]))) <= 1e-10

    def test_unitary_channel_flags_non_uniqueness(self):
        result = channel_fixed_point(KrausMap((np.eye(2, dtype=complex),)))
        assert not result.unique
        assert result.eigenvalue_one_multiplicity > 1
        assert np.max(np.abs(result.density.matrix - np.eye(2) / 2)) <= 1e-12

    def test_distinct_spectrum_unitary_also_non_unique(self):
        v = np.diag([1.0, np.exp(0.71j)])
        result = channel_fixed_point(KrausMap((v,)))
        assert not result.unique
        assert result.eigenvalue_one_multiplicity == 2

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_random_channels_yield_valid_fixed_points(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        psi = random_kraus_map(n, int(rng.integers(2, 5)), rng)
        result = channel_fixed_point(psi)
        assert result.residual <= 1e-10
        z = result.density.matrix
        assert abs(np.trace(z).real - 1.0) <= 1e-12
        assert np.max(np.abs(apply_channel(psi, z) - z)) <= 1e-9


class TestSuperoperator:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_acts_as_channel_and_adjoint_as_dual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        psi = random_kraus_map(n, int(rng.integers(1, 5)), rng)
        S = psi.superoperator
        assert S.shape == (n * n, n * n)
        z, x = random_hermitian(rng, n), random_hermitian(rng, n)
        np.testing.assert_allclose(S @ z.ravel(), apply_channel(psi, z).ravel(), atol=1e-12)
        np.testing.assert_allclose(
            S.conj().T @ x.ravel(), apply_dual(psi, x).ravel(), atol=1e-12
        )

    def test_composition_is_the_product(self):
        rng = np.random.default_rng(6)
        a, b = random_kraus_map(3, 2, rng), random_kraus_map(3, 3, rng)
        np.testing.assert_allclose(
            compose(a, b).superoperator, a.superoperator @ b.superoperator, atol=1e-12
        )

    def test_each_access_builds_a_fresh_matrix(self):
        psi = spin_map()
        first = psi.superoperator
        first[:] = 0.0
        assert np.abs(psi.superoperator).max() > 0.5


class TestDuality:
    def test_zero_steps_trivially_equal(self):
        rng = np.random.default_rng(7)
        report = duality_invariant_check(
            spin_map(), random_density(rng, 2), random_hermitian(rng, 2), t_max=0
        )
        assert report.pairing_ok
        assert report.max_pairing_error <= 1e-14

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=20)
    def test_pairing_invariant_along_runs(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_kraus_map(2, 2, rng)
        report = duality_invariant_check(
            psi, random_density(rng, 2), random_hermitian(rng, 2), t_max=200
        )
        assert report.pairing_ok

    def test_limit_fields(self):
        psi = make_spontaneous_emission_map(0.5)
        zbar = channel_fixed_point(psi).density.matrix
        rng = np.random.default_rng(8)
        report = duality_invariant_check(
            psi, random_density(rng, 2), np.diag([1.0, 0.0]), t_max=300, zbar=zbar
        )
        assert report.limit_value == pytest.approx(1.0, abs=1e-9)
        assert report.limit_error <= 1e-7


class TestClassicalEmbedding:
    def test_identity_matrix_embeds_to_identity_action(self):
        emb = build_classical_embedding(np.eye(3))
        x = np.diag([1.0, 2.0, 3.0]).astype(complex)
        np.testing.assert_allclose(apply_dual(emb, x), x, atol=1e-14)

    def test_doubly_stochastic_two_by_two_display(self):
        p = 0.3
        A = np.array([[p, 1 - p], [1 - p, p]])
        emb = build_classical_embedding(A)
        out = apply_dual(emb, np.diag([1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(
            out, np.diag([p + 2 * (1 - p), 2 * p + (1 - p)]), atol=1e-14
        )

    def test_emission_factorization_recovered(self):
        # embedding the leader matrix reproduces the emission operators
        gamma = 0.2
        A = np.array([[1.0, 0.0], [gamma**2, 1.0 - gamma**2]])
        emb = build_classical_embedding(A)
        psi = make_spontaneous_emission_map(gamma)
        np.testing.assert_allclose(emb.operators[0], psi.operators[0], atol=1e-15)
        np.testing.assert_allclose(emb.operators[1], psi.operators[1], atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_diagonal_action_equals_matrix_action(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        A = random_stochastic_matrix(n, rng)
        emb = build_classical_embedding(A)
        gram = sum(V.conj().T @ V for V in emb.operators)
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
        x = rng.uniform(0.1, 5.0, n)
        out = apply_dual(emb, np.diag(x).astype(complex))
        np.testing.assert_allclose(np.diagonal(out).real, A.entries @ x, atol=1e-12)
        off = out - np.diag(np.diagonal(out))
        assert np.max(np.abs(off)) <= 1e-15

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            build_classical_embedding(np.array([[0.5, 0.4], [0.5, 0.5]]))

    @given(
        st.integers(1, 8),
        st.sampled_from([None, 0.2, 0.5]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=100)
    def test_operators_bit_identical_to_reference(self, n, density, negative_zeros, seed):
        entries = random_stochastic_matrix(n, np.random.default_rng(seed), density).entries
        if negative_zeros:
            entries = np.where(entries == 0.0, -0.0, entries)
        ops = build_classical_embedding(entries).operators
        ref = reference_classical_embedding(entries).operators
        assert ops.shape == ref.shape == (n, n, n) and ops.dtype == ref.dtype
        assert ops.tobytes() == ref.tobytes()


class TestSpinRotationMap:
    def test_p_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="p must be"):
                make_spin_rotation_map(0.7, 1.1, bad)

    def test_both_kraus_sums_are_identity(self):
        phi = spin_map()
        eye = np.eye(2)
        assert np.max(np.abs(sum(V.conj().T @ V for V in phi.operators) - eye)) <= 1e-15
        assert np.max(np.abs(sum(V @ V.conj().T for V in phi.operators) - eye)) <= 1e-15

    def test_degenerate_angles_fix_everything(self):
        phi = make_spin_rotation_map(0.0, 0.0, 0.4)
        rng = np.random.default_rng(9)
        x = random_hermitian(rng, 2)
        np.testing.assert_allclose(apply_dual(phi, x), x, atol=1e-15)

    def test_half_turn_beta_keeps_diagonals_invariant(self):
        phi = make_spin_rotation_map(0.7, math.pi / 2, 0.3)
        out = apply_dual(phi, np.diag([1.0, 0.0]))
        assert abs(out[0, 1]) <= 1e-16
        np.testing.assert_allclose(np.diagonal(out).real, [0.3, 0.7], atol=1e-15)

    def test_special_case_detection(self):
        assert spin_rotation_special_cases("7/32", "11/32") == ()
        assert spin_rotation_special_cases(1, "7/32") == ("alpha_multiple_of_pi",)
        assert spin_rotation_special_cases("7/32", 2) == ("beta_multiple_of_pi",)
        assert spin_rotation_special_cases("1/2", "3/2") == (
            "alpha_and_beta_multiples_of_half_pi",
        )
        assert "alpha_multiple_of_pi" in spin_rotation_special_cases(1, "1/2")
        assert spin_rotation_special_cases(0.25, "11/32") == ()


class TestSpontaneousEmissionMap:
    def test_gamma_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError, match="gamma must be"):
                make_spontaneous_emission_map(bad)

    def test_dual_on_diagonals_is_leader_matrix_action(self):
        gamma = 0.2
        psi = make_spontaneous_emission_map(gamma)
        A = np.array([[1.0, 0.0], [gamma**2, 1.0 - gamma**2]])
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 2)
            out = apply_dual(psi, np.diag(x).astype(complex))
            np.testing.assert_allclose(np.diagonal(out).real, A @ x, atol=1e-15)

    def test_hand_shift_values(self):
        rho_plus, rho_minus = spontaneous_emission_spectral_shift(np.diag([1.0, 0.0]), 0.5)
        assert rho_plus == pytest.approx(0.25, abs=1e-15)
        assert rho_minus == pytest.approx(0.0, abs=1e-15)
        out = apply_dual(make_spontaneous_emission_map(0.5), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.25]), atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_closed_form_matches_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.05, 0.95))
        psi = make_spontaneous_emission_map(gamma)
        x = random_hermitian(rng, 2)
        rho_plus, rho_minus = spontaneous_emission_spectral_shift(x, gamma)
        assert rho_plus >= -1e-14 and rho_minus >= -1e-14
        before = eigenvalues(x)
        after = eigenvalues(apply_dual(psi, x))
        assert after[0] == pytest.approx(before[0] + rho_plus, abs=1e-12)
        assert after[-1] == pytest.approx(before[-1] - rho_minus, abs=1e-12)


class TestDensityMatrix:
    def test_valid(self):
        d = DensityMatrix(np.eye(2) / 2)
        assert d.n == 2

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestRandomKrausMap:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_valid_by_construction(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        phi = random_kraus_map(n, m, rng)
        assert phi.dimension == n and phi.operator_count == m
