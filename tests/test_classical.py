import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesim import (
    StoppingRule,
    TerminalStatus,
    birkhoff_lyapunov,
    build_classical_embedding,
    check_birkhoff_contraction,
    check_connectivity,
    consensus_step,
    contraction_ratio,
    dual_consensus_step,
    projective_diameter,
    random_stochastic_matrices,
    random_stochastic_matrix,
    run_consensus,
    run_dual_consensus,
)
from conesim.classical import _check_stochastic, as_stochastic_matrix

from helpers import (
    lyapunov_values,
    quadruple_projective_diameter,
    reference_check_connectivity,
    reference_random_stochastic_matrix,
)

LEADER = np.array([[1.0, 0.0], [0.25, 0.75]])  # gamma^2 = 0.25


def brute_force_diameter(a: np.ndarray):
    """Independent O(n^4) oracle: plain python loop over all quadruples."""
    n = a.shape[0]
    best = None
    for i, j, p, q in product(range(n), repeat=4):
        num = a[i, j] * a[p, q]
        den = a[i, q] * a[p, j]
        if num > 0.0 and den == 0.0:
            return math.inf
        if num > 0.0:
            v = math.log(num) - math.log(den)
            best = v if best is None else max(best, v)
    return best


class TestStochasticMatrix:
    """The check every classical map passes, `as_stochastic_matrix`."""

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row 1 sums to"):
            as_stochastic_matrix(np.array([[0.5, 0.5], [0.5, 0.4]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative entry"):
            as_stochastic_matrix(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_stochastic_matrix(np.ones((2, 3)) / 3)

    def test_no_silent_renormalization(self):
        with pytest.raises(ValueError):
            as_stochastic_matrix(np.array([[0.45, 0.45], [0.5, 0.5]]))

    def test_holds_a_read_only_float_copy(self):
        caller = np.array([[1, 0], [0, 1]])
        A = as_stochastic_matrix(caller)
        assert A.dtype == np.float64 and not A.flags.writeable
        assert not np.shares_memory(A, caller) and caller.flags.writeable
        checked = as_stochastic_matrix(A)
        assert checked is not A and np.array_equal(checked, A)


# matrices that fail the check, each with the message the check gives
DEFECTS = [
    np.array([[0.5, 0.5], [0.5, 0.4]]),
    np.array([[1.5, -0.5], [0.5, 0.5]]),
    np.array([[np.nan, 1.0], [0.5, 0.5]]),
    np.array([[np.inf, 1.0], [0.5, 0.5]]),
    np.array([[0.45, 0.45], [0.5, 0.5]]),
]


def _message(m):
    with pytest.raises(ValueError) as info:
        as_stochastic_matrix(m)
    return str(info.value)


class TestBlockDraw:
    @given(
        st.integers(1, 12),
        st.integers(1, 50),
        st.none() | st.floats(0.1, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_the_per_matrix_draws_bit_for_bit(self, n, count, density, seed):
        block = random_stochastic_matrices(n, count, np.random.default_rng(seed), density)
        rng = np.random.default_rng(seed)
        singles = [reference_random_stochastic_matrix(n, rng, density) for _ in range(count)]
        singles = np.stack(singles)
        assert block.shape == (count, n, n) and block.dtype == np.float64
        assert block.tobytes() == singles.tobytes()
        assert not block.flags.writeable
        # and the stream goes on where the per-matrix draws leave it
        after = np.random.default_rng(seed)
        random_stochastic_matrices(n, count, after, density)
        assert after.uniform() == rng.uniform()
        rng = np.random.default_rng(seed)
        one = random_stochastic_matrix(n, rng, density)
        assert one.tobytes() == block[0].tobytes() and not one.flags.writeable

    @pytest.mark.parametrize("density", [0.0, -0.5, 1.5])
    def test_rejects_a_density_outside_the_unit_interval(self, density):
        with pytest.raises(ValueError, match="density must be in"):
            random_stochastic_matrices(3, 2, np.random.default_rng(0), density)

    @pytest.mark.parametrize("defect", range(len(DEFECTS)))
    @pytest.mark.parametrize("k", [0, 2])
    def test_stacked_check_gives_the_first_defective_matrix_message(self, defect, k):
        stack = np.stack([np.full((2, 2), 0.5)] * 4)
        stack[k] = DEFECTS[defect]
        stack[3] = DEFECTS[(defect + 1) % len(DEFECTS)]
        with pytest.raises(ValueError) as info:
            _check_stochastic(stack)
        assert str(info.value) == _message(DEFECTS[defect])


class TestConsensusStep:
    def test_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(consensus_step(np.eye(3), x), x)

    def test_uniform_averaging(self):
        A = np.full((3, 3), 1.0 / 3.0)
        np.testing.assert_allclose(consensus_step(A, [3.0, 1.0, 2.0]), [2, 2, 2], atol=1e-15)

    def test_leader_matrix(self):
        np.testing.assert_allclose(consensus_step(LEADER, [1.0, 2.0]), [1.0, 1.75], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            consensus_step(np.eye(2), [1.0, 2.0, 3.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_convexity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        A = random_stochastic_matrix(n, rng)
        x = rng.uniform(-5.0, 5.0, n)
        y = consensus_step(A, x)
        assert np.all(y >= x.min() - 1e-12) and np.all(y <= x.max() + 1e-12)


class TestDualStep:
    def test_identity(self):
        z = np.array([0.25, 0.75])
        assert np.array_equal(dual_consensus_step(np.eye(2), z), z)

    def test_uniform(self):
        A = np.full((2, 2), 0.5)
        np.testing.assert_allclose(dual_consensus_step(A, [1.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_leader_matrix(self):
        out = dual_consensus_step(LEADER, [1.0, 1.0])
        np.testing.assert_allclose(out, [1.25, 0.75], atol=1e-15)
        assert abs(out.sum() - 2.0) <= 1e-13

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_mass_conservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        A = random_stochastic_matrix(n, rng)
        z = rng.uniform(-2.0, 2.0, n)
        assert abs(dual_consensus_step(A, z).sum() - z.sum()) <= 1e-13


class TestRunConsensus:
    def test_identity_never_converges(self):
        trace = run_consensus(np.eye(2), [0.0, 1.0], StoppingRule(1e-10, 25))
        assert trace.status is TerminalStatus.MAX_ITERATIONS
        assert trace.iterations == 25
        vals = lyapunov_values(trace)
        assert vals == [1.0] * 26

    def test_leader_matrix_converges_to_first_coordinate(self):
        trace = run_consensus(LEADER, [1.0, 2.0], StoppingRule(1e-10, 200))
        assert trace.status is TerminalStatus.CONVERGED
        np.testing.assert_allclose(trace.final_state, [1.0, 1.0], atol=1e-9)

    def test_doubly_stochastic_preserves_average(self):
        p = 0.3
        A = np.array([[p, 1 - p], [1 - p, p]])
        trace = run_consensus(A, [0.0, 1.0], StoppingRule(1e-12, 500))
        assert trace.status is TerminalStatus.CONVERGED
        np.testing.assert_allclose(trace.final_state, [0.5, 0.5], atol=1e-11)
        # power-iteration oracle
        oracle = np.linalg.matrix_power(A, trace.iterations) @ np.array([0.0, 1.0])
        np.testing.assert_allclose(trace.final_state, oracle, atol=1e-12)

    def test_finite_sequence_exhaustion_flagged(self):
        trace = run_consensus([np.eye(2)] * 3, [0.0, 1.0], StoppingRule(1e-10, 100))
        assert trace.status is TerminalStatus.INCOMPLETE_SEQUENCE
        assert trace.iterations == 3

    def test_consensus_start_converges_immediately(self):
        trace = run_consensus(np.eye(3), [2.0, 2.0, 2.0], StoppingRule(1e-10, 10))
        assert trace.status is TerminalStatus.CONVERGED
        assert trace.iterations == 0

    def test_records_projective_lyapunov_for_positive_states(self):
        trace = run_consensus(LEADER, [1.0, 2.0], StoppingRule(1e-10, 10))
        rec = trace.records[0]
        assert rec.projective_lyapunov == pytest.approx(birkhoff_lyapunov([1.0, 2.0]))
        assert rec.lambda_min == 1.0 and rec.lambda_max == 2.0

    def test_limit_distance_recorded(self):
        trace = run_consensus(LEADER, [1.0, 2.0], StoppingRule(1e-10, 10), limit=[1.0, 1.0])
        assert trace.records[0].dist_to_limit == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_lyapunov_monotone_along_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        draws = np.random.default_rng(seed)
        seq = (random_stochastic_matrix(n, draws, density=0.5) for _ in range(40))
        x0 = rng.uniform(-1.0, 2.0, n)
        trace = run_consensus(seq, x0, StoppingRule(0.0, 40))
        vals = lyapunov_values(trace)
        assert all(b <= a + 1e-13 for a, b in zip(vals, vals[1:]))
        # iterates stay inside the initial interval
        assert all(r.lambda_min >= x0.min() - 1e-12 for r in trace.records)
        assert all(r.lambda_max <= x0.max() + 1e-12 for r in trace.records)


class TestRunDualConsensus:
    def test_converges_and_conserves_mass(self):
        A = np.array([[0.3, 0.7], [0.7, 0.3]])
        trace = run_dual_consensus(A, [1.0, 0.0], StoppingRule(1e-13, 500))
        assert trace.status is TerminalStatus.CONVERGED
        np.testing.assert_allclose(trace.final_state, [0.5, 0.5], atol=1e-11)
        assert abs(trace.final_state.sum() - 1.0) <= 1e-12

    def test_no_lyapunov_column(self):
        trace = run_dual_consensus(LEADER, [1.0, 1.0], StoppingRule(1e-12, 50))
        assert lyapunov_values(trace) == []


class TestProjectiveDiameter:
    def test_rank_one_map(self):
        assert projective_diameter(np.full((3, 3), 0.2)) == 0.0

    def test_symmetric_two_by_two(self):
        d = projective_diameter(np.array([[2, 1], [1, 2]]) / 3.0)
        assert d == pytest.approx(math.log(4), abs=1e-12)

    def test_leader_matrix_and_powers_infinite(self):
        for k in range(1, 11):
            assert projective_diameter(np.linalg.matrix_power(LEADER, k)) == math.inf

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1 is zero"):
            projective_diameter(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = rng.uniform(size=(n, n))
        a[rng.uniform(size=(n, n)) < 0.35] = 0.0
        np.fill_diagonal(a, np.maximum(a.diagonal(), 0.05))
        oracle = brute_force_diameter(a)
        d = projective_diameter(a)
        if math.isinf(oracle):
            assert d == math.inf
        else:
            assert d == pytest.approx(oracle, abs=1e-10)

    def test_one_by_one(self):
        assert projective_diameter(np.array([[1.0]])) == 0.0

    def test_zero_column_dropped(self):
        a = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.6, 0.4, 0.0]])
        d = projective_diameter(a)
        assert d == pytest.approx(1.252762968495368, abs=1e-12)
        assert d == pytest.approx(quadruple_projective_diameter(a), abs=1e-12)

    def test_zero_row_rejected_with_zero_column(self):
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.2, 0.8, 0.0]])
        with pytest.raises(ValueError, match="row 1 is zero"):
            projective_diameter(a)

    @given(st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200)
    def test_matches_quadruple_enumeration(self, n, dense, seed):
        rng = np.random.default_rng(seed)
        a = 10.0 ** rng.uniform(-8.0, 8.0, (n, n))
        if not dense:
            a[rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.6)] = 0.0
        kept = rng.uniform(size=n) >= 0.25
        kept[rng.integers(n)] = True
        a[:, ~kept] = 0.0
        for i in np.flatnonzero(~(a > 0.0).any(axis=1)):
            a[i, rng.choice(np.flatnonzero(kept))] = 10.0 ** rng.uniform(-8.0, 8.0)
        new = projective_diameter(a)
        old = quadruple_projective_diameter(a)
        assert math.isfinite(new) == math.isfinite(old)
        if math.isfinite(old):
            assert abs(new - old) <= 1e-12


class TestBirkhoffContraction:
    def pairs(self, rng, n, count=8):
        return [(10.0 ** rng.uniform(-2, 2, n), 10.0 ** rng.uniform(-2, 2, n)) for _ in range(count)]

    def test_symmetric_two_by_two_certificate(self):
        rng = np.random.default_rng(3)
        A = np.array([[2, 1], [1, 2]]) / 3.0
        report = check_birkhoff_contraction(A, self.pairs(rng, 2))
        assert report.certified
        assert report.contraction_bound == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.violations == 0
        assert report.satisfied
        assert report.worst_ratio <= 1.0 / 3.0 + 1e-9

    def test_identity_is_isometry(self):
        rng = np.random.default_rng(4)
        report = check_birkhoff_contraction(np.eye(2), self.pairs(rng, 2))
        assert not report.certified
        assert report.contraction_bound == 1.0
        assert report.worst_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.violations == 0
        assert report.satisfied

    def test_rank_one_collapses_all_pairs(self):
        rng = np.random.default_rng(5)
        A = np.outer(np.ones(3), [0.2, 0.3, 0.5])
        report = check_birkhoff_contraction(A, self.pairs(rng, 3))
        assert report.worst_ratio <= 1e-12

    def test_proportional_pairs_are_skipped(self):
        A = np.array([[2, 1], [1, 2]]) / 3.0
        report = check_birkhoff_contraction(A, [(np.array([1.0, 2.0]), np.array([2.0, 4.0]))])
        assert report.pairs_skipped == 1
        assert report.pairs_checked == 0
        assert report.worst_ratio is None

    def test_nan_slack_rejected(self):
        # a NaN slack would compare false and pass every pair
        A = np.array([[0.6, 0.4], [0.3, 0.7]])
        pairs = [(np.array([1.0, 2.0]), np.array([2.0, 1.0]))]
        pairs.append((np.array([1.0, 3.0]), np.array([2.0, 1.0])))
        report = check_birkhoff_contraction(A, pairs, slack=-1.0)
        assert report.violations == 2
        assert not report.satisfied
        with pytest.raises(ValueError, match="slack must not be NaN"):
            check_birkhoff_contraction(A, pairs, slack=math.nan)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_certificate_on_stochastic_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        A = random_stochastic_matrix(n, rng)
        bound = contraction_ratio(projective_diameter(A))
        for _ in range(5):
            x = 10.0 ** rng.uniform(-2, 2, n)
            assert birkhoff_lyapunov(A @ x) <= bound * birkhoff_lyapunov(x) + 1e-9


class TestConnectivity:
    def test_complete_graph_root(self):
        report = check_connectivity(np.full((3, 3), 1.0 / 3.0), horizon=0)
        assert report.root_exists
        assert report.diagonal_positive
        assert report.min_positive_entry == pytest.approx(1.0 / 3.0)

    def test_leader_matrix_rooted_at_leader(self):
        report = check_connectivity(LEADER, horizon=0)
        assert report.root_exists and report.root_node == 0
        assert report.diagonal_positive
        assert report.min_positive_entry == 0.25

    def test_transpose_convention_moves_root(self):
        report = check_connectivity(LEADER, horizon=0, transpose=True)
        assert report.root_exists and report.root_node == 1

    def test_disconnected_identity(self):
        report = check_connectivity(np.eye(2), horizon=0)
        assert not report.root_exists

    def test_union_over_window(self):
        seq = [np.eye(2), np.full((2, 2), 0.5)]
        assert not check_connectivity(seq, window_start=0, horizon=0).root_exists
        assert check_connectivity(seq, window_start=0, horizon=1).root_exists

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            check_connectivity(np.eye(2), horizon=-1)

    def test_negative_window_start_rejected(self):
        with pytest.raises(ValueError, match="window_start must be >= 0"):
            check_connectivity(np.eye(2), window_start=-1)

    @pytest.mark.parametrize("name", ["window_start", "horizon"])
    @pytest.mark.parametrize("bad", [1.5, True, "1", None, np.float64(1.0)])
    def test_window_arguments_must_be_integers(self, name, bad):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            check_connectivity(np.full((2, 2), 0.5), **{name: bad})

    def test_numpy_integer_window_arguments(self):
        seq = [np.eye(2), np.full((2, 2), 0.5)]
        assert check_connectivity(seq, window_start=np.int64(0), horizon=np.int32(1)).root_exists

    def test_window_beyond_finite_sequence(self):
        with pytest.raises(ValueError, match="only 1"):
            check_connectivity([np.eye(2)], window_start=0, horizon=1)
        with pytest.raises(ValueError, match="^sequence has only 3 matrices, requested 5$"):
            check_connectivity([np.eye(2)] * 3, window_start=2, horizon=2)
        with pytest.raises(ValueError, match="^sequence has only 2 matrices, requested 4$"):
            check_connectivity([np.eye(2)] * 2, window_start=3, horizon=0)

    def test_maps_before_the_window_are_not_kept(self):
        # 200,000 maps before the window: a list of them alone takes 1.6 MB
        A = np.array([[0.5, 0.5], [0.0, 1.0]])
        tracemalloc.start()
        try:
            report = check_connectivity(A, window_start=200_000, horizon=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.root_exists and report.window_start == 200_000
        assert peak < 100_000

    @given(
        st.integers(1, 40),
        st.integers(0, 1),
        st.integers(0, 2),
        st.booleans(),
        st.floats(0.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=300)
    def test_squaring_matches_the_search(self, n, start, horizon, transpose, degree, seed):
        # random digraphs of mean in-degree about `degree`, every row keeping
        # one positive entry: windows with and without a spanning root
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(start + horizon + 1):
            pos = rng.random((n, n)) < degree / n
            empty = np.flatnonzero(~pos.any(axis=1))
            pos[empty, rng.integers(0, n, empty.size)] = True
            a = np.where(pos, rng.uniform(0.1, 1.0, (n, n)), 0.0)
            mats.append(a / a.sum(axis=1, keepdims=True))
        args = (mats, start, horizon, transpose)
        assert check_connectivity(*args) == reference_check_connectivity(*args)


class TestSequences:
    def test_sparsity_keeps_diagonal_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_stochastic_matrix(6, rng, density=0.1)
            assert np.all(m.diagonal() > 0.0)

    def test_density_must_be_in_the_unit_interval(self):
        rng = np.random.default_rng(7)
        for bad in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"density must be in \(0, 1\], got"):
                random_stochastic_matrix(3, rng, density=bad)
        # rejected before any draw: the stream goes on as a fresh one
        fresh = random_stochastic_matrix(3, np.random.default_rng(7), density=1.0)
        again = random_stochastic_matrix(3, rng, density=1.0)
        assert again.tobytes() == fresh.tobytes()

    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError, match="dimension mismatch: map is 3, state is 2"):
            check_connectivity([np.eye(2), np.eye(3)], horizon=1)
        with pytest.raises(ValueError, match="dimension mismatch: map is 3, state is 2"):
            run_consensus([np.eye(2), np.eye(3)], [0.0, 1.0])


class TestArrayRule:
    """A 2-d array is one map, checked once and repeated; a 3-d array is a
    finite sequence, checked once in full before the first step; the maps of
    anything else are checked when the run pulls them."""

    BAD = np.array([[0.5, 0.5], [0.5, 0.4]])

    def _stack(self):
        # uniform averaging stops either run at t = 1 (spread 0, then a zero
        # step), well before the bad matrix at index 5
        stack = np.stack([np.full((2, 2), 0.5)] * 8)
        stack[5] = self.BAD
        return stack

    @pytest.mark.parametrize("run", [run_consensus, run_dual_consensus])
    def test_a_stack_raises_a_bad_matrix_before_the_first_step(self, run, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr("conesim.classical.iterate", no_step)
        with pytest.raises(ValueError) as info:
            run(self._stack(), [0.0, 1.0], StoppingRule(1e-10, 100))
        assert str(info.value) == _message(self.BAD)

    @pytest.mark.parametrize("run", [run_consensus, run_dual_consensus])
    def test_a_list_checks_a_matrix_only_when_pulled(self, run):
        trace = run(list(self._stack()), [0.0, 1.0], StoppingRule(1e-10, 100))
        assert trace.status is TerminalStatus.CONVERGED and trace.iterations <= 2
        with pytest.raises(ValueError) as info:
            run(list(self._stack())[5:], [0.0, 1.0], StoppingRule(1e-10, 100))
        assert str(info.value) == _message(self.BAD)

    @pytest.mark.parametrize("run", [run_consensus, run_dual_consensus])
    def test_an_empty_stack_ends_incomplete_at_t_0(self, run):
        trace = run(np.empty((0, 2, 2)), [0.0, 1.0], StoppingRule(1e-10, 100))
        assert trace.status is TerminalStatus.INCOMPLETE_SEQUENCE and trace.iterations == 0

    def test_a_stack_is_checked_against_the_state(self):
        with pytest.raises(ValueError, match="^dimension mismatch: map is 3, state is 2$"):
            run_consensus(np.stack([np.eye(3)] * 2), [0.0, 1.0])

    def test_a_stack_runs_as_its_list(self):
        stack = random_stochastic_matrices(4, 30, np.random.default_rng(3))
        x0 = [0.0, 1.0, 2.0, 3.0]
        for run in (run_consensus, run_dual_consensus):
            a = run(stack, x0, StoppingRule(0.0, 50))
            b = run(list(stack), x0, StoppingRule(0.0, 50))
            assert a.status is b.status is TerminalStatus.INCOMPLETE_SEQUENCE
            assert a.final_state.tobytes() == b.final_state.tobytes()
        report = check_connectivity(stack, 2, 5)
        assert report == check_connectivity(list(stack), 2, 5)

    @pytest.mark.parametrize(
        "step", [consensus_step, dual_consensus_step, lambda A, x: build_classical_embedding(A)]
    )
    def test_single_step_helpers_reject_a_stack(self, step):
        with pytest.raises(ValueError, match="^expected a square 2-d array$"):
            step(np.stack([np.eye(2)] * 2), [0.0, 1.0])

    @pytest.mark.parametrize("dynamics", [np.eye(2), np.stack([np.eye(2)] * 3)])
    def test_the_callers_array_is_neither_written_nor_frozen(self, dynamics):
        before = dynamics.copy()
        for run in (run_consensus, run_dual_consensus):
            run(dynamics, [0.0, 1.0], StoppingRule(1e-10, 5))
        check_connectivity(dynamics, 0, 1)
        assert dynamics.flags.writeable and dynamics.tobytes() == before.tobytes()


CLASSICAL_REJECTIONS = {
    "nan_stochastic_entry": (
        lambda: as_stochastic_matrix([[math.nan, 1.0], [0.0, 1.0]]),
        "stochastic matrix entries must be finite",
    ),
    "non_square_stochastic_stack": (
        lambda: as_stochastic_matrix(np.eye(2), 3),
        "expected a (T, n, n) stack of square matrices",
    ),
    "nan_state_entry": (
        lambda: consensus_step(np.eye(2), [math.nan, 1.0]),
        "state vector entries must be finite",
    ),
    "non_square_diameter": (
        lambda: projective_diameter(np.ones((2, 3))),
        "expected a square 2-d array",
    ),
    "non_finite_diameter": (
        lambda: projective_diameter([[math.inf, 1.0], [1.0, 1.0]]),
        "matrix entries must be finite",
    ),
    "negative_diameter": (
        lambda: projective_diameter([[-1.0, 1.0], [1.0, 1.0]]),
        "matrix must be entrywise nonnegative",
    ),
}


@pytest.mark.parametrize(
    "call, message", CLASSICAL_REJECTIONS.values(), ids=CLASSICAL_REJECTIONS
)
def test_rejection_messages_are_pinned(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
