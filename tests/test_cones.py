import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conesim import (
    birkhoff_lyapunov,
    contraction_ratio,
    hilbert_distance_orthant,
    thompson_distance_orthant,
    tsitsiklis_lyapunov,
)
from conesim.cones import _positive


def log_uniform():
    return st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)


def positive_vectors(n):
    return hnp.arrays(np.float64, n, elements=log_uniform())


@st.composite
def vector_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return draw(positive_vectors(n)), draw(positive_vectors(n))


@st.composite
def vector_triples(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return tuple(draw(positive_vectors(n)) for _ in range(3))


class TestPositiveVector:
    """The interior-point checks of the orthant, made by `_positive`."""

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError, match=r"^entry 1 is not strictly positive: 0\.0$"):
            _positive(np.array([1.0, 0.0]))

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError, match=r"^entry 1 is not strictly positive: -2\.0$"):
            _positive(np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="^expected a nonempty 1-d array of reals$"):
            _positive(np.array([]))

    def test_rejects_nonfinite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^entries must be finite$"):
                _positive(np.array([1.0, bad]))

    def test_rejects_non_vectors(self):
        for bad in (np.ones((2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="^expected a nonempty 1-d array of reals$"):
                _positive(bad)

    def test_entries_read_only(self):
        x = np.array([1.0, 2.0])
        v = _positive(x)
        with pytest.raises(ValueError):
            v[0] = 3.0
        x[0] = 3.0  # the caller's array stays writable

    def test_distances_check_both_arguments(self):
        for f in (hilbert_distance_orthant, thompson_distance_orthant):
            with pytest.raises(ValueError, match="entry 0 is not strictly positive"):
                f([1.0, 2.0], [0.0, 1.0])
            with pytest.raises(ValueError, match="finite"):
                f([np.nan, 2.0], [1.0, 1.0])


class TestHilbertOrthant:
    def test_identity(self):
        assert hilbert_distance_orthant([1, 1, 1], [1, 1, 1]) == 0.0

    def test_hand_value(self):
        assert hilbert_distance_orthant([2, 1], [1, 1]) == pytest.approx(math.log(2), abs=1e-15)

    def test_proportional_rays(self):
        assert hilbert_distance_orthant([6, 3], [2, 1]) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hilbert_distance_orthant([1, 2], [1, 2, 3])

    @given(vector_pairs())
    @settings(deadline=None)
    def test_symmetry_exact(self, pair):
        x, y = pair
        assert hilbert_distance_orthant(x, y) == hilbert_distance_orthant(y, x)

    @given(vector_triples())
    @settings(deadline=None)
    def test_triangle_inequality(self, triple):
        x, y, z = triple
        assert hilbert_distance_orthant(x, z) <= (
            hilbert_distance_orthant(x, y) + hilbert_distance_orthant(y, z) + 1e-10
        )

    @given(vector_pairs(), log_uniform(), log_uniform())
    @settings(deadline=None)
    def test_projective_invariance(self, pair, alpha, beta):
        x, y = pair
        d = hilbert_distance_orthant(x, y)
        assert abs(hilbert_distance_orthant(alpha * x, beta * y) - d) <= 1e-12

    @given(vector_pairs(), log_uniform())
    @settings(deadline=None)
    def test_zero_iff_proportional(self, pair, lam):
        x, _ = pair
        assert hilbert_distance_orthant(x, lam * x) <= 1e-12

    def test_zero_implies_proportional(self):
        x = np.array([3.0, 5.0, 0.25])
        y = np.array([3.0, 5.0, 0.26])
        assert hilbert_distance_orthant(x, y) > 1e-12


class TestThompsonOrthant:
    def test_identity(self):
        x = np.array([0.5, 3.0])
        assert thompson_distance_orthant(x, x) == 0.0

    def test_hand_value(self):
        assert thompson_distance_orthant([2, 1], [1, 1]) == pytest.approx(math.log(2), abs=1e-15)

    def test_separates_scaled_copies(self):
        # scaling moves Thompson but not Hilbert
        assert hilbert_distance_orthant([2, 2], [1, 1]) == 0.0
        assert thompson_distance_orthant([2, 2], [1, 1]) == pytest.approx(
            math.log(2), abs=1e-15
        )

    @given(vector_pairs())
    @settings(deadline=None)
    def test_nonnegative_and_identity_of_indiscernibles(self, pair):
        x, y = pair
        d = thompson_distance_orthant(x, y)
        assert d >= 0.0
        if np.array_equal(x, y):
            assert d == 0.0
        if d == 0.0:
            assert np.allclose(x, y, rtol=1e-12)


class TestLyapunovFunctions:
    def test_tsitsiklis_consensus_state(self):
        assert tsitsiklis_lyapunov([4.2, 4.2, 4.2]) == 0.0

    def test_tsitsiklis_hand_value(self):
        assert tsitsiklis_lyapunov([3.0, 1.0, 2.0]) == 2.0

    def test_tsitsiklis_rejects_empty(self):
        with pytest.raises(ValueError):
            tsitsiklis_lyapunov([])

    @given(hnp.arrays(np.float64, 5, elements=st.floats(-1e6, 1e6)), st.floats(-1e3, 1e3))
    @settings(deadline=None)
    def test_tsitsiklis_translation_invariance(self, x, lam):
        assert tsitsiklis_lyapunov(x + lam) == pytest.approx(
            tsitsiklis_lyapunov(x), abs=1e-9 * max(1.0, abs(lam))
        )

    def test_birkhoff_at_consensus(self):
        assert birkhoff_lyapunov([1.0, 1.0, 1.0]) == 0.0

    def test_birkhoff_hand_value(self):
        assert birkhoff_lyapunov([math.e, 1.0]) == pytest.approx(1.0, abs=1e-15)

    @given(vector_pairs(), log_uniform())
    @settings(deadline=None)
    def test_birkhoff_scaling_invariance(self, pair, lam):
        x, _ = pair
        assert abs(birkhoff_lyapunov(lam * x) - birkhoff_lyapunov(x)) <= 1e-12

    @given(vector_pairs())
    @settings(deadline=None)
    def test_birkhoff_is_tsitsiklis_in_log_coordinates(self, pair):
        x, _ = pair
        assert abs(birkhoff_lyapunov(x) - tsitsiklis_lyapunov(np.log(x))) <= 1e-13


class TestContractionRatio:
    def test_collapsed_map(self):
        assert contraction_ratio(0.0) == 0.0

    def test_hand_value(self):
        assert contraction_ratio(math.log(4)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_infinite_diameter(self):
        assert contraction_ratio(math.inf) == 1.0

    # the runner's factor comes from the upper end 2R of the bracket [R, 2R]
    # around the projective diameter, R the image radius
    @pytest.mark.parametrize(
        "radius, factor",
        [(0.0, 0.0), (math.inf, 1.0), (math.log(4), 3.0 / 5.0)],
        ids=["zero", "infinite", "log4"],
    )
    def test_radius_bracket_upper_end(self, radius, factor):
        assert contraction_ratio(2.0 * radius) == pytest.approx(factor, abs=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_rejects_negative_and_nan(self, bad):
        with pytest.raises(ValueError, match="diameter must be >= 0"):
            contraction_ratio(bad)

    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=20))
    @settings(deadline=None)
    def test_monotone_into_unit_interval(self, diams):
        diams = sorted(diams)
        ratios = [contraction_ratio(d) for d in diams]
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))
        assert all(r <= 1.0 == contraction_ratio(math.inf) for r in ratios)
