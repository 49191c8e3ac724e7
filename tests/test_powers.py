"""The corrected powers of `trace._Powers` against the kernel they replaced.

`trace._Powers.build` squares a run's row form M up to M^(2^j) in one stack,
then corrects the new squares at once, one stack for each side where M keeps
w (1 on the first `fixed` coordinates, 0 on the rest): each power must map w
to exactly w + d, d its carried defect. `helpers.ReferencePowers` squared one
power at a time and corrected each square before the next. The forms are
those the runs hand `iterate`: A^T and A of a stochastic matrix A, C and C^T
of a Kraus map's real form at n <= 8, with both sides kept where A is doubly
stochastic or the map a unital channel.

- Each correction, summed exactly with fractions at up to 16 rows, leaves no
  more residual on w than the reference correction leaves on the same square
  with the same d.
- The stored powers agree with the reference's within 8 N 2^j eps of their
  largest entry, N rows and M^(2^j) the power: the squares round
  differently, and a square at most doubles the error of the power it
  squares plus the rounding of N-term sums. Measured over 300 drawn forms
  of 1 to 128 rows, the largest difference was 2.5 N 2^j eps, for mixtures
  of permutations, whose powers never mix.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conesim.trace
from conesim import KrausMap, random_kraus_map, random_stochastic_matrix
from conesim.trace import _Powers
from helpers import ReferencePowers, reference_keep, reference_residual

EPS = np.finfo(float).eps
TOP = 7  # M^128, the largest power a block of 256 states takes


def _unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def row_forms(draw, max_rows):
    """(M, fixed): a row form as a run hands it to `iterate`, and the number
    of leading coordinates of the vector w it keeps."""
    kind = draw(st.sampled_from(["stochastic", "doubly_stochastic", "kraus", "unital"]))
    transposed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("stochastic", "doubly_stochastic"):
        n = draw(st.integers(1, max_rows))
        if kind == "stochastic":
            lazy = rng.uniform(0.0, 0.95)
            density = rng.choice([None, 0.3])
            A = lazy * np.eye(n) + (1.0 - lazy) * random_stochastic_matrix(n, rng, density)
        else:
            weights = rng.dirichlet(np.ones(3))
            A = sum(p * np.eye(n)[rng.permutation(n)] for p in weights)
        # run_consensus hands A^T, run_dual_consensus A
        return (A.T if transposed else A), n
    n = draw(st.integers(1, min(8, math.isqrt(max_rows))))
    if kind == "kraus":
        phi = random_kraus_map(n, int(rng.integers(1, 4)), rng)
    else:
        weights = rng.dirichlet(np.ones(3))
        phi = KrausMap(tuple(math.sqrt(p) * _unitary(n, rng) for p in weights))
    # the dual hands C, the channel C^T
    C = phi._real_form
    return (C.T if transposed else C), n


def _residual(R, m, w, d) -> Fraction:
    """The largest |sum of the first m entries of a row of R - w - d|, exact."""
    return max(
        abs(sum(map(Fraction, row[:m].tolist()), Fraction(0)) - Fraction(wi) - Fraction(di))
        for row, wi, di in zip(R, w.tolist(), d.tolist())
    )


@given(row_forms(max_rows=16))
@settings(deadline=None, max_examples=60)
def test_each_correction_leaves_no_more_residual_than_the_reference(form):
    M, fixed = form
    corrected = []
    residual = conesim.trace._residual

    def spy(R, m, w, D, buf=None):
        # the stacks of new squares, as they are before their correction
        if np.ndim(D) == 2:
            corrected.append((R, R.copy(), m, w, D.copy()))
        return residual(R, m, w, D, buf)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conesim.trace, "_residual", spy)
        _Powers(M, fixed).build(TOP)
    sides = len(ReferencePowers(M, fixed).sides)
    assert len({id(R) for R, *_ in corrected}) >= sides
    for R, squares, m, w, D in corrected:
        for new, square, d in zip(R, squares, D):
            reference = square.copy()
            reference_keep(reference, m, reference_residual(reference, m, w, d))
            assert _residual(new, m, w, d) <= _residual(reference, m, w, d)


@given(row_forms(max_rows=128))
@settings(deadline=None, max_examples=60)
def test_powers_agree_with_the_reference(form):
    M, fixed = form
    new, ref = _Powers(M, fixed), ReferencePowers(M, fixed)
    new.build(TOP)
    assert len(new.powers) == TOP + 1
    assert new.powers[0] is M
    for j in range(1, TOP + 1):
        old = ref[j]
        bound = 8.0 * len(M) * 2.0**j * EPS * np.abs(old).max()
        assert np.abs(new.powers[j] - old).max() <= bound
    assert [left for left, _ in new.sides] == [left for left, _ in ref.sides]
