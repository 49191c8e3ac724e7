"""Run traces shared by the classical and quantum runners, and the one run loop."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

__all__ = [
    "StoppingRule",
    "TerminalStatus",
    "TraceRecord",
    "SimulationTrace",
    "TraceInvariantError",
]

CSV_HEADER = "t,lyapunov,lambda_min,lambda_max,dist_to_limit"


class TerminalStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iters"
    INCOMPLETE_SEQUENCE = "incomplete_sequence"


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the run's convergence measure drops below tolerance, or after
    max_iterations steps."""

    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not (self.tolerance >= 0.0):
            raise ValueError("tolerance must be >= 0")
        if _check_count("max_iterations", self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")


def _check_count(name: str, value):
    """`value`, or a TypeError naming `name` when it is a bool or no integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class TraceRecord:
    """One step of a trace, as `SimulationTrace.records` derives it.

    `lyapunov` is the run's certified non-increasing quantity (may be absent
    for states where it is undefined). `projective_lyapunov` additionally
    records the log-coordinate distance to consensus for strictly positive
    classical states.
    """

    t: int
    lyapunov: float | None
    lambda_min: float
    lambda_max: float
    dist_to_limit: float | None = None
    projective_lyapunov: float | None = None


class TraceInvariantError(RuntimeError):
    pass


@dataclass
class SimulationTrace:
    """A run's trace as float64 columns, one entry per step t = 0..iterations;
    NaN marks an absent value, and fills a column the run does not record."""

    lyapunov: np.ndarray
    lambda_min: np.ndarray
    lambda_max: np.ndarray
    dist_to_limit: np.ndarray
    projective_lyapunov: np.ndarray
    status: TerminalStatus
    final_state: np.ndarray
    iterations: int

    @property
    def records(self) -> list[TraceRecord]:
        """One TraceRecord per step, None for an absent value; built on access."""
        columns = (getattr(self, f.name).tolist() for f in fields(TraceRecord)[1:])
        rows = zip(*([None if x != x else x for x in c] for c in columns))
        return [TraceRecord(t, *row) for t, row in enumerate(rows)]

    @property
    def final_lyapunov(self) -> float | None:
        present = np.flatnonzero(~np.isnan(self.lyapunov))
        return self.lyapunov[present[-1]].item() if present.size else None

    def check_lyapunov_monotone(self) -> None:
        ts = np.flatnonzero(~np.isnan(self.lyapunov))
        v = self.lyapunov[ts]
        prev = v[:-1]
        with np.errstate(all="ignore"):  # Python floats overflow silently too
            up = np.flatnonzero(v[1:] > prev + 1e-12 * np.maximum(1.0, np.abs(prev)))
        if up.size:
            k = up[0]
            raise TraceInvariantError(
                f"Lyapunov column increased: V({ts[k]})={v[k].item()!r} -> "
                f"V({ts[k + 1]})={v[k + 1].item()!r}"
            )

    def write_csv(self, path: str | Path) -> Path:
        """Write the trace, one row per step t: each float cell is exactly
        Python's '%.17g' of its value, and empty for NaN.

        Cells are formatted in numpy, with Python for the cells the formatter
        cannot decide and for traces of fewer than _NUMPY_MIN_ROWS rows. The
        Lyapunov column is asserted non-increasing before anything is
        written; a violation aborts with the offending step in the message.
        """
        self.check_lyapunov_monotone()
        path = Path(path)
        columns = (self.lyapunov, self.lambda_min, self.lambda_max, self.dist_to_limit)
        rows = len(self.lyapunov)
        if rows < _NUMPY_MIN_ROWS:
            cells = np.column_stack((np.arange(rows), *columns))
            # one format for the whole table; Python prints every NaN as "nan"
            body = ("\n%d,%.17g,%.17g,%.17g,%.17g" * rows) % tuple(cells.ravel().tolist())
            data = body.replace(",nan", ",").encode()
        else:
            from ._csvcells import csv_body

            data = csv_body(columns)
        path.write_bytes(CSV_HEADER.encode() + data + b"\n")
        return path


# Traces below _NUMPY_MIN_ROWS rows are formatted by Python. In process, with
# 101 alternating calls on a classical and a dual trace written to tmpfs
# (2 cores, numpy 2.4.6), the numpy writer took 1.12-1.19 times the Python
# writer's time at 64 rows, 0.93-0.96 at 96 and 0.78-0.79 at 128. Its module
# is imported on first use: compiled without cached bytecode, it would add
# about 5 ms to every process that imports conesim.
_NUMPY_MIN_ROWS = 128


# States are measured in blocks of _FIRST_BLOCK, doubling up to _MAX_BLOCK
# states and, in a run stepped one map at a time, _BLOCK_BYTES, but to at
# least _MIN_BLOCK states. The state cap bounds the maps applied past the
# stopping index (a 2x2 run that stops at t = 1250 applies 1272 maps with
# it, 2040 without), the byte cap a stepped block's memory; a doubled state,
# at most _DOUBLING_MAX_DIM floats, is at most 1 KB, so a doubled block at
# most 256 KB. A first block of 8 spares short runs several tiny blocks. The
# floor spreads each block's measure, finiteness check, slicing and copy
# over 16 steps where the byte cap alone would give states above 4 KB
# (Hermitian matrices at n >= 17) fewer: a dual run of one map took 164
# against 172 us per step at n = 32 (4 states by bytes, 256 KB per block
# with the floor) and 93 against 99 us at n = 24 (7), 2 cores, numpy 2.4.6
# on OpenBLAS. The larger blocks of a doubled run cost matrix runs at n = 8
# (512-byte states, 128 to a block by bytes) 7-9% at 1,050 steps: their
# measure takes longer per state.
# A run of one map whose row form has at most _DOUBLING_MAX_DIM rows doubles
# a block once the squares are built, and builds them when their cost, in
# steps, is below the steps the run is expected to take (`_Powers.ready`):
# _SQUARE_STEPS gives, by rows, the steps a build costs, fixed and per
# square. Measured as the budget from which doubling every block of a run
# from its first beats stepping every block (run_consensus on a lazy cycle,
# tolerance 0, in process, interleaved; same machine): about 150 steps at 8
# and 16 rows, 185 at 32, 250 at 48, 300-450 at 64, 600 at 80, 750 at 96
# and 500-850 at 112 and 128, where a build of seven squares takes 1.5-2.8
# ms. The rows below give those budgets for seven squares, and at 8 to 32
# rows also for six, the squares of a 128-state block. A build is corrected
# in parts of at most _CORRECT_FLOATS entries, one square at 128 rows:
# seven squares took 1.9 ms corrected at once and 1.1-1.2 ms in parts of
# one to four, and the parts' scratch is fresh memory, whose pages cost about
# 3 us each to touch (917 KB took 690 us, against 57 us reused). _FIXED_TOL
# bounds how far a map may move the vector w it keeps (its rows are checked
# to 1e-12, a Kraus sum to 1e-10).
_FIRST_BLOCK = 8
_MIN_BLOCK = 16
_MAX_BLOCK = 256
_BLOCK_BYTES = 1 << 16
_DOUBLING_MAX_DIM = 128
_SQUARE_STEPS = (
    (16, 60, 10),
    (32, 60, 20),
    (48, 50, 28),
    (64, 50, 45),
    (80, 50, 80),
    (96, 50, 100),
    (128, 50, 105),
)
_FIXED_TOL = 1e-8
_CORRECT_FLOATS = 1 << 14


def iterate(
    maps, state, apply, measure, stop: StoppingRule | None, move=None, form=None, fixed=None
) -> SimulationTrace:
    """Run state(t+1) = apply(map(t), state(t)) until `stop` fires.

    `maps` is an iterable, built by every run from its dynamics argument by
    one rule on both cones: a single map (a 2-d array, a KrausMap) is checked
    once and repeated; a 3-d array is a finite sequence of matrices, checked
    once in full and iterated along its first axis; anything else is
    iterated, and each of its maps is coerced and checked against the state
    when pulled.

    Maps are applied into a block of states, each state written by
    `apply(map, state, out)`, except in the doubled blocks of a run of one
    map. For those, `form(map)` gives the map's row form M, a square array
    with apply(map, x) = x @ M, and when `maps` is one map repeated and M has
    at most `_DOUBLING_MAX_DIM` rows a block may be filled by doubling
    (`_double`), from powers of M squared once per run that keep w, 1 on the
    first `fixed` coordinates and 0 on the rest, as M keeps it (`_Powers`).
    Every block doubles once the squares are built, the growing blocks and
    one cut short by the budget too. They are built at the first block where
    the squares needed by the largest block the budget allows cost fewer
    steps than the run is expected to take yet (`_expected_steps`): all the
    budget allows when the tolerance is 0, else the steps its level needs
    at the rate it fell over the block before, but at least to the block's
    end.
    Other blocks, and the replay of a block that raised, are applied one map
    at a time.

    `measure(states)` returns the block's columns (lyapunov, lambda_min,
    lambda_max, dist_to_limit, projective_lyapunov: None for a column the run
    does not record, NaN for an undefined value); it must raise on a block
    exactly when it raises on one of its states. One rule stops every run, at
    the first state whose level is below tolerance: lambda_max - lambda_min
    (the spread, the spectral width) from t = 0, or with `move` the norm of
    a state's step, move(np.diff(states, axis=0))[k], after one step at least.
    The budget is tested before a map is pulled: a finite sequence of exactly
    max_iterations maps ends MAX_ITERATIONS, a shorter one
    INCOMPLETE_SEQUENCE. A state with a non-finite entry raises ValueError.
    Maps applied past the stopping index, and errors raised on them, never
    reach the result.
    """
    stop = stop or StoppingRule()
    columns = measure(state[None])
    blocks, t = [columns], 0
    if move is None and _width(columns)[0] < stop.tolerance:
        return _trace(blocks, TerminalStatus.CONVERGED, state, t)
    status = TerminalStatus.MAX_ITERATIONS
    size = _FIRST_BLOCK
    powers = None
    if form is not None and isinstance(maps, repeat):
        M = form(next(maps))
        powers = _Powers(M, fixed) if len(M) <= _DOUBLING_MAX_DIM else None
    if powers is None:
        cap = min(_MAX_BLOCK, max(_MIN_BLOCK, _BLOCK_BYTES // state.nbytes))
    else:
        cap = _MAX_BLOCK
    it = iter(maps)
    first = last = math.nan
    span = 0
    while t < stop.max_iterations:
        left = stop.max_iterations - t
        n = min(size, left)
        states = np.empty((n + 1,) + state.shape, state.dtype)
        states[0] = state
        doubling = powers is not None and powers.ready(
            left, _expected_steps(t, n, left, first, last, span, stop.tolerance)
        )
        try:
            if doubling:
                pulled = list(islice(it, n))
                _double(states, powers)
            else:
                pulled = []
                for k, m in enumerate(islice(it, n), 1):
                    pulled.append(m)
                    apply(m, states[k - 1], states[k])
                states = states[: len(pulled) + 1]
            if not np.isfinite(states).all():
                raise ValueError("state entries must be finite")
            columns = measure(states[1:])
            level = _width(columns) if move is None else move(np.diff(states, axis=0))
        except Exception as exc:
            if n == 1:
                raise
            # replay the block one map at a time, ending with the error: it
            # is raised only if no earlier state stops the run
            it, size, powers = chain(pulled, _raising(exc)), 1, None
            continue
        hits = np.flatnonzero(level < stop.tolerance)
        k = int(hits[0]) + 1 if hits.size else len(pulled)
        blocks.append([None if c is None else c[:k] for c in columns])
        t += k
        state = states[k].copy()
        if hits.size:
            status = TerminalStatus.CONVERGED
            break
        if len(pulled) < n:
            status = TerminalStatus.INCOMPLETE_SEQUENCE
            break
        first, last, span = level[0], level[-1], n - 1
        size = min(2 * size, cap)
    return _trace(blocks, status, state, t)


def _width(columns) -> np.ndarray:
    """lambda_max - lambda_min, silently inf or NaN where it overflows: the
    measure that reported the columns has warned already, and such a level
    never stops a run."""
    with np.errstate(over="ignore", invalid="ignore"):
        return columns[2] - columns[1]


def _expected_steps(t: int, n: int, left: int, first, last, span: int, tolerance: float):
    """The steps a run at step t, about to take a block of n, is expected to
    take yet, at most the `left` its budget allows: all of them when only
    the budget can stop it; else, when its level fell from `first` to
    `last` over the `span` steps before, as many as it needs at that rate to
    fall below tolerance, but at least to the block's end; else twice the
    steps it will have taken by the block's end."""
    if tolerance == 0.0:
        return left
    if 0.0 < last < first:
        needed = span * math.log(tolerance / last) / math.log(last / first)
        return min(left, max(t + n, needed))
    return min(left, 2 * (t + n))


def _double(states: np.ndarray, powers: _Powers) -> None:
    """Fill rows 1.. of `states` from row 0 by doubling: rows [f, 2f) are
    rows [0, f) times M^f, and a last k < f rows are the k rows g before
    them times M^g, g the least power of two >= k: a block of 2^j steps
    needs no power above M^(2^(j-1))."""
    f, rows = 1, len(states)
    while f < rows:
        k = min(f, rows - f)
        j = (k - 1).bit_length()
        g = 1 << j
        np.dot(states[f - g : f - g + k], powers.powers[j], out=states[f : f + k])
        f *= 2


class _Powers:
    """M^(2^j) of a run's row form M, squared as a run's blocks need them.

    A square doubles the error of the power it squares, so the rounding of
    the first squares would grow 2^j-fold, and along a direction the map
    keeps the run would drift by it from block to block. That direction is
    w, 1 on the first `fixed` coordinates and 0 on the rest: on each side
    where M fixes w within _FIXED_TOL (w M = w, a fixed state; M w = w, a
    conserved pairing) each power is corrected to map w exactly as the
    power maps it, w + d with d = M^(2^j) w - w carried apart from w, so
    that a doubled run drifts along w only by the rounding of its products,
    as a stepped run does. The squares of a build are taken one after the
    other and then corrected together, a side at a time, as one stack whose
    kept sums run along its contiguous rows: a run that keeps only a fixed
    state squares M^T, whose rows sum to w."""

    def __init__(self, M: np.ndarray, fixed: int) -> None:
        self.powers, self.fixed = [M], fixed
        self.w = (np.arange(len(M)) < fixed).astype(float)
        self.cost = next(c for rows, *c in _SQUARE_STEPS if len(M) <= rows)

    @cached_property
    def sides(self) -> list:
        """[left, d] for each side where M fixes w, d = w M - w (left) or
        M w - w; the right side last, so that its pairing is the one kept
        exactly."""
        M, m, w, sides = self.powers[0], self.fixed, self.w, []
        for left in (True, False):
            R = M.T if left else M
            # a plain sum decides the side, an exact one gives its d
            if np.abs(R[:, :m].sum(axis=1) - w).max() <= _FIXED_TOL:
                sides.append([left, -_residual(R[None], m, w, 0.0)[0]])
        return sides

    def ready(self, left: int, expected: float) -> bool:
        """Whether the next block doubles, with `left` steps left in the
        budget and `expected` steps expected yet: once squares are built,
        which then reach every block the budget allows; before, when the
        squares needed by the largest block the budget allows cost fewer
        steps than expected, by `_SQUARE_STEPS`, and they are then built."""
        if len(self.powers) > 1:
            return True
        # a block of n states takes powers up to M^(2^top), 2^(top + 1) <= n + 1
        top = (min(left, _MAX_BLOCK) + 1).bit_length() - 2
        if expected < self.cost[0] + top * self.cost[1]:
            return False
        self.build(top)
        return True

    def build(self, j: int) -> None:
        """Square the powers up to M^(2^j), then correct the new ones."""
        sides = self.sides
        flip = [left for left, _ in sides] == [True]
        P = self.powers[-1].T if flip else self.powers[-1]
        S = np.empty((j + 1 - len(self.powers),) + P.shape)
        for k in range(len(S)):
            P = np.matmul(P, P, out=S[k])
        for side in sides:
            # R: the new powers as rows that sum to w + d
            swap = side[0] != flip
            R = S.swapaxes(1, 2).copy() if swap else S
            P = self.powers[-1].T if side[0] else self.powers[-1]
            D, d = np.empty(S.shape[:2]), side[1]
            for k in range(len(S)):
                # P^2 w - w = P (P w - w) + (P w - w)
                d = D[k] = d + P @ d
                P = R[k]
            # in parts of at most _CORRECT_FLOATS, see above
            m = self.fixed
            c = max(1, _CORRECT_FLOATS // R[0, :, :m].size)
            buf = np.empty(R[:c, :, :m].shape)
            for k in range(0, len(R), c):
                part, scratch = R[k : k + c], buf[: len(R) - k]
                _keep(part, m, _residual(part, m, self.w, D[k : k + c], scratch), scratch)
            if swap:
                S[...] = R.swapaxes(1, 2)
            side[1] = d
        self.powers.extend(S.swapaxes(1, 2) if flip else S)


def _residual(R: np.ndarray, m: int, w: np.ndarray, D, buf=None) -> np.ndarray:
    """w + D minus the sums of the first m entries of each row of the stack
    R, the sums exact but for a rounding far below eps: the entries are
    split into parts on one grid, whose sums are exact, and remainders below
    its spacing. `buf`, of the shape of R's first m columns, is scratch."""
    head = R[..., :m]
    top = max(head.max(), -head.min())
    if top == 0.0:
        return w + D
    sigma = 2.0 ** (math.ceil(math.log2(m * top)) + 1)
    hi = np.add(head, sigma, out=buf)
    hi -= sigma
    # sums of parts on the grid are exact in any order, and w - sum(hi) too:
    # both are multiples of the grid's spacing below sigma
    ones = np.ones(m)
    r = w - hi @ ones
    return r + (D - np.subtract(head, hi, out=hi) @ ones)


def _keep(R: np.ndarray, m: int, r: np.ndarray, buf: np.ndarray) -> None:
    """Add each row's residual r to its entry of least magnitude among the
    first m that exceed it, whose rounding is far below eps, so that no
    entry changes sign. R is a C-contiguous stack, written in place; `buf`,
    of the shape of its first m columns, is scratch."""
    rows, r = R.reshape(-1, R.shape[-1]), r.reshape(-1)
    gap = np.abs(rows[:, :m], out=buf.reshape(len(rows), m))
    np.subtract(np.abs(r)[:, None], gap, out=gap)
    # the entries that exceed |r| are those of negative gap, and read as
    # int64 a negative float's bits are the least for the least magnitude
    k = gap.view(np.int64).argmin(axis=1)
    i = np.arange(len(rows))
    rows[i, k] += np.where(gap[i, k] < 0.0, r, 0.0)


def _raising(exc: Exception):
    """An iterator whose first item raises `exc`."""
    raise exc
    yield


def _trace(blocks, status: TerminalStatus, state, t: int) -> SimulationTrace:
    columns = (
        np.full(t + 1, np.nan) if parts[0] is None else np.concatenate(parts, dtype=float)
        for parts in zip(*blocks)
    )
    return SimulationTrace(*columns, status, state, t)
