"""Run traces shared by the classical and quantum runners, and the one run loop."""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, islice
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

    def lyapunov_values(self) -> list[float]:
        return self.lyapunov[~np.isnan(self.lyapunov)].tolist()

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
        """Write the trace with 17 significant digits per float, an empty cell
        for an absent value.

        The Lyapunov column is asserted non-increasing before anything is
        written; a violation aborts with the offending step in the message.
        """
        self.check_lyapunov_monotone()
        path = Path(path)
        columns = (self.lyapunov, self.lambda_min, self.lambda_max, self.dist_to_limit)
        cells = np.column_stack((np.arange(len(self.lyapunov)), *columns))
        # one format for the whole table; Python prints every NaN as "nan"
        body = ("\n%d,%.17g,%.17g,%.17g,%.17g" * len(cells)) % tuple(cells.ravel().tolist())
        path.write_text(CSV_HEADER + body.replace(",nan", ",") + "\n", newline="\n")
        return path


# States are measured in blocks of _FIRST_BLOCK, doubling up to _MAX_BLOCK
# states and _BLOCK_BYTES. The state cap bounds the maps applied past the
# stopping index (a 2x2 run that stops at t = 1250 applies 1272 maps with
# it, 2040 without), the byte cap a block's memory; a first block of 8
# spares short runs several tiny blocks.
_FIRST_BLOCK = 8
_MAX_BLOCK = 256
_BLOCK_BYTES = 1 << 16


def iterate(maps, state, apply, measure, stop: StoppingRule | None, move=None) -> SimulationTrace:
    """Run state(t+1) = apply(map(t), state(t)) until `stop` fires.

    `maps` is an iterable, built by every run from its dynamics argument by
    one rule on both cones: a single map (a StochasticMatrix or 2-d array, a
    KrausMap) is checked once and repeated; anything else is iterated, and
    each of its maps is coerced and checked against the state when pulled.

    Maps are applied one at a time into a block of states, where
    `apply(map, state, out)` writes each next state. `measure(states)`
    returns the block's columns (lyapunov, lambda_min, lambda_max,
    dist_to_limit, projective_lyapunov: None for a column the run does not
    record, NaN for an undefined value) and the level of each state; it must
    raise on a block exactly when it raises on one of its states. Without
    `move` the run stops at the first level below tolerance, from t = 0; with
    `move` at the first move(states)[k], a state's distance from the one
    before, below it, so after one step at least. The budget is tested before
    a map is pulled: a finite sequence of exactly max_iterations maps ends
    MAX_ITERATIONS, a shorter one INCOMPLETE_SEQUENCE. A state with a
    non-finite entry raises ValueError. Maps applied past the stopping index,
    and errors raised on them, never reach the result.
    """
    stop = stop or StoppingRule()
    columns, level = measure(state[None])
    blocks, t = [columns], 0
    if move is None and level[0] < stop.tolerance:
        return _trace(blocks, TerminalStatus.CONVERGED, state, t)
    status = TerminalStatus.MAX_ITERATIONS
    cap = max(1, min(_MAX_BLOCK, _BLOCK_BYTES // state.nbytes))
    size = min(_FIRST_BLOCK, cap)
    it = iter(maps)
    while t < stop.max_iterations:
        n = min(size, stop.max_iterations - t)
        states = np.empty((n + 1,) + state.shape, state.dtype)
        states[0] = state
        pulled = []
        try:
            for k, m in enumerate(islice(it, n), 1):
                pulled.append(m)
                apply(m, states[k - 1], states[k])
            states = states[: len(pulled) + 1]
            if not np.isfinite(states).all():
                raise ValueError("state entries must be finite")
            columns, level = measure(states[1:])
            if move is not None:
                level = move(states)
        except Exception as exc:
            if n == 1:
                raise
            # replay the block one map at a time, ending with the error: it
            # is raised only if no earlier state stops the run
            it, size = chain(pulled, _raising(exc)), 1
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
        size = min(2 * size, cap)
    return _trace(blocks, status, state, t)


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
