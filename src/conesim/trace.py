"""Per-iteration trace records shared by the classical and quantum runners."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, islice, repeat, takewhile
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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration snapshot.

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


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


@dataclass
class SimulationTrace:
    records: list[TraceRecord]
    status: TerminalStatus
    final_state: np.ndarray
    iterations: int
    contraction_factor: float | None = field(default=None)

    @property
    def final_lyapunov(self) -> float | None:
        for rec in reversed(self.records):
            if rec.lyapunov is not None:
                return rec.lyapunov
        return None

    def lyapunov_values(self) -> list[float]:
        return [r.lyapunov for r in self.records if r.lyapunov is not None]

    def with_contraction_factor(self, factor: float | None) -> "SimulationTrace":
        return replace(self, contraction_factor=factor)

    def check_lyapunov_monotone(self) -> None:
        prev: float | None = None
        prev_t = None
        for rec in self.records:
            if rec.lyapunov is None:
                continue
            if prev is not None and rec.lyapunov > prev + 1e-12 * max(1.0, abs(prev)):
                raise TraceInvariantError(
                    f"Lyapunov column increased: V({prev_t})={prev!r} -> "
                    f"V({rec.t})={rec.lyapunov!r}"
                )
            prev, prev_t = rec.lyapunov, rec.t

    def write_csv(self, path: str | Path) -> Path:
        """Write the trace with 17 significant digits per float.

        The Lyapunov column is asserted non-increasing before anything is
        written; a violation aborts with the offending step in the message.
        """
        self.check_lyapunov_monotone()
        path = Path(path)
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.t},{_fmt(r.lyapunov)},{_fmt(r.lambda_min)},"
                f"{_fmt(r.lambda_max)},{_fmt(r.dist_to_limit)}"
            )
        path.write_text("\n".join(lines) + "\n", newline="\n")
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

    Maps are applied one at a time into a block of states. `measure(states)`
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
    it = takewhile(lambda m: m is not None, maps)  # a None map ends the sequence
    while t < stop.max_iterations:
        n = min(size, stop.max_iterations - t)
        states = np.empty((n + 1,) + state.shape, state.dtype)
        states[0] = state
        pulled = []
        try:
            for k, m in enumerate(islice(it, n), 1):
                pulled.append(m)
                states[k] = apply(m, states[k - 1])
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
    lyap, lo, hi, dist, proj = (
        repeat(None) if parts[0] is None else np.concatenate(parts).tolist()
        for parts in zip(*blocks)
    )
    records = [
        TraceRecord(i, None if v != v else v, a, b, d, None if p != p else p)
        for i, (v, a, b, d, p) in enumerate(zip(lyap, lo, hi, dist, proj))
    ]
    return SimulationTrace(records, status, state, t)
