"""Per-iteration trace records shared by the classical and quantum runners."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
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


def iterate(maps, state, apply, record, stop: StoppingRule, move=None) -> SimulationTrace:
    """Run state(t+1) = apply(map(t), state(t)) until `stop` fires.

    `record(t, state)` returns the trace row and the run's level (its spread
    or spectral width). Without `move` the run stops once the level is below
    tolerance, checked from t = 0; with `move` it stops once
    move(new, old) is below tolerance, so it takes at least one step. The
    budget is tested before the next map is pulled: a finite sequence of
    exactly max_iterations maps ends MAX_ITERATIONS, a shorter one
    INCOMPLETE_SEQUENCE.
    """
    rec, level = record(0, state)
    records = [rec]
    t = 0
    if move is None and level < stop.tolerance:
        return SimulationTrace(records, TerminalStatus.CONVERGED, state, t)
    status = TerminalStatus.MAX_ITERATIONS
    it = iter(maps)
    while t < stop.max_iterations:
        m = next(it, None)
        if m is None:
            status = TerminalStatus.INCOMPLETE_SEQUENCE
            break
        new = apply(m, state)
        t += 1
        rec, level = record(t, new)
        records.append(rec)
        if move is not None:
            level = move(new, state)
        state = new
        if level < stop.tolerance:
            status = TerminalStatus.CONVERGED
            break
    return SimulationTrace(records, status, state, t)
