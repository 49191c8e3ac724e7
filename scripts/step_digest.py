#!/usr/bin/env python3
"""Print SHA-256 digests of runs whose steps are BLAS products.

Above n = 8 a dual or channel run steps each state by two complex matrix
products. This script runs the dual and the channel of a lazy random map at
n = 12, 24 and 32, 300 steps each from a fixed seed. A classical run of one
matrix fills its blocks by doubling, from squares of the matrix, wherever
the squares pay for themselves; the script runs `run_consensus` and
`run_dual_consensus` of a lazy random stochastic matrix at n = 64 and 128,
1,300 steps each. Runs of the other row forms double too: the script runs
the dual of a lazy map at n = 8 (a 64-row form) for 900 steps, its channel
at n = 2 (4 rows) for 1,250 and `run_consensus` at n = 48 for 800. At n = 32
and 128 it runs `run_consensus` for 200 steps, shorter than the 248 steps
before the first block of 256 states (doubled from its first block at
n = 32, stepped at n = 128, where the squares cost more than 200 steps), and
`run_dual_consensus` for 1,000 steps, which the budget ends 240 states into
a block. It prints one digest per run of its trace columns, iteration count
and final state, then one of all seventeen. Runs under different BLAS
thread counts should print the same lines:

    OPENBLAS_NUM_THREADS=1 python3 scripts/step_digest.py
    OPENBLAS_NUM_THREADS=2 python3 scripts/step_digest.py
"""
import hashlib
import math

import numpy as np

from conesim import (
    KrausMap,
    StoppingRule,
    random_kraus_map,
    random_stochastic_matrix,
    run_channel,
    run_consensus,
    run_dual_consensus,
    run_noncommutative_consensus,
)

SIZES = (12, 24, 32)
STEPS = 300
DOUBLED_SIZES = (64, 128)
DOUBLED_STEPS = 1300
SMALL_DOUBLED = (
    ("dual", run_noncommutative_consensus, 8, 900),
    ("channel", run_channel, 2, 1250),
    ("consensus", run_consensus, 48, 800),
)
# runs shorter than the first block of 256 states, and cut short by the budget
SHORT_AND_CUT_SIZES = (32, 128)
SHORT_AND_CUT = (("consensus", run_consensus, 200), ("dual_consensus", run_dual_consensus, 1000))


def lazy_map(n: int, rng: np.random.Generator) -> KrausMap:
    """0.9 id + 0.1 a random map of 3 operators: slowly mixing."""
    ops = random_kraus_map(n, 3, rng).operators
    return KrausMap((math.sqrt(0.9) * np.eye(n),) + tuple(math.sqrt(0.1) * ops))


def lazy_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """0.9 I + 0.1 a random stochastic matrix: slowly mixing."""
    return 0.9 * np.eye(n) + 0.1 * random_stochastic_matrix(n, rng)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """G G* / trace, G a complex Gaussian matrix."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Z = G @ G.conj().T
    return (Z + Z.conj().T) / (2 * np.trace(Z).real)


def digest(trace) -> str:
    h = hashlib.sha256()
    for column in (trace.lyapunov, trace.lambda_min, trace.lambda_max, trace.dist_to_limit):
        h.update(column.tobytes())
    h.update(str(trace.iterations).encode())
    h.update(np.ascontiguousarray(trace.final_state).tobytes())
    return h.hexdigest()


def main() -> int:
    rng = np.random.default_rng(2010)
    stop = StoppingRule(0.0, STEPS)
    total = hashlib.sha256()
    for n in SIZES:
        phi = lazy_map(n, rng)
        Z = random_density(n, rng)
        X, limit = n * Z, np.eye(n)
        for name, run, state in (
            ("dual", run_noncommutative_consensus, X),
            ("channel", run_channel, Z),
        ):
            line = digest(run(phi, state, stop, limit))
            total.update(line.encode())
            print(f"{name} n={n}: {line}")
    stop = StoppingRule(0.0, DOUBLED_STEPS)
    for n in DOUBLED_SIZES:
        A, x = lazy_matrix(n, rng), rng.uniform(0.5, 2.0, n)
        limit = np.full(n, x.mean())
        for name, run in (("consensus", run_consensus), ("dual_consensus", run_dual_consensus)):
            line = digest(run(A, x, stop, limit))
            total.update(line.encode())
            print(f"{name} n={n}: {line}")
    for name, run, n, steps in SMALL_DOUBLED:
        if name == "consensus":
            maps, state = lazy_matrix(n, rng), rng.uniform(0.5, 2.0, n)
        else:
            maps, state = lazy_map(n, rng), random_density(n, rng)
        line = digest(run(maps, state, StoppingRule(0.0, steps)))
        total.update(line.encode())
        print(f"{name} n={n}: {line}")
    for n in SHORT_AND_CUT_SIZES:
        A, x = lazy_matrix(n, rng), rng.uniform(0.5, 2.0, n)
        for name, run, steps in SHORT_AND_CUT:
            line = digest(run(A, x, StoppingRule(0.0, steps)))
            total.update(line.encode())
            print(f"{name} {steps} steps n={n}: {line}")
    print(f"all: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
