#!/usr/bin/env python3
"""Small numeric study of contraction certificates.

Part 1 compares the certified Birkhoff factor tanh(diameter/4) against the
worst contraction ratio observed over random pairs, for random dense and
sparse row-stochastic matrices.

Part 2 tracks the sampled image radius of the mixed-rotation qubit map under
composition. Every printed radius is a sampled lower bound. The one-step map
has Kraus rank 2 < 2n - 1 = 3, so its true radius is +inf, but the sampled
projectors miss the pole and k = 1 prints a large finite value. The deeper
compositions print finite and shrinking radii, which is the uniform-horizon
contraction picture.

Usage: python3 scripts/contraction_study.py [--seed N]
"""
import argparse
import math

import numpy as np

from conesim import (
    check_birkhoff_contraction,
    estimate_image_radius,
    kraus_power,
    make_spin_rotation_map,
    random_stochastic_matrix,
)


def stochastic_matrix_study(seed: int) -> None:
    rng = np.random.default_rng(seed)
    print("random row-stochastic matrices: certified factor vs observed worst ratio")
    print(f"{'n':>3} {'density':>8} {'diameter':>12} {'certified':>10} {'observed':>10}")
    for n in (2, 4, 8):
        for density in (None, 0.6):
            a = random_stochastic_matrix(n, rng, density)
            pairs = [
                (10.0 ** rng.uniform(-2, 2, n), 10.0 ** rng.uniform(-2, 2, n))
                for _ in range(200)
            ]
            report = check_birkhoff_contraction(a, pairs)
            observed = report.worst_ratio if report.worst_ratio is not None else float("nan")
            diameter = report.diameter if math.isfinite(report.diameter) else "+inf"
            print(
                f"{n:>3} {str(density):>8} {str(diameter):>12.12} "
                f"{report.contraction_bound:>10.6f} {observed:>10.6f}"
            )


def spin_rotation_study(seed: int) -> None:
    phi = make_spin_rotation_map(0.7, 1.1, 0.3)
    print()
    print("mixed-rotation qubit map: sampled image radius of k-fold compositions")
    print(f"{'k':>3} {'radius':>12} {'bracket upper':>14} {'certified factor':>17}")
    for k in (1, 2, 3, 4, 6):
        estimate = estimate_image_radius(kraus_power(phi, k), samples=4000, seed=seed + k)
        radius = estimate.radius
        if math.isfinite(radius):
            upper = 2.0 * radius
            factor = np.tanh(upper / 4.0)
            print(f"{k:>3} {radius:>12.6f} {upper:>14.6f} {factor:>17.6f}")
        else:
            print(f"{k:>3} {'+inf':>12} {'+inf':>14} {1.0:>17.6f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    stochastic_matrix_study(args.seed)
    spin_rotation_study(args.seed)


if __name__ == "__main__":
    main()
