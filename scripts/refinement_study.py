#!/usr/bin/env python3
"""Grid-refinement experiment: convergence orders of the minimizer.

Solves the damped problem on a sequence of 1D grids and prints the
distance table — against the closed form where one exists (quadratic
density, no damping, unit datum), and Cauchy-style against the finest
grid for a genuinely nonlinear configuration.

Usage: python scripts/refinement_study.py [--cells 16 32 64 128 256]
"""

import argparse
import math

import numpy as np

from varlab.cli import SolverConfig
from varlab.functional import ProblemSpec
from varlab.grid import build_interval_grid
from varlab.library import make_coefficient, make_integrand, make_library_datum
from varlab.solver import refinement_study


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, nargs="+",
                        default=[16, 32, 64, 128, 256])
    args = parser.parse_args()
    cells = tuple(args.cells)
    max_iter = SolverConfig().max_iter

    def linear_problem(n):
        grid = build_interval_grid(0.0, 1.0, n)
        return ProblemSpec(
            grid=grid, integrand=make_integrand("quadratic"),
            b=make_coefficient(grid, "zero"),
            f=make_library_datum(grid, "constant", {"value": 1.0}),
            solver_tol=1e-12, max_iter=max_iter)

    def exact(x):
        return 1.0 - (np.cosh((x[:, 0] - 0.5) / math.sqrt(2.0))
                      / math.cosh(0.5 / math.sqrt(2.0)))

    print("linear problem (closed form available)")
    print(f"{'cells':>7} {'L2 error':>14} {'order':>8}")
    rep = refinement_study(linear_problem, cells, exact=exact)
    for i, n in enumerate(rep.cell_counts):
        order = f"{rep.reference_orders[i - 1]:8.3f}" if i else " " * 8
        print(f"{n:>7} {rep.reference_errors[i]:>14.6e} {order}")

    def damped_problem(n):
        grid = build_interval_grid(0.0, 1.0, n)
        return ProblemSpec(
            grid=grid, integrand=make_integrand("logaug"),
            b=make_coefficient(grid, "constant", {"value": 1.0}),
            f=make_library_datum(grid, "sine"),
            solver_tol=1e-12, max_iter=max_iter)

    print("\ndamped log-augmented problem (Cauchy distances between levels)")
    print(f"{'cells':>7} {'dist to next':>14} {'order':>8}")
    rep = refinement_study(damped_problem, cells)
    for i, n in enumerate(rep.cell_counts[:-1]):
        order = f"{rep.orders[i - 1]:8.3f}" if i else " " * 8
        print(f"{n:>7} {rep.distances[i]:>14.6e} {order}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
