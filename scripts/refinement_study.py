#!/usr/bin/env python3
"""Grid-refinement experiment: convergence orders of the minimizer.

Solves the damped problem on a sequence of 1D grids and prints the
distance table — against the closed form where one exists (quadratic
density, no damping, unit datum), and Cauchy-style against the finest
grid for a genuinely nonlinear configuration.  Each coarse solution is
lifted onto the next grid's nodes by linear interpolation, the P1
interpolant itself, and distances are L² norms on the finer grid.

Usage: python scripts/refinement_study.py [--cells 16 32 64 128 256]
"""

import argparse
import math

import numpy as np

from varlab.cli import SolverConfig
from varlab.functional import ProblemSpec
from varlab.grid import DiscreteField, build_interval_grid, norm
from varlab.library import make_coefficient, make_integrand, make_library_datum
from varlab.solver import solve_outer


def _solutions(cells, integrand, coefficient, datum):
    """The minimizer of one problem family on each grid of the hierarchy."""
    solutions = []
    for n in cells:
        grid = build_interval_grid(0.0, 1.0, n)
        spec = ProblemSpec(
            grid=grid, integrand=make_integrand(integrand),
            b=make_coefficient(grid, *coefficient),
            f=make_library_datum(grid, *datum),
            solver_tol=1e-12, max_iter=SolverConfig().max_iter)
        solutions.append(solve_outer(spec)[0])
    return solutions


def _l2(grid, values) -> float:
    return norm(DiscreteField(grid=grid, values=values), "L2")


def _orders(values, cells) -> list:
    """log(v_i/v_{i+1}) / log(c_{i+1}/c_i) over consecutive pairs; inf where
    either value is 0."""
    return [math.log(v0 / v1) / math.log(c1 / c0) if v0 > 0 and v1 > 0
            else math.inf
            for (v0, v1), (c0, c1) in zip(zip(values, values[1:]),
                                          zip(cells, cells[1:]))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, nargs="+",
                        default=[16, 32, 64, 128, 256])
    args = parser.parse_args()
    cells = tuple(args.cells)
    if (len(cells) < 2 or cells[0] < 1
            or any(b <= a for a, b in zip(cells, cells[1:]))):
        parser.error("--cells needs at least two strictly increasing "
                     "positive counts")

    print("linear problem (closed form available)")
    print(f"{'cells':>7} {'L2 error':>14} {'order':>8}")
    solutions = _solutions(cells, "quadratic", ("zero",),
                           ("constant", {"value": 1.0}))
    errors = []
    for u in solutions:
        x = u.grid.nodes[:, 0]
        exact = 1.0 - (np.cosh((x - 0.5) / math.sqrt(2.0))
                       / math.cosh(0.5 / math.sqrt(2.0)))
        errors.append(_l2(u.grid, u.values - exact))
    orders = _orders(errors, cells)
    for i, n in enumerate(cells):
        order = f"{orders[i - 1]:8.3f}" if i else " " * 8
        print(f"{n:>7} {errors[i]:>14.6e} {order}")

    print("\ndamped log-augmented problem (Cauchy distances between levels)")
    print(f"{'cells':>7} {'dist to next':>14} {'order':>8}")
    solutions = _solutions(cells, "logaug", ("constant", {"value": 1.0}),
                           ("sine",))
    distances = [
        _l2(fine.grid, fine.values - np.interp(
            fine.grid.nodes[:, 0], coarse.grid.nodes[:, 0], coarse.values))
        for coarse, fine in zip(solutions, solutions[1:])]
    orders = _orders(distances, cells)
    for i, n in enumerate(cells[:-1]):
        order = f"{orders[i - 1]:8.3f}" if i else " " * 8
        print(f"{n:>7} {distances[i]:>14.6e} {order}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
