#!/usr/bin/env python3
"""Tabulate the radial witness that separates the two energy notions.

Prints, per clamp level n: the integrable-gradient seminorm (divergent in
n), the log-substitution energy (bounded by a closed-form limit), the raw
damped gradient quotient (two-route identity check), and the coercivity
chain slack. The growth ratio of the first column is reported at the end —
it crosses 100x near level 30.

Usage: python scripts/divergence_table.py [--dimension 3] [--rho 0.25]
                                          [--n-max 12]
"""

import argparse

from varlab.cli import CounterexampleConfig
from varlab.counterexample import divergence_report


def main() -> int:
    defaults = CounterexampleConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dimension", type=int, default=defaults.dimension)
    parser.add_argument("--rho", type=float, default=defaults.rho)
    parser.add_argument("--n-max", type=int, default=defaults.n_max)
    args = parser.parse_args()

    rep = divergence_report(args.dimension, args.rho, args.n_max,
                            defaults.quad_points)
    print(f"dimension {rep.dimension}, rho {rep.rho}, "
          f"log-energy limit {rep.log_h1_limit:.12f}")
    print(f"{'n':>4} {'grad L1':>14} {'log energy':>14} {'damped grad':>14} "
          f"{'chain slack':>14} {'identity rel':>13}")
    for i, n in enumerate(rep.levels):
        slack = (0.5 * rep.damped_grad_values[i]
                 + 0.5 * rep.amplitude_mass_values[i] - rep.w11_values[i])
        print(f"{n:>4} {rep.w11_values[i]:>14.8f} "
              f"{rep.log_h1_values[i]:>14.8f} "
              f"{rep.damped_grad_values[i]:>14.8f} {slack:>14.6f} "
              f"{rep.identity_rel_errors[i]:>13.2e}")
    print("\nassertions:", rep.assertions)
    if rep.w11_values[1] > 0:
        ratio = rep.w11_values[-1] / rep.w11_values[1]
        print(f"gradient-seminorm growth over the table: {ratio:.6f}x")
    return 0 if rep.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
