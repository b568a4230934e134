"""The four benchmark workloads, as data.

A workload is a list of operations; one pass (a "round") runs every
operation once through ``varlab.cli.main``.  The configs below are fixed
text; ``--seed`` reaches every command as ``varlab --seed``, which drives
the randomized audits (coercivity-chain samples, minimality comparisons).
This module imports nothing from ``varlab`` or numpy, so the runner can
read it without paying for either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Operation:
    """One ``varlab`` command of a workload round."""

    label: str
    subcommand: str
    config: str                   # YAML document passed with --config
    check: str                    # name of the output check in checks.py
    units: int = 1                # operations it counts as (sweep: points)
    work: int = 1                 # useful output per successful unit
    datum_sup: Optional[float] = None   # sup|f| of a bounded datum
    known_fault: Optional[str] = None   # why it fails every time today


def _solve_1d(cells: int, integrand: str, coefficient: str, datum: str) -> str:
    return (f"subcommand: solve\n"
            f"domain: {{dimension: 1, cells: {cells}, length: 1.0}}\n"
            f"integrand: {{kind: {integrand}}}\n"
            f"coefficient: {{kind: {coefficient}}}\n"
            f"datum: {{kind: {datum}}}\n")


def _solve_2d(cells: int, integrand: str, coefficient: str, datum: str) -> str:
    return (f"subcommand: solve\n"
            f"domain: {{dimension: 2, x_cells: {cells}, y_cells: {cells}, "
            f"lx: 1.0, ly: 1.0}}\n"
            f"integrand: {{kind: {integrand}}}\n"
            f"coefficient: {{kind: {coefficient}}}\n"
            f"datum: {{kind: {datum}}}\n")


def _witness(dimension: int, rho: float, n_max: int, **kw) -> Operation:
    # useful output of a witness command: its table rows, levels 0..n_max
    return Operation(
        f"d{dimension}-rho{rho:g}-n{n_max}", "counterexample",
        f"subcommand: counterexample\n"
        f"counterexample: {{dimension: {dimension}, rho: {rho}, "
        f"n_max: {n_max}, quad_points: 512}}\n",
        "witness", work=n_max + 1, **kw)


# All three integrands; a zero coefficient and one with a positive lower
# bound (so TESTCLASS runs); a bounded datum (one outer stage) and an
# unbounded one (five outer stages).  3 x 2 x 2 = 12 audited points.
SWEEP_CONFIG = """subcommand: sweep
domain: {dimension: 1, cells: 128, length: 1.0}
sweep:
  integrands:
    - {kind: quadratic, params: {}}
    - {kind: anisotropic, params: {}}
    - {kind: logaug, params: {}}
  coefficients:
    - {kind: zero, params: {}}
    - {kind: constant, params: {value: 1.0}}
  data:
    - {kind: constant, params: {value: 1.0}}
    - {kind: power-singularity, params: {}}
"""

OVERFLOW_FAULT = ("radial integrands overflow from level 329 on; "
                  "_converged_shell raises RuntimeError")

WORKLOADS = {
    "sweep": (
        Operation("sweep-12", "sweep", SWEEP_CONFIG, "sweep", units=12),
    ),
    "solve-1d": (
        Operation("linear-1e4", "solve",
                  _solve_1d(10_000, "quadratic", "zero", "constant"),
                  "closed_form_1d", datum_sup=1.0),
        Operation("linear-1e5", "solve",
                  _solve_1d(100_000, "quadratic", "zero", "constant"),
                  "closed_form_1d", datum_sup=1.0),
        Operation("damped-1e4", "solve",
                  _solve_1d(10_000, "logaug", "step", "power-singularity"),
                  "damped"),
        Operation("damped-1e5", "solve",
                  _solve_1d(100_000, "logaug", "step", "power-singularity"),
                  "damped"),
    ),
    "solve-2d": (
        Operation("linear-64", "solve",
                  _solve_2d(64, "quadratic", "zero", "constant"),
                  "fourier_2d", datum_sup=1.0),
        Operation("linear-128", "solve",
                  _solve_2d(128, "quadratic", "zero", "constant"),
                  "fourier_2d", datum_sup=1.0),
        Operation("damped-64", "solve",
                  _solve_2d(64, "logaug", "constant", "power-singularity"),
                  "damped"),
        Operation("damped-128", "solve",
                  _solve_2d(128, "logaug", "constant", "power-singularity"),
                  "damped"),
    ),
    # The default table, the deepest tables that work today with a margin
    # below each pair's overflow level (329, 339, 344), and the schema's
    # maximum n_max, which fails every time until the overflow is mended.
    "witness": (
        _witness(3, 0.25, 12),
        _witness(3, 0.25, 300),
        _witness(5, 0.5, 330),
        _witness(8, 1.0, 335),
        _witness(3, 0.25, 350, known_fault=OVERFLOW_FAULT),
    ),
}


def count_outcome(op: Operation, code, point_codes) -> tuple:
    """(attempted, failed) for one run of ``op``.

    ``code`` is the command's exit code, or None when it raised.  A sweep
    counts each audited point, read from its ``sweep_matrix.csv`` exit
    statuses (``point_codes``); without a full matrix every point failed.
    """
    if op.units == 1:
        return 1, int(code != 0)
    if code is None or len(point_codes) != op.units:
        return op.units, op.units
    return op.units, sum(1 for c in point_codes if c != 0)
