"""Output checks computed apart from the program.

Each check reads the artifacts one command wrote and compares them with a
reference this module computes itself: closed forms, a Fourier series,
``scipy.integrate.quad``, or a structural property of the scheme.  A check
returns a list of problems; an empty list is a pass.  run.py calls them
after the timed rounds, on the first round's artifacts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import yaml
from scipy.integrate import quad

# 1D linear case, -2u'' + u = 1 on (0, 1): the discretization error measured
# 0.0099 h^2 at 10^4 cells; at 10^5 cells it sits on a round-off floor of
# 1.0e-8.  The bound doubles the constant and allows 10x that floor.
CLOSED_FORM_1D_H2 = 0.02
CLOSED_FORM_1D_FLOOR = 1e-7
# 2D linear case: the error measured 0.026 h^2 at 64^2 and at 128^2.
FOURIER_2D_H2 = 0.05
FOURIER_TERMS = 1000          # odd modes per axis; tail below 1e-8
WITNESS_REL = 1e-8            # quadrature routes against references
GAP_LAW_REL = 1e-12           # closed-form column against (pi/2)(1+n)^-2


def _table(path: Path) -> dict:
    """CSV columns by header name, as float arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _solve_checks(op, out: Path, problems: list):
    """Checks every solve must pass; returns the solution table and its
    coordinate columns."""
    sol = _table(out / "solution.csv")
    energies = _table(out / "energies.csv")
    coords = [sol[c] for c in ("x", "y") if c in sol]
    boundary = np.zeros(sol["value"].shape, dtype=bool)
    for c in coords:
        boundary |= (c == c.min()) | (c == c.max())
    if np.any(sol["value"][boundary] != 0.0):
        problems.append("boundary values are not zero")
    # Armijo: every accepted energy is <= the one before, per clamp stage
    keys = np.stack([energies["stage_index"], energies["m_level"]], axis=1)
    same_stage = np.all(keys[1:] == keys[:-1], axis=1)
    rises = same_stage & (energies["energy"][1:] > energies["energy"][:-1])
    if np.any(rises):
        problems.append(f"energy rose within a clamp stage at data row "
                        f"{int(np.argmax(rises)) + 2} of energies.csv")
    # ||u_n||_inf <= sup|f_n| at every outer stage n
    for stage in np.unique(sol["stage_index"]):
        rows = sol["stage_index"] == stage
        n_level = float(sol["n_level"][rows][0])
        sup_f = n_level if op.datum_sup is None else min(n_level, op.datum_sup)
        linf = float(np.max(np.abs(sol["value"][rows])))
        if linf > sup_f:
            problems.append(f"stage {int(stage)}: ||u||inf {linf:.6g} "
                            f"exceeds sup|f_n| {sup_f:.6g}")
    return sol, coords


def check_damped(op, out: Path) -> list:
    problems: list = []
    _solve_checks(op, out, problems)
    return problems


def check_closed_form_1d(op, out: Path) -> list:
    problems: list = []
    sol, (x,) = _solve_checks(op, out, problems)
    a = 1.0 / math.sqrt(2.0)
    exact = 1.0 - np.cosh(a * (x - 0.5)) / math.cosh(0.5 * a)
    h = 1.0 / yaml.safe_load(op.config)["domain"]["cells"]
    err = float(np.max(np.abs(sol["value"] - exact)))
    bound = CLOSED_FORM_1D_H2 * h * h + CLOSED_FORM_1D_FLOOR
    if not err <= bound:
        problems.append(f"max error {err:.3g} against the closed form "
                        f"exceeds {bound:.3g}")
    return problems


def fourier_2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solution of -2 lap u + u = 1 on the unit square, zero on the edge:
    sum over odd m, n of 16 sin(m pi x) sin(n pi y) / (pi^2 m n (1 + 2 pi^2
    (m^2 + n^2)))."""
    k = np.arange(1, 2 * FOURIER_TERMS, 2, dtype=float)
    xs, ix = np.unique(x, return_inverse=True)
    ys, iy = np.unique(y, return_inverse=True)
    m, n = k[:, None], k[None, :]
    coef = 16.0 / (math.pi ** 2 * m * n * (1.0 + 2.0 * math.pi ** 2 * (m * m + n * n)))
    grid = np.sin(math.pi * np.outer(xs, k)) @ coef @ np.sin(math.pi * np.outer(ys, k)).T
    return grid[ix, iy]


def check_fourier_2d(op, out: Path) -> list:
    problems: list = []
    sol, (x, y) = _solve_checks(op, out, problems)
    h = 1.0 / yaml.safe_load(op.config)["domain"]["x_cells"]
    err = float(np.max(np.abs(sol["value"] - fourier_2d(x, y))))
    bound = FOURIER_2D_H2 * h * h
    if not err <= bound:
        problems.append(f"max error {err:.3g} against the Fourier series "
                        f"exceeds {bound:.3g}")
    return problems


def w11_reference(dimension: int, rho: float, levels) -> np.ndarray:
    """omega * int_0^n e^s (1+s)^-((N-1)/rho) ds at integer levels n, summed
    over unit pieces, each scaled by e^k to keep the integrand near 1."""
    omega = 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)
    p = (dimension - 1.0) / rho
    top = int(max(levels))
    pieces = [math.exp(k) * quad(lambda t, k=k: math.exp(t) * (1.0 + k + t) ** -p,
                                 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
              for k in range(top)]
    cumulative = np.concatenate([[0.0], np.cumsum(pieces)])
    return omega * cumulative[np.asarray(levels, dtype=int)]


def check_witness(op, out: Path) -> list:
    problems: list = []
    ce = yaml.safe_load(op.config)["counterexample"]
    dim, rho, n_max = ce["dimension"], float(ce["rho"]), ce["n_max"]
    table = _table(out / "counterexample.csv")
    levels = table["level"]
    if not np.array_equal(levels, np.arange(n_max + 1)):
        problems.append(f"table levels are not 0..{n_max}")
        return problems
    ref = w11_reference(dim, rho, levels)
    err = np.abs(table["w11_seminorm"] - ref)
    if np.any(err > WITNESS_REL * np.abs(ref)):
        problems.append(f"w11_seminorm off the substituted integral at level "
                        f"{int(np.argmax(err > WITNESS_REL * np.abs(ref)))}")
    if (dim, rho) == (3, 0.25):
        limit = math.pi / 2.0
        law = limit * (1.0 - (1.0 + levels) ** -2.0)
        if np.any(np.abs(table["log_h1_seminorm"] - law) > GAP_LAW_REL * limit):
            problems.append("log_h1_seminorm off the gap law (pi/2)(1+n)^-2")
        if np.any(np.abs(table["damped_gradient"] - law) > WITNESS_REL * limit):
            problems.append("quadrature route off the gap law (pi/2)(1+n)^-2")
    return problems


def check_sweep(op, out: Path) -> list:
    problems: list = []
    with open(out / "sweep_report.json") as fh:
        report = json.load(fh)
    if report["summary"]["points"] != op.units:
        problems.append(f"sweep ran {report['summary']['points']} points, "
                        f"not {op.units}")
    failing = [p["index"] for p in report["points"]
               if p["report"]["exit_status"] != 0]
    if failing or report["exit_status"] != 0:
        problems.append(f"sweep points {failing} did not exit 0")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "closed_form_1d": check_closed_form_1d,
    "fourier_2d": check_fourier_2d,
    "damped": check_damped,
    "witness": check_witness,
}
