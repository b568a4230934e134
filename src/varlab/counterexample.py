"""Radial witness for why the damped gradient integral alone is not
coercive on the space of integrable-gradient fields.

On the unit ball (dimension N > 2) the profile family

    v_n(r) = exp(T_n(r^{-rho} - 1)) - 1,     0 < rho < (N-2)/2,

has log(1 + v_n) = T_n(r^{-rho} - 1), so its damped gradient energy
∫|∇v_n|²/(1+v_n)² equals a closed-form integral that stays bounded in n,
while ∫|∇v_n| blows up. Adding the square mass ∫v_n² restores coercivity:
the report tabulates all four quantities and checks the chain inequality
∫|∇v| ≤ ½∫|∇v|²/(1+v)² + ½∫(1+v)² at every level.

All integrals are radial: 1D quadrature in r with the r^{N-1} Jacobian,
composite Gauss–Legendre on geometric panels clustered at the plateau
radius (the integrands are exponentially peaked there), doubled until two
refinements agree to 1e-8 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

QUAD_REL_TOL = 1e-8
IDENTITY_REL_TOL = 1e-8
MAX_PANELS = 1 << 17
#: exp(2n) must stay inside double range (overflow just past n ≈ 354)
MAX_LEVEL = 350
#: fewest quadrature points a radial integral may start from
MIN_QUAD_POINTS = 100


@dataclass(frozen=True)
class RadialProfile:
    """One member of the radial family: dimension, exponent, clamp level."""

    dimension: int
    rho: float
    n: float

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension <= 2:
            raise ValueError(
                f"dimension must be an integer > 2, got {self.dimension}")
        hi = (self.dimension - 2) / 2.0
        if not (0 < self.rho < hi):
            raise ValueError(
                f"rho must lie in (0, {hi:g}) for dimension {self.dimension}, "
                f"got {self.rho}")
        if self.n < 0:
            raise ValueError(f"clamp level must be >= 0, got {self.n}")
        if self.n > MAX_LEVEL:
            raise ValueError(
                f"clamp level {self.n} exceeds {MAX_LEVEL}: exp(2n) would "
                "overflow double precision")

    @property
    def r_n(self) -> float:
        """Plateau radius: where r^(-rho) - 1 reaches the clamp level."""
        return (1.0 + self.n) ** (-1.0 / self.rho)

    @property
    def plateau_value(self) -> float:
        return math.expm1(self.n)

    @property
    def sphere_measure(self) -> float:
        """Surface measure of the unit sphere in this dimension."""
        N = self.dimension
        return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)

    @property
    def ball_volume(self) -> float:
        return self.sphere_measure / self.dimension


def vn_value(p: RadialProfile, r):
    """Profile value exp(T_n(r^(-rho) - 1)) - 1 at radius r (scalar or array)."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0) or np.any(arr > 1):
        raise ValueError("radius must lie in (0, 1]")
    inner = np.clip(arr ** (-p.rho) - 1.0, 0.0, p.n)
    out = np.expm1(inner)
    return float(out) if np.isscalar(r) else out


# ----------------------------------------------------------- radial routine


def _shell_quadrature(p: RadialProfile, fn: Callable[[np.ndarray], np.ndarray],
                      panels: int, points_per_panel: int = 8) -> float:
    """∫_{r_n}^1 fn(r) dr on geometric panels clustered at the plateau radius."""
    r_n = p.r_n
    if r_n >= 1.0:
        return 0.0
    edges = r_n * (1.0 / r_n) ** np.linspace(0.0, 1.0, panels + 1)
    nodes, weights = np.polynomial.legendre.leggauss(points_per_panel)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    r = mids[:, None] + halfs[:, None] * nodes[None, :]
    w = halfs[:, None] * weights[None, :]
    return float(np.sum(w * fn(r)))


def _converged_shell(p: RadialProfile, fn, quad_points: int) -> float:
    panels = max(quad_points // 8, 13)
    value = _shell_quadrature(p, fn, panels)
    while panels <= MAX_PANELS:
        panels *= 2
        refined = _shell_quadrature(p, fn, panels)
        if abs(refined - value) <= QUAD_REL_TOL * (1.0 + abs(refined)):
            return refined
        value = refined
    raise RuntimeError("radial quadrature did not settle to 1e-8 relative")


# -------------------------------------------------------------- public ops


def w11_seminorm(p: RadialProfile, quad_points: int) -> float:
    """∫_ball |∇v_n| = ω·∫_{r_n}^1 rho·r^(-rho-1)·exp(r^(-rho)-1)·r^(N-1) dr."""
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(
            f"need quad_points >= {MIN_QUAD_POINTS}, got {quad_points}")
    N, rho = p.dimension, p.rho

    def fn(r):
        return rho * r ** (-rho - 1.0) * np.exp(r ** (-rho) - 1.0) * r ** (N - 1)

    return p.sphere_measure * _converged_shell(p, fn, quad_points)


def log_h1_seminorm(p: RadialProfile) -> float:
    """Closed form of ∫|∇ log(1+v_n)|²: ω·rho²·(1 - r_n^(N-2-2rho))/(N-2-2rho)."""
    N, rho = p.dimension, p.rho
    expo = N - 2.0 - 2.0 * rho
    return p.sphere_measure * rho ** 2 * (1.0 - p.r_n ** expo) / expo


def log_h1_limit(dimension: int, rho: float) -> float:
    """Supremum of log_h1_seminorm over all clamp levels."""
    probe = RadialProfile(dimension=dimension, rho=rho, n=1.0)
    return probe.sphere_measure * rho ** 2 / (dimension - 2.0 - 2.0 * rho)


def coercive_functional_value(p: RadialProfile,
                              quad_points: int) -> Tuple[float, float]:
    """(∫|∇v_n|²/(1+v_n)², ∫v_n²) by radial quadrature.

    The first component is evaluated as the raw quotient — numerator and
    denominator separately — so its agreement with log_h1_seminorm is a
    genuine two-route check of the substitution identity, not an algebraic
    tautology.
    """
    N, rho = p.dimension, p.rho

    def damped(r):
        e = np.exp(r ** (-rho) - 1.0)
        grad = rho * r ** (-rho - 1.0) * e
        return grad ** 2 / (1.0 + (e - 1.0)) ** 2 * r ** (N - 1)

    def mass(r):
        return np.expm1(r ** (-rho) - 1.0) ** 2 * r ** (N - 1)

    shell_damped = _converged_shell(p, damped, quad_points)
    shell_mass = _converged_shell(p, mass, quad_points)
    plateau = p.plateau_value ** 2 * p.r_n ** N / N
    omega = p.sphere_measure
    return omega * shell_damped, omega * (plateau + shell_mass)


def amplitude_mass(p: RadialProfile, quad_points: int) -> float:
    """∫_ball (1 + v_n)² (plateau closed form + shell quadrature)."""
    N, rho = p.dimension, p.rho

    def fn(r):
        return np.exp(r ** (-rho) - 1.0) ** 2 * r ** (N - 1)

    shell = _converged_shell(p, fn, quad_points)
    plateau = math.exp(2.0 * p.n) * p.r_n ** N / N
    return p.sphere_measure * (plateau + shell)


# ------------------------------------------------------------------- report


@dataclass(frozen=True)
class DivergenceReport:
    """Tabulated radial quantities plus the three structural assertions."""

    dimension: int
    rho: float
    levels: tuple
    r_values: tuple
    w11_values: tuple
    log_h1_values: tuple
    damped_grad_values: tuple
    square_mass_values: tuple
    amplitude_mass_values: tuple
    identity_rel_errors: tuple
    log_h1_limit: float
    assertions: dict

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())


def divergence_report(dimension: int, rho: float, n_max: int,
                      quad_points: int) -> DivergenceReport:
    """Tabulate levels 0..n_max and check boundedness / divergence / chain.

    Assertions: (a) the log-substitution energies stay below the analytic
    limit; (b) the integrable-gradient seminorm strictly increases; (c) the
    coercivity chain w11 ≤ ½·damped + ½·∫(1+v)² holds at every level; plus
    the two-route identity agreement at 1e-8 relative.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    levels = tuple(range(0, int(n_max) + 1))
    rows = []
    for n in levels:
        p = RadialProfile(dimension=dimension, rho=rho, n=float(n))
        w11 = w11_seminorm(p, quad_points)
        logh1 = log_h1_seminorm(p)
        damped, mass = coercive_functional_value(p, quad_points)
        amp = amplitude_mass(p, quad_points)
        rel = abs(damped - logh1) / max(logh1, 1e-300) if logh1 > 0 else 0.0
        rows.append((p.r_n, w11, logh1, damped, mass, amp, rel))
    r_vals, w11s, log_h1s, dampeds, masses, amps, rels = map(tuple, zip(*rows))

    limit = log_h1_limit(dimension, rho)
    assertions = {
        "log_h1_bounded_by_limit": bool(
            all(v <= limit * (1.0 + 1e-12) for v in log_h1s)),
        "w11_strictly_increasing": bool(
            all(b > a for a, b in zip(w11s, w11s[1:]))),
        "coercivity_chain_holds": bool(
            all(w <= 0.5 * d + 0.5 * a + 1e-9 * (1.0 + abs(w))
                for w, d, a in zip(w11s, dampeds, amps))),
        "identity_two_routes_agree": bool(
            all(r <= IDENTITY_REL_TOL for r in rels)),
    }
    return DivergenceReport(
        dimension=int(dimension), rho=float(rho), levels=levels,
        r_values=r_vals, w11_values=w11s, log_h1_values=log_h1s,
        damped_grad_values=dampeds, square_mass_values=masses,
        amplitude_mass_values=amps, identity_rel_errors=rels,
        log_h1_limit=limit, assertions=assertions)
