"""Radial witness for why the damped gradient integral alone is not
coercive on the space of integrable-gradient fields.

On the unit ball (dimension N > 2) the profile family

    v_n(r) = exp(T_n(r^{-rho} - 1)) - 1,     0 < rho < (N-2)/2,

has log(1 + v_n) = T_n(r^{-rho} - 1), so its damped gradient energy
∫|∇v_n|²/(1+v_n)² equals a closed-form integral that stays bounded in n,
while ∫|∇v_n| blows up. Adding the square mass ∫v_n² restores coercivity:
the report tabulates all four quantities and checks the chain inequality
∫|∇v| ≤ ½∫|∇v|²/(1+v)² + ½∫(1+v)² at every level.

All integrals are radial: Gauss–Legendre in r on geometric panels, which
cluster where the integrands peak, doubled per shell until two refinements
agree to 1e-8 relative. Only the plateau radius r_n depends on the level,
so the table is one pass: ∫|∇v_n|, ∫v_n² and ∫(1+v_n)² are cumulative sums
over the disjoint shells [r_{n+1}, r_n] plus closed-form plateaus. The
damped gradient, the second route of the identity check, stays one whole
interval [r_n, 1] per level (all levels batched): a sum of shells would
stack roundings into the very number compared with the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

QUAD_REL_TOL = 1e-8
IDENTITY_REL_TOL = 1e-8
MAX_PANELS = 1 << 17
#: most quadrature points a radial integral may start from: 8 on each of
#: MAX_PANELS panels, since a first pass past MAX_PANELS gets no second
MAX_QUAD_POINTS = 8 * MAX_PANELS
#: exp(2n) must stay inside double range (overflow just past n ≈ 354)
MAX_LEVEL = 350
#: Γ(N/2) in the unit sphere's measure overflows double range from N = 344
MAX_DIMENSION = 343
#: fewest quadrature points a radial integral may start from
MIN_QUAD_POINTS = 100
#: budget of one (shells, panels, 8) array of the batched radial routine
SHELL_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class RadialProfile:
    """One member of the radial family: dimension, exponent, clamp level."""

    dimension: int
    rho: float
    n: float

    def __post_init__(self):
        if (int(self.dimension) != self.dimension
                or not 2 < self.dimension <= MAX_DIMENSION):
            raise ValueError(f"dimension must be an integer in 3..{MAX_DIMENSION}, "
                             f"got {self.dimension}")
        hi = (self.dimension - 2) / 2.0
        if not (0 < self.rho < hi):
            raise ValueError(f"rho must lie in (0, {hi:g}) for dimension "
                             f"{self.dimension}, got {self.rho}")
        if self.n < 0:
            raise ValueError(f"clamp level must be >= 0, got {self.n}")
        if self.n > MAX_LEVEL:
            raise ValueError(f"clamp level {self.n} exceeds {MAX_LEVEL}: "
                             "exp(2n) would overflow double precision")

    @property
    def r_n(self) -> float:
        """Plateau radius: where r^(-rho) - 1 reaches the clamp level."""
        return (1.0 + self.n) ** (-1.0 / self.rho)

    @property
    def plateau_masses(self) -> Tuple[float, float]:
        """(∫v_n², ∫(1+v_n)²) over the plateau ball r < r_n, without ω."""
        N = self.dimension
        return (math.expm1(self.n) ** 2 * self.r_n ** N / N,
                math.exp(2.0 * self.n) * self.r_n ** N / N)

    @property
    def sphere_measure(self) -> float:
        """Surface measure of the unit sphere in this dimension."""
        N = self.dimension
        return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


# -------------------------------------------------------- radial quadrature


class QuadratureError(RuntimeError):
    """A radial integral that did not settle to QUAD_REL_TOL."""


def _integrands(p: RadialProfile) -> dict:
    """The radial integrands, with the r^(N-1) Jacobian. "damped" forms
    numerator and denominator apart, so its agreement with log_h1_seminorm
    is a genuine two-route check of the substitution identity."""
    N, rho = p.dimension, p.rho

    def damped(r):
        e = np.exp(r ** (-rho) - 1.0)
        grad = rho * r ** (-rho - 1.0) * e
        return grad ** 2 / (1.0 + (e - 1.0)) ** 2 * r ** (N - 1)

    return {"damped": damped,
            "w11": lambda r: (rho * r ** (-rho - 1.0) * np.exp(r ** (-rho) - 1.0)
                              * r ** (N - 1)),
            "mass": lambda r: np.expm1(r ** (-rho) - 1.0) ** 2 * r ** (N - 1),
            "amplitude": lambda r: np.exp(r ** (-rho) - 1.0) ** 2 * r ** (N - 1)}


def _converged_shells(fn: Callable[[np.ndarray], np.ndarray], lo, hi,
                      quad_points: int, what: str = "shell") -> np.ndarray:
    """∫_{lo_i}^{hi_i} fn(r) dr for every shell at once (0 where lo_i >= hi_i):
    8 Gauss–Legendre points on each of max(quad_points // 8, 13) geometric
    panels, doubled until two refinements agree to QUAD_REL_TOL relative.
    Settled shells are frozen. Each shell is one contiguous row reduction,
    so its bits do not depend on the others. A non-finite shell, or one still
    moving past MAX_PANELS, raises QuadratureError naming `what` and the
    lowest such index (the ones below it need not have settled yet)."""
    if not MIN_QUAD_POINTS <= quad_points <= MAX_QUAD_POINTS:
        raise ValueError(f"need quad_points in {MIN_QUAD_POINTS}.."
                         f"{MAX_QUAD_POINTS}, got {quad_points}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def quadrature(live, panels):
        sums, grading = np.empty(live.size), np.linspace(0.0, 1.0, panels + 1)
        rows = max(1, SHELL_BLOCK_BYTES // (panels * nodes.nbytes))
        for i in range(0, live.size, rows):
            at = live[i:i + rows]
            edges = lo[at, None] * (hi[at] / lo[at])[:, None] ** grading
            mids = 0.5 * (edges[:, 1:] + edges[:, :-1])[..., None]
            halfs = 0.5 * (edges[:, 1:] - edges[:, :-1])[..., None]
            f = halfs * weights * fn(mids + halfs * nodes)   # (B, panels, 8)
            sums[i:i + rows] = f.reshape(at.size, -1).sum(axis=1)
        return sums

    out = np.zeros(lo.shape)
    panels, live = max(quad_points // 8, 13), np.flatnonzero(lo < hi)
    value = np.full(live.size, np.nan)          # the first pass settles none
    while live.size:
        with np.errstate(all="ignore"):     # raised below as non-finite
            refined = quadrature(live, panels)
        done = np.abs(refined - value) <= QUAD_REL_TOL * (1.0 + np.abs(refined))
        finite = np.isfinite(refined)
        if not finite.all() or (panels > MAX_PANELS and not done.all()):
            first = live[~finite if not finite.all() else ~done][0]
            raise QuadratureError("radial quadrature did not settle to 1e-8 "
                                  f"relative at {what} {first}")
        out[live[done]] = refined[done]
        live, value, panels = live[~done], refined[~done], 2 * panels
    return out


def ball_integral(p: RadialProfile, name: str, quad_points: int) -> float:
    """ω·(plateau + ∫_{r_n}^1) of ∫|∇v_n| ("w11"), ∫|∇v_n|²/(1+v_n)² ("damped"),
    ∫v_n² ("mass") or ∫(1+v_n)² ("amplitude"); only the masses have a plateau."""
    plateau = dict(zip(("mass", "amplitude"), p.plateau_masses)).get(name, 0.0)
    shell = _converged_shells(_integrands(p)[name], [p.r_n], [1.0], quad_points)
    return p.sphere_measure * (plateau + float(shell[0]))


def log_h1_seminorm(p: RadialProfile) -> float:
    """Closed form of ∫|∇ log(1+v_n)|²: ω·rho²·(1 - r_n^(N-2-2rho))/(N-2-2rho)."""
    N, rho = p.dimension, p.rho
    expo = N - 2.0 - 2.0 * rho
    return p.sphere_measure * rho ** 2 * (1.0 - p.r_n ** expo) / expo


def log_h1_limit(dimension: int, rho: float) -> float:
    """Supremum of log_h1_seminorm over all clamp levels."""
    probe = RadialProfile(dimension=dimension, rho=rho, n=1.0)
    return probe.sphere_measure * rho ** 2 / (dimension - 2.0 - 2.0 * rho)


# ------------------------------------------------------------------- report


#: the tabulated columns, one value per level: DivergenceReport fields of
#: these names, and the header of the table that the command line writes
TABLE_COLUMNS = ("level", "radius", "w11_seminorm", "log_h1_seminorm",
                 "damped_gradient", "square_mass", "amplitude_mass",
                 "identity_rel_error")


@dataclass(frozen=True)
class DivergenceReport:
    """Tabulated radial quantities plus the three structural assertions."""

    dimension: int
    rho: float
    level: tuple
    radius: tuple
    w11_seminorm: tuple
    log_h1_seminorm: tuple
    damped_gradient: tuple
    square_mass: tuple
    amplitude_mass: tuple
    identity_rel_error: tuple
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
    profiles = [RadialProfile(dimension, rho, float(n)) for n in levels]
    fns, omega = _integrands(profiles[0]), profiles[0].sphere_measure
    r = np.array([p.r_n for p in profiles])
    plateaus = np.array([p.plateau_masses for p in profiles]).T

    def shells(name, hi):
        # shell n is [r_n, hi_n], so an error names the level it stopped at
        return _converged_shells(fns[name], r, hi, quad_points, f"{name!r} level")

    def column(name, plateau=0.0):     # shell 0 is empty: [r_0, r_0]
        cumulative = np.cumsum(shells(name, np.concatenate(([r[0]], r[:-1]))))
        return tuple((omega * (plateau + cumulative)).tolist())

    w11s, masses = column("w11"), column("mass", plateaus[0])
    amps = column("amplitude", plateaus[1])
    dampeds = tuple((omega * shells("damped", np.ones_like(r))).tolist())
    log_h1s = tuple(log_h1_seminorm(p) for p in profiles)
    rels = tuple(abs(d - h) / max(h, 1e-300) if h > 0 else 0.0
                 for d, h in zip(dampeds, log_h1s))
    limit = log_h1_limit(dimension, rho)
    assertions = {
        "log_h1_bounded_by_limit": all(v <= limit * (1.0 + 1e-12) for v in log_h1s),
        "w11_strictly_increasing": all(b > a for a, b in zip(w11s, w11s[1:])),
        "coercivity_chain_holds": all(
            w <= 0.5 * d + 0.5 * a + 1e-9 * (1.0 + abs(w))
            for w, d, a in zip(w11s, dampeds, amps)),
        "identity_two_routes_agree": all(e <= IDENTITY_REL_TOL for e in rels),
    }
    return DivergenceReport(
        dimension=int(dimension), rho=float(rho), level=levels,
        radius=tuple(r.tolist()), w11_seminorm=w11s, log_h1_seminorm=log_h1s,
        damped_gradient=dampeds, square_mass=masses, amplitude_mass=amps,
        identity_rel_error=rels, log_h1_limit=limit, assertions=assertions)
