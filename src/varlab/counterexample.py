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
over the disjoint shells [r_{n+1}, r_n] plus closed-form plateaus. These
three columns share each radial pass and the powers of r it evaluates,
with the bits of one pass per column. The damped gradient, the second
route of the identity check, stays apart: one whole interval [r_n, 1] per
level (all levels batched), as a sum of shells would stack roundings into
the very number compared with the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

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
#: budget of one (shells, panels, 8) array of the batched radial routine:
#: 256 KiB took one witness round's compute from 0.234 s (4 MiB) to 0.198 s,
#: 64 KiB the same, 16 KiB slower
SHELL_BLOCK_BYTES = 256 << 10
#: the shell integrands that one radial pass evaluates together
SHELL_COLUMNS = ("w11", "mass", "amplitude")


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


def _integrands(p: RadialProfile) -> Tuple[Callable, Callable]:
    """The radial integrands with the r^(N-1) Jacobian, as column generators.
    "damped" forms numerator and denominator apart, so its agreement with
    log_h1_seminorm is a genuine two-route check of the substitution
    identity. The other yields the SHELL_COLUMNS from shared powers, each in
    the operation order, and so with the bits, of its own formula."""
    N, rho = p.dimension, p.rho

    def damped(r):
        e = np.exp(r ** (-rho) - 1.0)
        grad = rho * r ** (-rho - 1.0) * e
        yield grad ** 2 / (1.0 + (e - 1.0)) ** 2 * r ** (N - 1)

    def shell_columns(r):
        s = r ** (-rho) - 1.0
        e, jac = np.exp(s), r ** (N - 1)
        yield rho * r ** (-rho - 1.0) * e * jac
        yield np.expm1(s) ** 2 * jac
        yield e ** 2 * jac

    return damped, shell_columns


def _converged_shells(columns: Callable[[np.ndarray], Iterable[np.ndarray]],
                      lo, hi, quad_points: int, what: Tuple[str, ...]) -> np.ndarray:
    """∫_{lo_i}^{hi_i} f_k(r) dr for every shell i at once (0 where lo_i >= hi_i)
    and every column f_k that `columns(r)` yields in turn, one per label in
    `what`: 8 Gauss–Legendre points on each of max(quad_points // 8, 13)
    geometric panels, doubled until two refinements agree to QUAD_REL_TOL
    relative. A pass forms the columns one after another on the shells that
    any of them still needs; settled (column, shell) pairs are frozen. Each
    value is one contiguous row reduction, so its bits depend neither on the
    other shells nor on the other columns. A non-finite shell, or one still
    moving past MAX_PANELS, fails its column and drops the columns after it;
    once the columns before it have settled, QuadratureError names its label
    and the lowest such index (the ones below it need not have settled yet)."""
    if not MIN_QUAD_POINTS <= quad_points <= MAX_QUAD_POINTS:
        raise ValueError(f"need quad_points in {MIN_QUAD_POINTS}.."
                         f"{MAX_QUAD_POINTS}, got {quad_points}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def quadrature(live, panels, count):
        # a column's first non-finite block stops it and the later columns
        sums = np.full((count, live.size), np.nan)
        grading = np.linspace(0.0, 1.0, panels + 1)
        rows = max(1, SHELL_BLOCK_BYTES // (panels * nodes.nbytes))
        for i in range(0, live.size, rows):
            at = live[i:i + rows]
            edges = lo[at, None] * (hi[at] / lo[at])[:, None] ** grading
            mids = 0.5 * (edges[:, 1:] + edges[:, :-1])[..., None]
            halfs = 0.5 * (edges[:, 1:] - edges[:, :-1])[..., None]
            scale = halfs * weights
            formed = iter(columns(mids + halfs * nodes))
            for k in range(count):
                f = next(formed)
                f *= scale                                   # (B, panels, 8)
                block = sums[k, i:i + rows] = f.reshape(at.size, -1).sum(axis=1)
                del f       # freed before the next column is formed
                if not np.isfinite(block[pending[k, at]]).all():
                    count = k
                    break
        return sums

    out = np.zeros((len(what),) + lo.shape)
    pending = np.tile(lo < hi, (len(what), 1))      # (column, shell) unsettled
    value = np.full(pending.shape, np.nan)          # the first pass settles none
    panels, count, error = max(quad_points // 8, 13), len(what), None
    while pending[:count].any():
        live = np.flatnonzero(pending[:count].any(axis=0))
        with np.errstate(all="ignore"):     # raised below as non-finite
            sums = quadrature(live, panels, count)
        for k in range(count):
            mine = pending[k, live]
            at, refined = live[mine], sums[k, mine]
            done = (np.abs(refined - value[k, at])
                    <= QUAD_REL_TOL * (1.0 + np.abs(refined)))
            finite = np.isfinite(refined)
            if not finite.all() or (panels > MAX_PANELS and not done.all()):
                first = at[~finite if not finite.all() else ~done][0]
                count, error = k, QuadratureError(
                    "radial quadrature did not settle to 1e-8 relative at "
                    f"{what[k]} {first}")
                break
            out[k, at[done]], pending[k, at[done]] = refined[done], False
            value[k, at] = refined
        panels *= 2
    if error is not None:
        raise error
    return out


def ball_integral(p: RadialProfile, name: str, quad_points: int) -> float:
    """ω·(plateau + ∫_{r_n}^1) of ∫|∇v_n| ("w11"), ∫|∇v_n|²/(1+v_n)² ("damped"),
    ∫v_n² ("mass") or ∫(1+v_n)² ("amplitude"); only the masses have a plateau."""
    plateau = dict(zip(("mass", "amplitude"), p.plateau_masses)).get(name, 0.0)
    damped, shell_columns = _integrands(p)
    columns, what = ((damped, ("damped",)) if name == "damped"
                     else (shell_columns, SHELL_COLUMNS))
    shell = _converged_shells(columns, [p.r_n], [1.0], quad_points, what)
    return p.sphere_measure * (plateau + float(shell[what.index(name), 0]))


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
    (damped, shell_columns), omega = _integrands(profiles[0]), profiles[0].sphere_measure
    r = np.array([p.r_n for p in profiles])
    plateaus = np.array([p.plateau_masses for p in profiles]).T

    def shells(columns, what, hi):
        # shell n is [r_n, hi_n], so an error names the level it stopped at
        return _converged_shells(columns, r, hi, quad_points,
                                 tuple(f"{name!r} level" for name in what))

    # shell 0 is empty: [r_0, r_0]
    cumulative = np.cumsum(shells(shell_columns, SHELL_COLUMNS,
                                  np.concatenate(([r[0]], r[:-1]))), axis=1)
    w11s, masses, amps = (tuple((omega * (plateau + c)).tolist()) for plateau, c
                          in zip((0.0, *plateaus), cumulative))
    dampeds = tuple((omega * shells(damped, ("damped",), np.ones_like(r))[0])
                    .tolist())
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
