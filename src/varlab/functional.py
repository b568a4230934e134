"""Energy evaluation for amplitude-damped Dirichlet functionals.

The functional is

    J(v)   = ∫ j(x, ∇v) / (1 + b(x)|v|)²  +  ½∫ v²  −  ∫ f v ,
    J_M(v) = same with the denominator amplitude clamped at level M,

evaluated with the grid quadrature. The integrand j must satisfy quadratic
growth bounds α|ξ|² ≤ j(x,ξ) ≤ β|ξ|², a gradient bound |j_ξ| ≤ γ|ξ|,
j(x,0)=0, and convexity in ξ — `certify` spot-checks all of them plus the
consistency of the supplied ξ-gradient on randomized samples.

The residual is the exact gradient of the *discrete* energy (differentiate
after discretizing): every term, including the chain-rule derivative of the
clamped amplitude in the denominator, is assembled from the same quadrature
formula that defines eval_JM, which is what makes the finite-difference
consistency check hold to near machine precision. The kernels read (E,)
columns (see `grid`) and keep the order of every operation, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import (
    Array,
    DiscreteField,
    Grid,
    _frozen,
    element_gradients,
    sample_at_quadrature,
    values_at_quadrature,
)

#: kept in sync with the residual: d|T_M(s)|/ds = sign(s) inside the clamp
#: (sign(0) = 0) and 0 strictly beyond it.
def _clamp_abs_derivative(s: Array, M: float) -> Array:
    if np.max(np.abs(s)) <= M:      # the clamp is inactive; a NaN is not
        return np.sign(s)
    return np.where(np.abs(s) <= M, np.sign(s), 0.0)


@dataclass(frozen=True)
class Integrand:
    """Gradient integrand j(x, ξ) with growth constants and its ξ-gradient.

    `density` and `grad` receive coordinates `x` of shape (..., Q, dim) and
    a gradient `xi` that may be (..., 1, dim), one per element, and must
    broadcast the two: density returns (..., Q) or (..., 1), grad returns
    (..., Q, dim) or (..., 1, dim), and the caller broadcasts either to
    the points.
    """

    label: str
    alpha: float
    beta: float
    gamma: float
    density: Callable[[Array, Array], Array]
    grad: Callable[[Array, Array], Array]

    def __post_init__(self):
        if not (0 < self.alpha <= self.beta):
            raise ValueError(f"need 0 < alpha <= beta, got ({self.alpha}, {self.beta})")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class CoefficientField:
    """Amplitude coefficient b sampled at the grid's quadrature points."""

    label: str
    grid: Grid
    quad_values: Array        # (E, Q)
    lower_bound: float        # A >= 0; A > 0 unlocks the test-class audit
    upper_bound: float        # B >= 0 (0 only for the identically-zero field)

    def __post_init__(self):
        q = np.asarray(self.quad_values, dtype=float)
        if q.shape != self.grid.quad_weights.shape:
            raise ValueError("coefficient samples do not match the quadrature layout")
        if not (0 <= self.lower_bound <= self.upper_bound):
            raise ValueError(
                f"need 0 <= lower <= upper, got ({self.lower_bound}, {self.upper_bound})")
        slack = 1e-12 * (1.0 + self.upper_bound)
        if np.any(q < self.lower_bound - slack) or np.any(q > self.upper_bound + slack):
            raise ValueError("coefficient samples violate the declared bounds")
        object.__setattr__(self, "quad_values", _frozen(q))


@dataclass(frozen=True)
class Datum:
    """Source datum f sampled at quadrature points, with its quadrature
    square mass ∫|f|² computed once from the samples."""

    grid: Grid
    quad_values: Array        # (E, Q)
    linf_bound: Optional[float]   # None when no sup bound is known
    l2_norm_sq: float = field(init=False)

    def __post_init__(self):
        q = _frozen(np.asarray(self.quad_values, dtype=float))
        if q.shape != self.grid.quad_weights.shape:
            raise ValueError("datum samples do not match the quadrature layout")
        l2sq = float(np.sum(self.grid.quad_weights * q * q))
        if not np.all(np.isfinite(q)) or not math.isfinite(l2sq):
            raise ValueError("datum must be square-integrable (finite samples)")
        object.__setattr__(self, "quad_values", q)
        object.__setattr__(self, "l2_norm_sq", l2sq)


def make_datum(grid: Grid, fn: Callable[[Array], Array],
               linf_bound: Optional[float] = None) -> Datum:
    """Sample `fn` at the quadrature points."""
    return Datum(grid=grid, quad_values=sample_at_quadrature(grid, fn),
                 linf_bound=linf_bound)


def make_Jn_datum(f: Datum, n: float) -> Datum:
    """Two-sided clamp of the datum at level n (the outer truncation stage)."""
    if n <= 0:
        raise ValueError(f"truncation level must be positive, got {n}")
    bound = float(n) if f.linf_bound is None else min(float(n), f.linf_bound)
    return Datum(grid=f.grid, quad_values=np.clip(f.quad_values, -n, n),
                 linf_bound=bound)


def check_schedule(levels, name: str = "schedule") -> tuple:
    """The truncation-schedule rule: a non-empty, strictly increasing tuple
    of positive levels.  Returns the levels as floats."""
    sched = tuple(float(s) for s in levels)
    if not sched:
        raise ValueError(f"{name} must be non-empty when given")
    if any(s <= 0 for s in sched):
        raise ValueError(f"{name} levels must be positive, got {sched}")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {sched}")
    return sched


@dataclass(frozen=True)
class ProblemSpec:
    """Full minimization instance: grid, integrand, damping b, datum f.

    The datum schedule n_schedule may be None, in which case the solver
    derives it: (1, 2, 4, 8, 16) for unbounded data, or for bounded data
    the single level n that is the first power of two at or above the sup
    bound. Each stage clamps the amplitude at the one level M = 2n.
    """

    grid: Grid
    integrand: Integrand
    b: CoefficientField
    f: Datum
    solver_tol: float
    max_iter: int
    n_schedule: Optional[tuple] = None

    def __post_init__(self):
        if self.n_schedule is not None:
            object.__setattr__(self, "n_schedule",
                               check_schedule(self.n_schedule, "n_schedule"))
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.b.grid is not self.grid or self.f.grid is not self.grid:
            raise ValueError("coefficient and datum must live on the spec grid")


# ------------------------------------------------------------- evaluation


class EnergyPieces(NamedTuple):
    """The per-quadrature-point arrays that eval_JM and residual share."""

    vq: Array       # field values, (E, Q)
    den: Array      # clamped denominators (1 + b|T_M(v)|)², (E, Q)
    j: Array        # integrand samples j(x, ∇v) broadcast to the points, (E, Q)
    xi: Array       # element gradients, (E, 1, d): ∇v is constant on an element


def energy_pieces(spec: ProblemSpec, v: DiscreteField, M: float) -> EnergyPieces:
    """Build the pieces of eval_JM(spec, v, M) and residual(spec, v, M) once,
    for a caller that needs both on the same field and clamp level."""
    g = spec.grid
    vq = values_at_quadrature(v)
    amp = np.minimum(np.abs(vq), M)     # |T_M(v)|, bit for bit |clip(v)|
    amp *= spec.b.quad_values
    amp += 1.0
    den = np.square(amp, out=amp)       # (1 + b|T_M(v)|)²
    xi = element_gradients(v)[:, None, :]
    j = np.broadcast_to(spec.integrand.density(g.quad_coords, xi), vq.shape)
    return EnergyPieces(vq, den, j, xi)


def eval_JM(spec: ProblemSpec, v: DiscreteField, M: float,
            pieces: Optional[EnergyPieces] = None) -> float:
    """Discrete energy with the denominator amplitude clamped at M.

    `pieces`, when given, must be energy_pieces(spec, v, M)."""
    if M <= 0:
        raise ValueError(f"clamp level must be positive, got {M}")
    vq, den, j, _ = pieces if pieces is not None else energy_pieces(spec, v, M)
    out = np.divide(j, den)             # j/den + ½v² − f·v, in two buffers
    term = np.multiply(0.5, vq)
    out += np.multiply(term, vq, out=term)
    out -= np.multiply(spec.f.quad_values, vq, out=term)
    return float(np.sum(np.multiply(out, spec.grid.quad_weights, out=out)))


def eval_J(spec: ProblemSpec, v: DiscreteField) -> float:
    """Discrete energy with the raw (unclamped) amplitude in the denominator."""
    return eval_JM(spec, v, math.inf)


def _contract(columns: Array, bary: Array, term: Array) -> Array:
    """(L, E) array of sum_q columns[q, e]·bary[q, l], summed from zero in q
    order; `term` is an (E,) scratch column."""
    out = np.zeros((bary.shape[1], columns.shape[1]))
    for q, column in enumerate(columns):
        for l, row in enumerate(out):
            row += np.multiply(bary[q, l], column, out=term)
    return out


def residual(spec: ProblemSpec, v: DiscreteField, M: float = math.inf,
             pieces: Optional[EnergyPieces] = None) -> Array:
    """Exact nodal gradient of the discrete eval_JM; boundary entries are 0.

    `pieces`, when given, must be energy_pieces(spec, v, M)."""
    if M <= 0:
        raise ValueError(f"clamp level must be positive, got {M}")
    g = spec.grid
    vq, den, j, xi = pieces if pieces is not None else energy_pieces(spec, v, M)
    bary = g.quad_points                                  # (Q, L)
    grads = g.basis_gradients.T                           # (d, L, E)

    # Element contributions, (L, E), from contiguous (E,) columns; each of
    # the three terms is summed from zero over (q, d) in that order, bit for
    # bit the einsum of the same formula (the tests' reference).
    dj = np.broadcast_to(spec.integrand.grad(g.quad_coords, xi),
                         g.quad_coords.shape).T           # (d, Q, E)
    columns = np.empty((bary.shape[0], g.n_elements))     # (Q, E)
    local, (column, term) = np.zeros(grads.shape[1:]), np.empty((2, g.n_elements))
    # ∂/∂v_l of j(x, ∇v)/den: through ∇v ...
    np.divide(g.quad_weights.T, den.T, out=columns)
    for q in range(bary.shape[0]):
        for d in range(grads.shape[0]):
            np.multiply(columns[q], dj[d, q], out=column)
            for l, row in enumerate(local):
                row += np.multiply(grads[d, l], column, out=term)
    # ... through the clamped amplitude in the denominator (pow reads den in
    # the einsum formula's layout, so a vector pow sees the same array) ...
    np.multiply(-2.0, j.T, out=columns)
    columns /= (den ** 1.5).T
    columns *= spec.b.quad_values.T
    columns *= _clamp_abs_derivative(vq, M).T
    columns *= g.quad_weights.T
    local += _contract(columns, bary, term)
    # ... and the mass and load terms.
    np.subtract(vq.T, spec.f.quad_values.T, out=columns)
    columns *= g.quad_weights.T
    local += _contract(columns, bary, term)

    out = np.zeros(g.n_nodes)
    for l in range(g.elements.shape[1]):
        out += np.bincount(g.elements[:, l], weights=local[l],
                           minlength=g.n_nodes)
    out[g.boundary_mask] = 0.0
    return out


# ------------------------------------------------------------ certification

#: (x, ξ) draws per dimension in one certification
CERTIFY_SAMPLES = 2000


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of randomized admissibility checks for one integrand."""

    label: str
    passed: bool
    samples: int
    seed: int
    margins: dict
    violations: tuple = field(default_factory=tuple)


# a non-finite sample fails its check, so no overflow is worth a warning
@np.errstate(all="ignore")
def certify(integrand: Integrand, seed: int) -> CertificationReport:
    """Randomized verification of the growth/gradient/convexity contract.

    Draws CERTIFY_SAMPLES points x uniformly in the unit box of dimensions 1
    and 2, in that order, and ξ with log-uniform magnitudes in
    [1e-3, 1e3], then checks, with roundoff-sized slack:
      lower/upper:  α|ξ|² ≤ j(x,ξ) ≤ β|ξ|²
      gradient:     |j_ξ(x,ξ)| ≤ γ|ξ|
      zero:         j(x,0) = 0
      midpoint:     j(x,(ξ₁+ξ₂)/2) ≤ (j(x,ξ₁)+j(x,ξ₂))/2
      consistency:  directional finite differences of j match j_ξ
    Each check keeps its worst margin.  The checks fail closed: a sample
    whose margin is not finite (NaN, or infinite because its density,
    ξ-gradient or bound overflowed) fails with margin -inf.  Fails are
    reported (never raised), with the violating (x, ξ) recorded.
    """
    rng = np.random.default_rng(seed)
    margins = {k: math.inf for k in
               ("lower", "upper", "gradient", "zero", "midpoint", "fd")}
    violations = []

    for dim in (1, 2):
        x = rng.uniform(0.0, 1.0, size=(CERTIFY_SAMPLES, dim))
        direction = rng.normal(size=(CERTIFY_SAMPLES, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        mag = 10.0 ** rng.uniform(-3.0, 3.0, size=(CERTIFY_SAMPLES, 1))
        xi = direction * mag

        j = np.asarray(integrand.density(x, xi), dtype=float)
        dj = np.asarray(integrand.grad(x, xi), dtype=float)
        n2 = np.sum(xi * xi, axis=1)
        scale = 1e-12 * (1.0 + integrand.beta * n2)
        # the norm squares the entries, which overflows above about 1e154
        dj_norm = np.linalg.norm(dj, axis=1)
        big = np.isinf(dj_norm)
        dj_norm[big] = np.hypot.reduce(np.abs(dj[big]), axis=1)
        bound = integrand.gamma * np.sqrt(n2)
        low = j - integrand.alpha * n2 + scale
        up = integrand.beta * n2 - j + scale
        gr = bound - dj_norm + 1e-12 * (1 + bound)
        zero = np.zeros_like(xi)
        z_key = -np.abs(np.asarray(integrand.density(x, zero), dtype=float))

        # midpoint convexity on sample pairs sharing the same x
        xi2 = np.roll(xi, 1, axis=0)
        jmid = np.asarray(integrand.density(x, 0.5 * (xi + xi2)), dtype=float)
        j2 = np.asarray(integrand.density(x, xi2), dtype=float)
        gap = 0.5 * (j + j2) - jmid + 1e-12 * (1.0 + j + j2)
        # (kind, selection key, margin, x, ξ), the last four one row a sample
        checks = [("lower", low, low, x, xi), ("upper", up, up, x, xi),
                  ("gradient", gr, gr, x, xi),
                  ("zero", z_key, 1e-15 + z_key, x, zero),
                  ("midpoint", gap, gap, x, xi)]

        # supplied gradient vs directional central differences (moderate |ξ|
        # only; extreme magnitudes lose FD accuracy, not correctness)
        keep = (mag[:, 0] > 1e-1) & (mag[:, 0] < 1e2)
        if np.any(keep):
            xk, xik = x[keep], xi[keep]
            e = rng.normal(size=xik.shape)
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            h = (1e-6 * (1.0 + np.linalg.norm(xik, axis=1)))[:, None]
            jp = np.asarray(integrand.density(xk, xik + h * e), dtype=float)
            jm = np.asarray(integrand.density(xk, xik - h * e), dtype=float)
            fd = (jp - jm) / (2.0 * h[:, 0])
            an = np.sum(np.asarray(integrand.grad(xk, xik), dtype=float) * e, axis=1)
            fd_key = -(np.abs(fd - an) / (1.0 + np.abs(an)))
            checks.append(("fd", fd_key, 1e-5 + fd_key, xk, xik))

        for kind, key, margin, xs, xis in checks:
            finite = np.isfinite(margin)
            worst = int(np.argmin(np.where(finite, key, -math.inf)))
            value = float(margin[worst]) if finite[worst] else -math.inf
            margins[kind] = min(margins[kind], value)
            if value < 0 and len(violations) < 12:
                violations.append({"kind": kind, "x": xs[worst].tolist(),
                                   "xi": xis[worst].tolist(), "margin": value})

    passed = all(m >= 0 for m in margins.values())
    return CertificationReport(label=integrand.label, passed=passed,
                               samples=CERTIFY_SAMPLES, seed=seed,
                               margins=margins, violations=tuple(violations))
