"""Built-in integrands, damping coefficients, and source data.

Everything is looked up through string registries so the CLI layer can
validate config keys before touching numerics. A factory's keyword-only
arguments are the parameters a config may give it, with their defaults;
the make_* functions reject any other name, and each factory checks the
range of its own values. Coefficient and datum factories are domain-aware:
spatial shapes are expressed in coordinates normalized to the grid's
bounding box, so the same kind works on (0,1), (0,2) or a rectangle
without re-tuning parameters.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, Optional

import numpy as np

from .functional import CoefficientField, Datum, Integrand, make_datum
from .grid import Grid, sample_at_quadrature


def parameters(factory: Callable) -> tuple:
    """The parameter names of a registry factory: its keyword-only arguments."""
    return tuple(name for name, p in inspect.signature(factory).parameters.items()
                 if p.kind is p.KEYWORD_ONLY)


def _build(registry: dict, what: str, kind: str, params: Optional[dict], *args):
    if kind not in registry:
        raise ValueError(f"unknown {what} kind {kind!r}; "
                         f"choose from {sorted(registry)}")
    factory = registry[kind]
    known = parameters(factory)
    params = params or {}
    for name in params:
        if name not in known:
            raise ValueError(f"{kind} {what} takes no parameter {name!r}; "
                             f"known: {list(known)}")
    return factory(*args, **{k: float(v) for k, v in params.items()})


# --------------------------------------------------------------- integrands


def _quadratic(*, scale=1.0) -> Integrand:
    if scale <= 0:
        raise ValueError(f"quadratic integrand needs scale > 0, got {scale}")

    def density(x, xi):
        return scale * np.sum(xi * xi, axis=-1)

    def grad(x, xi):
        return 2.0 * scale * xi

    return Integrand(label=f"quadratic(scale={scale:g})", alpha=scale,
                     beta=scale, gamma=2.0 * scale, density=density, grad=grad)


def _anisotropic(*, contrast=0.5) -> Integrand:
    # j = |ξ|² + c·s(x)·(ξ·e₁)² with s(x) = ½(1 + sin(2π x₁)) ∈ [0, 1]
    if contrast <= 0:
        raise ValueError(f"anisotropic integrand needs contrast > 0, got {contrast}")

    def modulation(x):
        return 0.5 * (1.0 + np.sin(2.0 * math.pi * x[..., 0]))

    def density(x, xi):
        return np.sum(xi * xi, axis=-1) + contrast * modulation(x) * xi[..., 0] ** 2

    def grad(x, xi):
        shape = np.broadcast_shapes(x.shape, xi.shape)
        out = np.broadcast_to(2.0 * xi, shape).copy()
        out[..., 0] += 2.0 * contrast * modulation(x) * xi[..., 0]
        return out

    return Integrand(label=f"anisotropic(contrast={contrast:g})", alpha=1.0,
                     beta=1.0 + contrast, gamma=2.0 * (1.0 + contrast),
                     density=density, grad=grad)


def _logaug() -> Integrand:
    # j = |ξ|² + ½ log(1+|ξ|²): strictly convex, between |ξ|² and 1.5|ξ|²
    def density(x, xi):
        n2 = np.sum(xi * xi, axis=-1)
        return n2 + 0.5 * np.log1p(n2)

    def grad(x, xi):
        n2 = np.sum(xi * xi, axis=-1)
        return xi * (2.0 + 1.0 / (1.0 + n2))[..., None]

    return Integrand(label="logaug", alpha=1.0, beta=1.5, gamma=3.0,
                     density=density, grad=grad)


INTEGRANDS: dict = {
    "quadratic": _quadratic,
    "anisotropic": _anisotropic,
    "logaug": _logaug,
}


def make_integrand(kind: str, params: Optional[dict] = None) -> Integrand:
    return _build(INTEGRANDS, "integrand", kind, params)


# ------------------------------------------------------------- coefficients


def _unit_box(grid: Grid):
    lo = grid.nodes.min(axis=0)
    hi = grid.nodes.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return lambda x: (x - lo) / span


def _const_coeff(grid: Grid, *, value=1.0) -> CoefficientField:
    if value < 0:
        raise ValueError(f"constant coefficient must be >= 0, got {value}")
    q = np.full(grid.quad_weights.shape, value)
    return CoefficientField(label=f"constant({value:g})", grid=grid,
                            quad_values=q, lower_bound=value, upper_bound=value)


def _zero_coeff(grid: Grid) -> CoefficientField:
    q = np.zeros(grid.quad_weights.shape)
    return CoefficientField(label="zero", grid=grid, quad_values=q,
                            lower_bound=0.0, upper_bound=0.0)


def _step_coeff(grid: Grid, *, height=1.0) -> CoefficientField:
    if height <= 0:
        raise ValueError(f"step coefficient needs height > 0, got {height}")
    unit = _unit_box(grid)
    q = sample_at_quadrature(grid, lambda x: height * (unit(x)[:, 0] >= 0.5))
    return CoefficientField(label=f"step(height={height:g})", grid=grid,
                            quad_values=q, lower_bound=0.0, upper_bound=height)


def _bump_coeff(grid: Grid, *, height=1.0) -> CoefficientField:
    if height <= 0:
        raise ValueError(f"smooth-bump coefficient needs height > 0, got {height}")
    unit = _unit_box(grid)

    def fn(x):
        u = unit(x)
        out = np.full(u.shape[0], height)
        for axis in range(u.shape[1]):
            out = out * np.sin(math.pi * u[:, axis]) ** 2
        return out

    q = sample_at_quadrature(grid, fn)
    return CoefficientField(label=f"smooth-bump(height={height:g})", grid=grid,
                            quad_values=q, lower_bound=0.0, upper_bound=height)


COEFFICIENTS: dict = {
    "constant": _const_coeff,
    "zero": _zero_coeff,
    "step": _step_coeff,
    "smooth-bump": _bump_coeff,
}


def make_coefficient(grid: Grid, kind: str,
                     params: Optional[dict] = None) -> CoefficientField:
    return _build(COEFFICIENTS, "coefficient", kind, params, grid)


# --------------------------------------------------------------------- data


def _const_datum(grid: Grid, *, value=1.0) -> Datum:
    return make_datum(grid, lambda x: np.full(x.shape[0], value),
                      linf_bound=abs(value))


def _sine_datum(grid: Grid, *, amplitude=1.0) -> Datum:
    unit = _unit_box(grid)

    def fn(x):
        u = unit(x)
        out = np.full(u.shape[0], amplitude)
        for axis in range(u.shape[1]):
            out = out * np.sin(math.pi * u[:, axis])
        return out

    return make_datum(grid, fn, linf_bound=abs(amplitude))


def _power_datum(grid: Grid, *, exponent=0.4) -> Datum:
    # distance to the lower-left corner, raised to -exponent: unbounded but
    # square-integrable as long as 2·exponent < dimension
    if not (0 < exponent < grid.dimension / 2.0):
        raise ValueError(
            f"power-singularity exponent must lie in (0, {grid.dimension / 2.0:g}) "
            f"to stay square-integrable, got {exponent}")
    corner = grid.nodes.min(axis=0)

    def fn(x):
        r = np.linalg.norm(x - corner, axis=1)
        return np.where(r > 0, r, np.finfo(float).tiny) ** (-exponent)

    return make_datum(grid, fn, linf_bound=None)


def _step_datum(grid: Grid, *, high=2.0, low=-1.0) -> Datum:
    unit = _unit_box(grid)

    def fn(x):
        return np.where(unit(x)[:, 0] < 0.5, high, low)

    return make_datum(grid, fn, linf_bound=max(abs(high), abs(low)))


DATA: dict = {
    "constant": _const_datum,
    "sine": _sine_datum,
    "power-singularity": _power_datum,
    "step": _step_datum,
}


def make_library_datum(grid: Grid, kind: str,
                       params: Optional[dict] = None) -> Datum:
    return _build(DATA, "datum", kind, params, grid)
