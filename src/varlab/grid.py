"""P1 simplicial grids with zero-trace fields, quadrature, truncation and integrals.

Two mesh families: uniform segments on an interval and structured right
triangles on an axis-aligned rectangle (each cell split along its lower-left to
upper-right diagonal). Fields are piecewise-linear nodal vectors whose boundary
entries are pinned to zero, so the zero-trace constraint is structural rather
than penalized.

Quadrature uses equal weights per element: the 2-point Gauss rule on segments
(exact to degree 3) and the 3-point edge-midpoint rule on triangles (exact to
degree 2). Nonlinear compositions (absolute values, amplitude denominators)
are evaluated at the quadrature points of the interpolated field, so
composition order matches the continuous expressions.

The kernels read contiguous (E,) columns: basis gradients are stored
component-major and element gradients are (dim, E) arrays seen as (E, dim).
No layout changes the order of an operation, so each kernel keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

#: bytes of the largest (samples, E, Q) temporary in damped_integrals;
#: larger blocks were no faster and raised the peak memory of a sweep
CHAIN_BLOCK_BYTES = 128 << 10


def _frozen(a: Array) -> Array:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


#: barycentric quadrature points, (Q, d+1); each carries the weight 1/Q
_GAUSS = 1.0 / (2.0 * math.sqrt(3.0))
_INTERVAL_POINTS = _frozen(np.array([[0.5 + _GAUSS, 0.5 - _GAUSS],
                                     [0.5 - _GAUSS, 0.5 + _GAUSS]]))
_TRIANGLE_POINTS = _frozen(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                     [0.5, 0.0, 0.5]]))


@dataclass(frozen=True)
class Grid:
    """Immutable simplicial mesh with cached geometry and quadrature data.

    Attributes
    ----------
    dimension : 1 or 2
    nodes : (P, dim) coordinates
    elements : (E, dim+1) node indices, positively oriented
    boundary_mask : (P,) True exactly at topological-boundary nodes
    quad_points : (Q, dim+1) barycentric quadrature points, weight 1/Q each
    element_measures : (E,) lengths / areas
    basis_gradients : (E, dim+1, dim), gradient of each nodal hat per element,
        a view of the C-contiguous (dim, dim+1, E) `basis_gradients.T`
    quad_coords : (E, Q, dim) physical quadrature points
    quad_weights : (E, Q) measure-scaled weights (rows sum to element measure)
    """

    dimension: int
    nodes: Array
    elements: Array
    boundary_mask: Array
    quad_points: Array
    element_measures: Array
    basis_gradients: Array
    quad_coords: Array
    quad_weights: Array

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def measure(self) -> float:
        return float(self.element_measures.sum())


# the check below rejects the overflow of a cell too small or too large
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _finish_grid(dimension: int, nodes: Array, elements: Array,
                 boundary: Array, points: Array) -> Grid:
    nodes = np.asarray(nodes, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    if dimension == 1:
        edge = nodes[elements[:, 1], 0] - nodes[elements[:, 0], 0]
        measures = edge
        grads = np.stack([-1.0 / edge, 1.0 / edge])[None]
    else:
        p0 = nodes[elements[:, 0]]
        t = np.stack([nodes[elements[:, 1]] - p0, nodes[elements[:, 2]] - p0], axis=2)
        det = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
        measures = 0.5 * det
        grads = np.empty((2, 3, elements.shape[0]))
        # the rows of T^{-1} are grad(lambda_1), grad(lambda_2)
        grads[0, 1] = t[:, 1, 1] / det
        grads[1, 1] = -t[:, 0, 1] / det
        grads[0, 2] = -t[:, 1, 0] / det
        grads[1, 2] = t[:, 0, 0] / det
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
    # a positive measure also means a positively oriented element
    if not (np.all((0 < measures) & (measures < math.inf)) and np.isfinite(grads).all()):
        raise ValueError("cells too small or too large for double precision: element "
                         "measures must be finite and positive, gradients finite")
    # physical quadrature points: sum_l bary_l * node_l
    corner = nodes[elements]                    # (E, d+1, dim)
    qc = np.einsum("ql,eld->eqd", points, corner)
    qw = measures[:, None] * np.full(points.shape[0], 1.0 / points.shape[0])
    return Grid(
        dimension=dimension,
        nodes=_frozen(nodes),
        elements=_frozen(elements),
        boundary_mask=_frozen(np.asarray(boundary, dtype=bool)),
        quad_points=points,
        element_measures=_frozen(measures),
        basis_gradients=_frozen(grads).T,
        quad_coords=_frozen(qc),
        quad_weights=_frozen(qw),
    )


def build_interval_grid(a: float, b: float, cells: int) -> Grid:
    """Uniform segment mesh on (a, b) with `cells` elements."""
    if not (b > a):
        raise ValueError(f"interval requires b > a, got ({a}, {b})")
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    x = np.linspace(a, b, cells + 1)
    nodes = x[:, None]
    elements = np.stack([np.arange(cells), np.arange(1, cells + 1)], axis=1)
    boundary = np.zeros(cells + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return _finish_grid(1, nodes, elements, boundary, _INTERVAL_POINTS)


def build_rect_grid(x_cells: int, y_cells: int, lx: float, ly: float) -> Grid:
    """Structured triangulation of (0, lx) x (0, ly).

    Every rectangular cell is split along its lower-left to upper-right
    diagonal into two positively oriented right triangles.
    """
    if x_cells < 1 or y_cells < 1:
        raise ValueError(f"cell counts must be >= 1, got ({x_cells}, {y_cells})")
    if lx <= 0 or ly <= 0:
        raise ValueError(f"side lengths must be positive, got ({lx}, {ly})")
    xs = np.linspace(0.0, lx, x_cells + 1)
    ys = np.linspace(0.0, ly, y_cells + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    # cell (i, j), in row-major order, has corners a = (i, j), b = (i+1, j),
    # c = (i+1, j+1), d = (i, j+1) and the triangles (a, b, c), (a, c, d)
    a = (np.arange(x_cells, dtype=np.int64)[:, None] * (y_cells + 1)
         + np.arange(y_cells, dtype=np.int64)[None, :]).ravel()
    b = a + (y_cells + 1)
    c, d = b + 1, a + 1
    elements = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    ii = np.arange(x_cells + 1)[:, None]
    jj = np.arange(y_cells + 1)[None, :]
    boundary = ((ii == 0) | (ii == x_cells) | (jj == 0) | (jj == y_cells)).ravel()
    return _finish_grid(2, nodes, elements, boundary, _TRIANGLE_POINTS)


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values of a continuous piecewise-linear function.

    `zero_field` and `field_from_values` (the audits' random fields among
    its callers) pin boundary entries to exact zero. `truncate`, `tail`
    and the solver's updates keep zero boundary entries at zero, so
    pipeline fields are always admissible (zero trace). Direct
    construction skips the pinning on purpose: analytic probes such as
    ramps with nonzero boundary values are legitimate inputs for the norm
    and inequality audits.
    """

    grid: Grid
    values: Array

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field has {v.shape} values for {self.grid.n_nodes} nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def zero_trace(self) -> bool:
        return bool(np.all(self.values[self.grid.boundary_mask] == 0.0))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def zero_field(grid: Grid) -> DiscreteField:
    return DiscreteField(grid, np.zeros(grid.n_nodes))


def field_from_values(grid: Grid, values: Array) -> DiscreteField:
    """Wrap nodal values, forcing boundary entries to exact zero."""
    v = np.array(values, dtype=float)
    v[grid.boundary_mask] = 0.0
    return DiscreteField(grid, v)


def truncate(v: DiscreteField, k: float) -> DiscreteField:
    """Nodal two-sided clamp at level k >= 0 (keeps the P1 space)."""
    if k < 0:
        raise ValueError(f"truncation level must be >= 0, got {k}")
    return DiscreteField(v.grid, np.clip(v.values, -k, k))


def tail(v: DiscreteField, k: float) -> DiscreteField:
    """Nodal remainder beyond level k: v - truncate(v, k)."""
    if k < 0:
        raise ValueError(f"tail level must be >= 0, got {k}")
    return DiscreteField(v.grid, v.values - np.clip(v.values, -k, k))


def element_gradients(v: DiscreteField) -> Array:
    """Constant gradient per element, shape (E, dim), the transpose of a
    (dim, E) array: each component summed from zero over the local nodes,
    bit for bit the einsum "el,eld->ed"."""
    g = v.grid
    local = v.values[g.elements.T]                            # (L, E)
    grads = g.basis_gradients.T                               # (d, L, E)
    out = np.zeros((g.dimension, g.n_elements))
    for d, row in enumerate(out):
        for l, column in enumerate(local):
            row += column * grads[d, l]
    return out.T


def values_at_quadrature(v: DiscreteField) -> Array:
    """Interpolated field values at all quadrature points, shape (E, Q)."""
    g = v.grid
    return v.values[g.elements] @ g.quad_points.T


def sample_at_quadrature(grid: Grid, fn: Callable[[Array], Array]) -> Array:
    """`fn` of the (E·Q, dim) physical quadrature points, as (E, Q), or as
    (E, Q, k) for a function with k components per point."""
    out = np.asarray(fn(grid.quad_coords.reshape(-1, grid.dimension)),
                     dtype=float)
    return out.reshape(grid.quad_weights.shape + out.shape[1:])


def norm(v: DiscreteField, which: str) -> float:
    """Quadrature evaluation of the L² norm or the H¹ seminorm of the interpolant.

    which: "L2" | "H1_semi"
    The seminorm is exact (elementwise-constant gradients); L2 uses the
    element quadrature on the squared interpolant.
    """
    g = v.grid
    if which == "L2":
        vq = values_at_quadrature(v)
        return math.sqrt(float(np.sum(g.quad_weights * vq ** 2)))
    if which == "H1_semi":
        mag = np.linalg.norm(element_gradients(v), axis=1)
        return math.sqrt(float(np.sum(g.element_measures * mag ** 2)))
    raise ValueError(f"unknown norm {which!r}; expected 'L2' or 'H1_semi'")


def damped_integrals(grid: Grid, values: Array, b_q: Array) -> tuple:
    """The three integrals of the two-factor split of ∫|∇v|, for a stack.

    ∫|∇v| ≤ (∫|∇v|²/(1+b|v|)²)^½ · (∫(1+b|v|)²)^½. `values` stacks S nodal
    vectors as an (S, P) array and `b_q` is the (E, Q) array of coefficient
    samples at the grid's quadrature points; |v| at each quadrature point
    is the absolute value of the interpolated value. Returns three (S,)
    arrays: ∫|∇v|, ∫|∇v|²/(1+b|v|)² and ∫(1+b|v|)². Each sample's
    quadrature sum is one contiguous row reduction, so it equals the
    single-field sum bit for bit. The stack is worked through in blocks
    whose (B, E, Q) temporaries stay within CHAIN_BLOCK_BYTES.
    """
    w = grid.quad_weights                                     # (E, Q)
    b_q = np.asarray(b_q, dtype=float)
    if b_q.shape != w.shape:
        raise ValueError(
            f"coefficient samples {b_q.shape} do not match quadrature layout "
            f"{w.shape}")
    values = np.asarray(values, dtype=float)
    rows = max(1, CHAIN_BLOCK_BYTES // w.nbytes)
    w11, damped, amplitude = (np.empty(values.shape[0]) for _ in range(3))

    def row_sums(a):
        return a.reshape(a.shape[0], -1).sum(axis=1)

    for lo in range(0, values.shape[0], rows):
        local = values[lo:lo + rows, grid.elements]           # (B, E, L)
        grads = np.linalg.norm(np.einsum(
            "sel,eld->sed", local, grid.basis_gradients), axis=2)[..., None]
        amp = 1.0 + b_q * np.abs(local @ grid.quad_points.T)   # (B, E, Q)
        w11[lo:lo + rows] = row_sums(w * grads)
        damped[lo:lo + rows] = row_sums(w * (grads / amp) ** 2)
        amplitude[lo:lo + rows] = row_sums(w * amp ** 2)
    return w11, damped, amplitude
