"""Mesh, field, truncation, quadrature and norm checks.

Expected values are frozen from closed forms computed independently of the
implementation: int_0^1 sin^2(pi x) = 1/2, int_0^1 (pi cos pi x)^2 = pi^2/2,
int_0^1 (1+x)^-2 = 1/2, and hand-expanded affine integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varlab.grid import (
    DiscreteField,
    build_interval_grid,
    build_rect_grid,
    damped_integrals,
    element_gradients,
    field_from_values,
    norm,
    tail,
    truncate,
    values_at_quadrature,
    zero_field,
)


def w11(v):
    """∫|∇v| from the damped-integral kernel, read with b = 0."""
    zeros = np.zeros_like(v.grid.quad_weights)
    return damped_integrals(v.grid, v.values[None], zeros)[0][0]


def damped_energy(v, b_q):
    """∫|∇v|²/(1+b|v|)² from the damped-integral kernel."""
    return damped_integrals(v.grid, v.values[None], b_q)[1][0]


# ---------------------------------------------------------------- builders


def test_interval_grid_basic():
    g = build_interval_grid(0.0, 1.0, 4)
    assert g.n_nodes == 5
    assert g.n_elements == 4
    assert g.dimension == 1
    np.testing.assert_allclose(g.nodes[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(g.boundary_mask, [True, False, False, False, True])
    assert g.measure == pytest.approx(1.0, abs=1e-15)


def test_interval_grid_smallest():
    g = build_interval_grid(0.0, 1.0, 1)
    assert g.n_elements == 1
    assert np.count_nonzero(~g.boundary_mask) == 0


@pytest.mark.parametrize("a,b,cells", [(0.0, 1.0, 0), (1.0, 1.0, 4), (2.0, 1.0, 4)])
def test_interval_grid_rejects(a, b, cells):
    with pytest.raises(ValueError):
        build_interval_grid(a, b, cells)


def test_rect_grid_counts():
    g = build_rect_grid(1, 1, 1.0, 1.0)
    assert g.n_nodes == 4
    assert g.n_elements == 2
    assert np.count_nonzero(~g.boundary_mask) == 0

    g = build_rect_grid(2, 2, 1.0, 1.0)
    assert g.n_nodes == 9
    assert g.n_elements == 8
    assert np.count_nonzero(~g.boundary_mask) == 1
    assert g.measure == pytest.approx(1.0, abs=1e-15)


def test_rect_grid_boundary_mask_is_topological():
    g = build_rect_grid(3, 2, 2.0, 1.0)
    on_edge = (
        np.isclose(g.nodes[:, 0], 0.0) | np.isclose(g.nodes[:, 0], 2.0)
        | np.isclose(g.nodes[:, 1], 0.0) | np.isclose(g.nodes[:, 1], 1.0)
    )
    np.testing.assert_array_equal(g.boundary_mask, on_edge)


def _rect_elements_by_loop(x_cells, y_cells):
    """The triangle list cell by cell: (a, b, c), (a, c, d) per cell."""
    def nid(i, j):
        return i * (y_cells + 1) + j

    tris = []
    for i in range(x_cells):
        for j in range(y_cells):
            a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("x_cells,y_cells", [(1, 1), (3, 5), (7, 2)])
def test_rect_grid_elements_match_the_cell_loop(x_cells, y_cells):
    got = build_rect_grid(x_cells, y_cells, 1.0, 1.0).elements
    want = _rect_elements_by_loop(x_cells, y_cells)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("args", [(0, 2, 1.0, 1.0), (2, 2, -1.0, 1.0), (2, 2, 1.0, 0.0)])
def test_rect_grid_rejects(args):
    with pytest.raises(ValueError):
        build_rect_grid(*args)


def test_quadrature_rule_contract():
    for g in (build_interval_grid(0, 1, 3), build_rect_grid(2, 2, 1, 1)):
        bary = g.quad_points
        assert bary.shape == (g.quad_weights.shape[1], g.dimension + 1)
        assert np.all(bary >= 0)
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.all(g.quad_weights > 0)
        np.testing.assert_allclose(g.quad_weights.sum(axis=1), g.element_measures)


def test_quadrature_degree2_exact_on_coordinates():
    # int_0^1 x^2 dx = 1/3 on segments; int over unit square of x^2 and x*y.
    g1 = build_interval_grid(0.0, 1.0, 1)
    x = g1.quad_coords[..., 0]
    assert np.sum(g1.quad_weights * x**2) == pytest.approx(1 / 3, rel=1e-15)

    g2 = build_rect_grid(1, 1, 1.0, 1.0)
    x, y = g2.quad_coords[..., 0], g2.quad_coords[..., 1]
    assert np.sum(g2.quad_weights * x**2) == pytest.approx(1 / 3, rel=1e-14)
    assert np.sum(g2.quad_weights * x * y) == pytest.approx(1 / 4, rel=1e-14)


# ---------------------------------------------------------------- fields


def test_interpolate_pins_boundary():
    g = build_interval_grid(0.0, 1.0, 4)
    v = field_from_values(g, g.nodes[:, 0])
    np.testing.assert_allclose(v.values, [0.0, 0.25, 0.5, 0.75, 0.0])
    assert v.zero_trace


def test_interpolate_zero():
    g = build_rect_grid(2, 2, 1.0, 1.0)
    v = field_from_values(g, np.zeros(g.n_nodes))
    assert v.linf() == 0.0


def test_field_shape_rejected():
    g = build_interval_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        DiscreteField(g, np.zeros(7))
    with pytest.raises(ValueError):
        DiscreteField(g, np.array([0.0, 1.0, np.nan, 1.0, 0.0]))


def test_field_from_values_pins():
    g = build_interval_grid(0.0, 1.0, 2)
    v = field_from_values(g, [5.0, 2.0, -3.0])
    np.testing.assert_allclose(v.values, [0.0, 2.0, 0.0])


def test_interpolated_sine_l2_matches_half():
    g = build_interval_grid(0.0, 1.0, 64)
    v = field_from_values(g, np.sin(np.pi * g.nodes[:, 0]))
    assert norm(v, "L2") == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)


# ------------------------------------------------------- truncation algebra


def test_truncate_tail_examples():
    g = build_interval_grid(0.0, 1.0, 4)
    v = field_from_values(g, [0.0, -3.0, 0.5, 2.0, 0.0])
    t = truncate(v, 1.0)
    r = tail(v, 1.0)
    np.testing.assert_allclose(t.values, [0.0, -1.0, 0.5, 1.0, 0.0])
    np.testing.assert_allclose(r.values, [0.0, -2.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(t.values + r.values, v.values)
    with pytest.raises(ValueError):
        truncate(v, -1.0)
    with pytest.raises(ValueError, match="tail level"):
        tail(v, -1.0)


interval_fields = arrays(
    dtype=float,
    shape=9,
    elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


@given(vals=interval_fields, k=st.floats(0.0, 60.0))
@example(vals=np.array([0.0, -49.29081713968338] + [0.0] * 7),
         k=13.465778193695218)           # t + r misses v by one ulp
@settings(max_examples=200, deadline=None)
def test_truncation_algebra(vals, k):
    g = build_interval_grid(0.0, 1.0, 8)
    v = field_from_values(g, vals)
    t, r = truncate(v, k), tail(v, k)
    # the tail is one rounded subtraction, so t + r rebuilds v to one ulp
    np.testing.assert_array_equal(t.values, np.clip(v.values, -k, k))
    np.testing.assert_array_equal(r.values, v.values - t.values)
    np.testing.assert_array_max_ulp(t.values + r.values, v.values, maxulp=1)
    assert t.linf() <= k * (1 + 1e-15)
    inside = np.abs(v.values) <= k
    assert np.all(r.values[inside] == 0.0)


@given(vals=interval_fields, k=st.floats(0.0, 60.0))
@settings(max_examples=200, deadline=None)
def test_quadratic_truncation_identity(vals, k):
    # s^2 - T_k(s)^2 >= G_k(s)^2 pointwise: at nodes, and at quadrature points
    # of the interpolated field (clamp composed after interpolation).
    g = build_interval_grid(0.0, 1.0, 8)
    v = field_from_values(g, vals)
    for s in (v.values, values_at_quadrature(v)):
        ts = np.clip(s, -k, k)
        gs = s - ts
        assert np.all(s**2 - ts**2 >= gs**2 - 1e-9 * (1.0 + s**2))


@given(vals=interval_fields, k=st.floats(0.0, 40.0))
@settings(max_examples=200, deadline=None)
def test_norm_monotone_under_truncation_1d(vals, k):
    g = build_interval_grid(0.0, 1.0, 8)
    v = field_from_values(g, vals)
    t = truncate(v, k)
    assert w11(t) <= w11(v) * (1 + 1e-12) + 1e-12
    assert norm(t, "H1_semi") <= norm(v, "H1_semi") * (1 + 1e-12) + 1e-12


@given(
    vals=arrays(dtype=float, shape=16,
                elements=st.floats(-20.0, 20.0, allow_nan=False)),
    k=st.floats(0.0, 25.0),
)
@settings(max_examples=100, deadline=None)
def test_norm_monotone_under_truncation_2d(vals, k):
    g = build_rect_grid(3, 3, 1.0, 1.0)
    v = field_from_values(g, vals)
    t = truncate(v, k)
    assert w11(t) <= w11(v) * (1 + 1e-12) + 1e-12
    assert norm(t, "H1_semi") <= norm(v, "H1_semi") * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------- gradients


def test_gradient_of_ramp_is_one():
    g = build_interval_grid(0.0, 1.0, 5)
    ramp = DiscreteField(g, g.nodes[:, 0].copy())  # analytic probe, not zero-trace
    for e in range(g.n_elements):
        np.testing.assert_allclose(element_gradients(ramp)[e], [1.0], atol=1e-14)


def test_gradient_of_zero_field():
    g = build_rect_grid(2, 2, 1.0, 1.0)
    np.testing.assert_allclose(element_gradients(zero_field(g)), 0.0)


def test_triangle_gradients_match_affine_solve():
    # Independent oracle: fit the plane a*x + b*y + c through the three
    # vertices of each triangle and compare slopes.
    g = build_rect_grid(2, 2, 1.0, 1.0)
    v = DiscreteField(g, g.nodes[:, 0] * g.nodes[:, 1])
    grads = element_gradients(v)
    for e in range(g.n_elements):
        pts = g.nodes[g.elements[e]]
        A = np.column_stack([pts, np.ones(3)])
        coef = np.linalg.solve(A, v.values[g.elements[e]])
        np.testing.assert_allclose(grads[e], coef[:2], atol=1e-13)


@pytest.mark.parametrize("grid", [build_interval_grid(0.0, 1.0, 37),
                                  build_rect_grid(7, 5, 1.0, 2.0)],
                         ids=["1d", "2d"])
def test_element_gradients_are_bitwise_the_einsum_formula(grid):
    rng = np.random.default_rng(11)
    P = grid.n_nodes
    fields = [
        rng.standard_normal(P),
        rng.choice([0.0, -0.0], P),                       # signed zeros only
        np.where(rng.random(P) < 0.5, -0.0, rng.standard_normal(P)),
        rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324], P),
        rng.standard_normal(P) * 10.0 ** rng.integers(-300, 300, P),
    ]
    for values in fields:
        want = np.einsum("el,eld->ed", values[grid.elements],
                         grid.basis_gradients)
        got = element_gradients(DiscreteField(grid, values))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- norms


def test_norms_of_zero_field():
    g = build_interval_grid(0.0, 1.0, 6)
    z = zero_field(g)
    for which in ("L2", "H1_semi"):
        assert norm(z, which) == 0.0


def test_ramp_seminorms_are_one():
    g = build_interval_grid(0.0, 1.0, 7)
    ramp = DiscreteField(g, g.nodes[:, 0].copy())
    assert w11(ramp) == pytest.approx(1.0, rel=1e-14)
    assert norm(ramp, "H1_semi") == pytest.approx(1.0, rel=1e-14)


def test_unknown_norm_rejected():
    g = build_interval_grid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        norm(zero_field(g), "L3")


def test_sine_h1_seminorm_squared():
    g = build_interval_grid(0.0, 1.0, 128)
    v = field_from_values(g, np.sin(np.pi * g.nodes[:, 0]))
    assert norm(v, "H1_semi") ** 2 == pytest.approx(np.pi**2 / 2, abs=1e-3)


def test_affine_l2_quadrature_exact_1d():
    # int_0^1 x^2 dx = 1/3 exactly for the ramp interpolant.
    g = build_interval_grid(0.0, 1.0, 4)
    ramp = DiscreteField(g, g.nodes[:, 0].copy())
    assert norm(ramp, "L2") ** 2 == pytest.approx(1 / 3, rel=1e-12)


def test_affine_l2_quadrature_exact_2d():
    # v = x + 2y - 0.3 on the unit square:
    # int v^2 = 1/3 + 4/3 + 9/100 + 1 - 3/10 - 3/5  (expanded by hand)
    exact = 1 / 3 + 4 / 3 + 9 / 100 + 1 - 3 / 10 - 3 / 5
    g = build_rect_grid(3, 2, 1.0, 1.0)
    v = DiscreteField(g, g.nodes[:, 0] + 2 * g.nodes[:, 1] - 0.3)
    assert norm(v, "L2") ** 2 == pytest.approx(exact, rel=1e-12)


@given(vals=interval_fields)
@settings(max_examples=200, deadline=None)
def test_holder_consistency(vals):
    g = build_interval_grid(0.0, 2.0, 8)
    v = field_from_values(g, vals)
    total_variation = w11(v)
    h1 = norm(v, "H1_semi")
    assert total_variation**2 <= g.measure * h1**2 * (1 + 1e-10) + 1e-30


# ------------------------------------------ damped gradient energy (kernel)


def test_weighted_grad_l2_zero_field():
    g = build_interval_grid(0.0, 1.0, 8)
    ones = np.ones_like(g.quad_weights)
    assert damped_energy(zero_field(g), ones) == 0.0


@given(vals=interval_fields)
@settings(max_examples=100, deadline=None)
def test_weighted_grad_l2_collapses_without_damping(vals):
    g = build_interval_grid(0.0, 1.0, 8)
    v = field_from_values(g, vals)
    zeros = np.zeros_like(g.quad_weights)
    np.testing.assert_allclose(
        damped_energy(v, zeros), norm(v, "H1_semi") ** 2, rtol=1e-12, atol=1e-30)


def test_weighted_grad_l2_ramp_against_closed_form():
    # v = x, b = 1 on (0,1): int 1/(1+x)^2 dx = 1/2.
    g = build_interval_grid(0.0, 1.0, 64)
    ramp = DiscreteField(g, g.nodes[:, 0].copy())
    ones = np.ones_like(g.quad_weights)
    assert damped_energy(ramp, ones) == pytest.approx(0.5, abs=1e-6)


def test_weighted_grad_l2_shape_mismatch():
    g = build_interval_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        damped_energy(zero_field(g), np.ones((2, 2)))
