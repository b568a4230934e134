"""Energy, residual, datum, and certification tests.

Frozen constants were computed by an independent scalar-loop oracle
(closed-form tridiagonal matrices, explicit per-cell Gauss sums) before the
module under test existed; the hand assembly is repeated inline here so both
routes stay visible.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlab.functional import (
    CoefficientField,
    Datum,
    EnergyPieces,
    ProblemSpec,
    certify,
    eval_J,
    energy_pieces,
    eval_JM,
    make_Jn_datum,
    make_datum,
    residual,
)
from varlab.grid import (
    DiscreteField,
    build_interval_grid,
    build_rect_grid,
    field_from_values,
    zero_field,
)
from varlab.library import (
    make_coefficient,
    make_integrand,
    make_library_datum,
)


def _hat_problem(b_kind="zero", f_value=0.0):
    grid = build_interval_grid(0.0, 1.0, 2)
    integrand = make_integrand("quadratic")
    b = make_coefficient(grid, b_kind)
    f = make_datum(grid, lambda x: np.full(x.shape[0], f_value))
    spec = ProblemSpec(grid=grid, integrand=integrand, b=b, f=f,
                       solver_tol=1e-8, max_iter=50_000)
    hat = field_from_values(grid, np.array([0.0, 1.0, 0.0]))
    return spec, hat


# ------------------------------------------------------------- energy values


def test_energy_hat_undamped():
    # grad term 4, mass term (1/2)(1/3), computed by hand
    spec, hat = _hat_problem()
    assert eval_J(spec, hat) == pytest.approx(4 + 0.5 / 3, rel=1e-14)


def test_energy_hat_with_load():
    spec, hat = _hat_problem(f_value=1.0)
    assert eval_J(spec, hat) == pytest.approx(4 + 0.5 / 3 - 0.5, rel=1e-14)


def _damped_term(spec, v, M=math.inf):
    # the damped-gradient integral ∫ j(x,∇v)/(1+b|T_M(v)|)², from the pieces
    pieces = energy_pieces(spec, v, M)
    return float(np.sum(spec.grid.quad_weights * (pieces.j / pieces.den)))


def test_energy_hat_damped_frozen():
    # oracle: per-cell 2-pt Gauss sum of 4/(1+|v|)^2 done with scalar arithmetic
    spec, hat = _hat_problem(b_kind="constant", f_value=1.0)
    assert _damped_term(spec, hat) == pytest.approx(1.9881656804733727, rel=1e-14)
    assert eval_J(spec, hat) == pytest.approx(1.6548323471400392, rel=1e-13)


def test_energy_hat_clamped_frozen():
    spec, hat = _hat_problem(b_kind="constant")
    assert _damped_term(spec, hat, M=0.25) == pytest.approx(
        2.643040408712897, rel=1e-14)


def test_clamp_tightening_raises_energy():
    # smaller clamp level -> smaller denominator -> larger energy
    spec, hat = _hat_problem(b_kind="constant", f_value=1.0)
    levels = [0.1, 0.25, 0.5, 1.0, math.inf]
    energies = [eval_JM(spec, hat, M) for M in levels]
    assert all(a >= b - 1e-14 for a, b in zip(energies, energies[1:]))


def test_clamp_inactive_matches_plain_energy():
    spec, _ = _hat_problem(b_kind="constant", f_value=1.0)
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1, 1, size=3)
    v = field_from_values(spec.grid, vals)
    assert eval_JM(spec, v, M=v.linf() + 1e-9) == eval_J(spec, v)


def test_zero_field_energy_is_zero():
    spec, _ = _hat_problem(b_kind="constant", f_value=1.0)
    assert eval_J(spec, zero_field(spec.grid)) == 0.0


def test_eval_rejects_nonpositive_clamp():
    spec, hat = _hat_problem()
    with pytest.raises(ValueError):
        eval_JM(spec, hat, M=0.0)
    with pytest.raises(ValueError):
        residual(spec, hat, M=-1.0)


# ---------------------------------------------------------- residual oracle


def _tridiagonal_residual(cells, v, f):
    """Scalar-loop oracle: 2K v + M v - F with closed-form 1D P1 matrices."""
    n = cells + 1
    h = 1.0 / cells
    x = np.linspace(0.0, 1.0, n)
    K = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h
    M = (np.diag(np.full(n, 4.0)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) * h / 6
    F = np.zeros(n)
    for e in range(cells):
        a, b = x[e], x[e + 1]
        mid, half = (a + b) / 2, (b - a) / 2
        for s in (-1 / math.sqrt(3), 1 / math.sqrt(3)):
            xq = mid + half * s
            lam = (xq - a) / (b - a)
            F[e] += half * f(xq) * (1 - lam)
            F[e + 1] += half * f(xq) * lam
    r = 2 * K @ v + M @ v - F
    r[0] = r[-1] = 0.0
    return r


def test_residual_matches_tridiagonal_oracle():
    cells = 8
    grid = build_interval_grid(0.0, 1.0, cells)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "zero"),
        f=make_datum(grid, lambda x: np.sin(np.pi * x[:, 0])),
        solver_tol=1e-8, max_iter=50_000)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=cells + 1)
    vals[0] = vals[-1] = 0.0
    v = DiscreteField(grid=grid, values=vals)
    expected = _tridiagonal_residual(cells, vals, lambda x: math.sin(math.pi * x))
    # spot value pinned when the oracle was first run, guards the oracle itself
    assert expected[3] == pytest.approx(-17.041410436933706, rel=1e-13)
    got = residual(spec, v)
    assert got[0] == got[-1] == 0.0
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_residual_at_zero_is_negative_load():
    cells = 8
    grid = build_interval_grid(0.0, 1.0, cells)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "constant"),
        f=make_datum(grid, lambda x: np.sin(np.pi * x[:, 0])),
        solver_tol=1e-8, max_iter=50_000)
    got = residual(spec, zero_field(grid))
    expected = _tridiagonal_residual(cells, np.zeros(cells + 1),
                                     lambda x: math.sin(math.pi * x))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("integrand_kind", ["quadratic", "anisotropic", "logaug"])
@pytest.mark.parametrize("clamp", [0.35, math.inf])
def test_residual_is_fd_gradient(integrand_kind, clamp):
    """Central differences of the discrete energy reproduce the residual."""
    grid = build_rect_grid(4, 3, 1.0, 1.0)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand(integrand_kind),
        b=make_coefficient(grid, "constant"),
        f=make_library_datum(grid, "sine"),
        solver_tol=1e-8, max_iter=50_000)
    rng = np.random.default_rng(11)
    vals = np.where(grid.boundary_mask, 0.0, rng.uniform(-1, 1, grid.n_nodes))
    v = DiscreteField(grid=grid, values=vals)
    from varlab.grid import values_at_quadrature
    gap = np.min(np.abs(np.abs(values_at_quadrature(v)) - clamp))
    assert gap > 1e-3  # keep differences away from the clamp kink

    r = residual(spec, v, M=clamp)
    h = 1e-6
    interior = np.flatnonzero(~grid.boundary_mask)
    for node in interior[::3]:
        bump = np.zeros(grid.n_nodes)
        bump[node] = h
        up = eval_JM(spec, DiscreteField(grid=grid, values=vals + bump), clamp)
        dn = eval_JM(spec, DiscreteField(grid=grid, values=vals - bump), clamp)
        fd = (up - dn) / (2 * h)
        assert fd == pytest.approx(r[node], rel=2e-6, abs=1e-8)


def test_residual_kink_convention_at_origin():
    # d|T_M(s)|/ds = 0 at s = 0: the chain term vanishes where v = 0
    grid = build_interval_grid(0.0, 1.0, 2)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "constant"),
        f=make_datum(grid, lambda x: np.zeros(x.shape[0])),
        solver_tol=1e-8, max_iter=50_000)
    r = residual(spec, zero_field(grid), M=1.0)
    np.testing.assert_allclose(r, 0.0, atol=1e-15)


def _einsum_residual(spec, v, M):
    """The residual as three einsum contractions: the reference the kernel
    must equal bit for bit."""
    from varlab.functional import _clamp_abs_derivative
    from varlab.grid import element_gradients, values_at_quadrature
    g = spec.grid
    grads = element_gradients(v)
    vq = values_at_quadrature(v)
    den = (1.0 + spec.b.quad_values * np.abs(np.clip(vq, -M, M))) ** 2
    xi = np.broadcast_to(grads[:, None, :], g.quad_coords.shape)
    j = spec.integrand.density(g.quad_coords, xi)
    w = g.quad_weights
    bary = g.quad_points
    dj = spec.integrand.grad(g.quad_coords, xi)
    local = np.einsum("eq,eqd,eld->el", w / den, dj, g.basis_gradients)
    den_chain = -2.0 * j / den ** 1.5 * spec.b.quad_values \
        * _clamp_abs_derivative(vq, M)
    local += np.einsum("eq,ql->el", w * den_chain, bary)
    local += np.einsum("eq,ql->el", w * (vq - spec.f.quad_values), bary)
    out = np.zeros(g.n_nodes)
    for l in range(g.elements.shape[1]):
        out += np.bincount(g.elements[:, l], weights=local[:, l],
                           minlength=g.n_nodes)
    out[g.boundary_mask] = 0.0
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("integrand_kind", ["quadratic", "anisotropic", "logaug"])
def test_residual_kernel_is_bitwise_the_einsum_formula(dimension, integrand_kind):
    grid = (build_interval_grid(0.0, 1.0, 40) if dimension == 1
            else build_rect_grid(7, 6, 1.0, 1.0))
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand(integrand_kind),
        b=make_coefficient(grid, "step"),
        f=make_library_datum(grid, "power-singularity"),
        solver_tol=1e-8, max_iter=50_000)
    rng = np.random.default_rng(dimension)
    for _ in range(3):
        vals = rng.uniform(-2.0, 2.0, grid.n_nodes)
        # signed zeros, including whole elements of them
        vals[rng.random(grid.n_nodes) < 0.3] = -0.0
        vals[rng.random(grid.n_nodes) < 0.2] = 0.0
        vals[grid.elements[0]] = -0.0
        v = DiscreteField(grid=grid, values=vals)
        # 0.5 clamps part of the field, inf clamps none of it
        for M in (0.5, math.inf):
            pieces = energy_pieces(spec, v, M)
            want = _bits(_einsum_residual(spec, v, M))
            assert np.array_equal(_bits(residual(spec, v, M)), want)
            assert np.array_equal(_bits(residual(spec, v, M, pieces=pieces)), want)
            assert _bits(eval_JM(spec, v, M, pieces=pieces)) == \
                _bits(eval_JM(spec, v, M))


def _reference_pieces(spec, v, M):
    """energy_pieces as the one-expression formulas: the clamp by np.clip,
    the gradients by the einsum over (E, L, d)."""
    from varlab.grid import values_at_quadrature
    g = spec.grid
    vq = values_at_quadrature(v)
    den = (1.0 + spec.b.quad_values * np.abs(np.clip(vq, -M, M))) ** 2
    xi = np.einsum("el,eld->ed", v.values[g.elements], g.basis_gradients)
    j = np.broadcast_to(spec.integrand.density(g.quad_coords, xi[:, None, :]),
                        vq.shape)
    return vq, den, j, xi


def _reference_JM(spec, v, M):
    vq, den, j, _ = _reference_pieces(spec, v, M)
    integrand = j / den + 0.5 * vq * vq - spec.f.quad_values * vq
    return float(np.sum(spec.grid.quad_weights * integrand))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("integrand_kind", ["quadratic", "anisotropic", "logaug"])
def test_energy_pieces_and_eval_JM_are_bitwise_the_expressions(
        dimension, integrand_kind):
    grid = (build_interval_grid(0.0, 1.0, 1000) if dimension == 1
            else build_rect_grid(19, 23, 1.0, 2.0))
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand(integrand_kind),
        b=make_coefficient(grid, "step", {"height": 3.0}),
        f=make_library_datum(grid, "power-singularity"),
        solver_tol=1e-8, max_iter=50_000)
    rng = np.random.default_rng(20 + dimension)
    for _ in range(3):
        vals = rng.uniform(-3.0, 3.0, grid.n_nodes)
        vals[rng.random(grid.n_nodes) < 0.3] = -0.0
        v = DiscreteField(grid=grid, values=vals)
        # 1.0 clamps part of the field, 3.0 and inf none of it
        for M in (1.0, 3.0, math.inf):
            vq, den, j, xi = energy_pieces(spec, v, M)
            want = _reference_pieces(spec, v, M)
            for got, ref in zip((vq, den, j, xi[:, 0, :]), want):
                assert got.shape == ref.shape
                assert np.array_equal(_bits(got), _bits(ref))
            assert _bits(eval_JM(spec, v, M)) == _bits(_reference_JM(spec, v, M))


def _signed_zero_fields(rng, grid, count, scale):
    """`count` random nodal vectors with -0.0 and +0.0 entries, and whole
    elements of -0.0 in the first."""
    vals = rng.uniform(-scale, scale, (count, grid.n_nodes))
    vals[rng.random(vals.shape) < 0.3] = -0.0
    vals[rng.random(vals.shape) < 0.2] = 0.0
    vals[0, grid.elements[0]] = -0.0
    return vals


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("integrand_kind", ["quadratic", "anisotropic", "logaug"])
def test_stacked_energies_are_bitwise_the_one_field_energies(
        dimension, integrand_kind):
    from varlab.auditor import block_rows
    grid = (build_interval_grid(0.0, 1.0, 40) if dimension == 1
            else build_rect_grid(7, 6, 1.0, 1.0))
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand(integrand_kind),
        b=make_coefficient(grid, "step", {"height": 3.0}),
        f=make_library_datum(grid, "power-singularity"),
        solver_tol=1e-8, max_iter=50_000)
    rows = block_rows(grid)            # minimality's block
    rng = np.random.default_rng(30 + dimension)
    for count in (1, rows, rows + 1):
        stack = _signed_zero_fields(rng, grid, count, 3.0)
        fields = [DiscreteField(grid=grid, values=row) for row in stack]
        # 0.5 clamps part of every field, 3.0 and inf none of it
        for M in (0.5, 3.0, math.inf):
            pieces = energy_pieces(spec, stack, M)
            energies = eval_JM(spec, stack, M)
            assert isinstance(energies, list) and len(energies) == count
            for i in (0, count // 2, count - 1):
                for got, want in zip(pieces, energy_pieces(spec, fields[i], M)):
                    assert np.array_equal(_bits(got[i]), _bits(want))
            want = [eval_JM(spec, v, M) for v in fields]
            assert np.array_equal(_bits(energies), _bits(want))
            assert np.array_equal(_bits(energies), _bits(
                [_reference_JM(spec, v, M) for v in fields]))
        assert np.array_equal(_bits(eval_J(spec, stack)),
                              _bits([eval_J(spec, v) for v in fields]))


@pytest.mark.parametrize("grid", [build_interval_grid(0.0, 1.0, 2),
                                  build_rect_grid(2, 2, 1.0, 1.0)],
                         ids=["1d-2-cells", "2d-2x2"])
@pytest.mark.parametrize("integrand_kind", ["quadratic", "anisotropic", "logaug"])
def test_energy_of_a_few_point_grid_is_bitwise_the_expression(grid,
                                                              integrand_kind):
    """With only a few terms in each quadrature sum, a last-bit change at one
    quadrature point (say j·(1/den) for j/den) reaches the energy of some of
    many random fields."""
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand(integrand_kind),
        b=make_coefficient(grid, "step", {"height": 3.0}),
        f=make_library_datum(grid, "sine"),
        solver_tol=1e-8, max_iter=50_000)
    stack = _signed_zero_fields(np.random.default_rng(7), grid, 400, 3.0)
    for M in (1.0, math.inf):
        want = [_reference_JM(spec, DiscreteField(grid=grid, values=row), M)
                for row in stack]
        assert np.array_equal(_bits(eval_JM(spec, stack, M)), _bits(want))
        assert np.array_equal(_bits(
            [eval_JM(spec, DiscreteField(grid=grid, values=row), M)
             for row in stack]), _bits(want))


def test_clamp_derivative_is_bitwise_the_where_formula():
    from varlab.functional import _clamp_abs_derivative
    rng = np.random.default_rng(5)
    special = [math.nan, -math.nan, 0.0, -0.0, 1.5, -1.5, math.inf, -math.inf,
               np.nextafter(1.5, 2.0), np.nextafter(-1.5, -2.0), 5e-324]
    cases = [np.array(special), np.array(special[2:6]),
             rng.uniform(-1.5, 1.5, (40, 3)), rng.uniform(-3.0, 3.0, (40, 2)),
             np.full((4, 3), -0.0)]
    for s in cases:
        for M in (1.5, 3.0, math.inf):      # |s| = M exactly for M = 1.5
            want = np.where(np.abs(s) <= M, np.sign(s), 0.0)
            assert np.array_equal(_bits(_clamp_abs_derivative(s, M)), _bits(want))


def _pointwise_pieces(spec, v, M):
    """The pieces with ξ broadcast to every quadrature point, (E, Q, d), so
    that j is evaluated once per point: the evaluation that the
    once-per-element one must equal bit for bit."""
    from varlab.grid import element_gradients, values_at_quadrature
    g = spec.grid
    vq = values_at_quadrature(v)
    den = (1.0 + spec.b.quad_values * np.abs(np.clip(vq, -M, M))) ** 2
    xi = np.broadcast_to(element_gradients(v)[:, None, :], g.quad_coords.shape)
    return EnergyPieces(vq, den, spec.integrand.density(g.quad_coords, xi), xi)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("integrand_kind", ["quadratic", "anisotropic", "logaug"])
def test_integrand_once_per_element_is_bitwise_the_pointwise_evaluation(
        dimension, integrand_kind):
    grid = (build_interval_grid(0.0, 1.0, 40) if dimension == 1
            else build_rect_grid(7, 6, 1.0, 1.0))
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand(integrand_kind),
        b=make_coefficient(grid, "constant", {"value": 1.5}),
        f=make_library_datum(grid, "sine"),
        solver_tol=1e-8, max_iter=50_000)
    rng = np.random.default_rng(10 + dimension)
    v = field_from_values(grid, rng.uniform(-2.0, 2.0, grid.n_nodes))
    assert energy_pieces(spec, v, 1.0).xi.shape == (grid.n_elements, 1,
                                                    dimension)
    for M in (0.5, math.inf):
        want = _pointwise_pieces(spec, v, M)
        assert _bits(eval_JM(spec, v, M)) == _bits(
            eval_JM(spec, v, M, pieces=want))
        assert np.array_equal(_bits(residual(spec, v, M)),
                              _bits(residual(spec, v, M, pieces=want)))


# ------------------------------------------------------------------- datums


def test_make_datum_caches_quadrature_mass():
    grid = build_interval_grid(0.0, 1.0, 64)
    f = make_datum(grid, lambda x: np.sin(np.pi * x[:, 0]), linf_bound=1.0)
    assert f.l2_norm_sq == pytest.approx(0.5, abs=1e-6)
    assert f.linf_bound == 1.0


def test_clipped_datum_masses_frozen():
    # f = x^{-0.4} on (0,1), 16 cells: clamp at 1 saturates everywhere
    grid = build_interval_grid(0.0, 1.0, 16)
    f = make_library_datum(grid, "power-singularity", {"exponent": 0.4})
    assert f.linf_bound is None
    masses = {n: make_Jn_datum(f, n).l2_norm_sq for n in (1, 2, 4, 8)}
    assert masses[1] == pytest.approx(1.0, rel=1e-14)
    assert masses[2] == pytest.approx(2.172569545328105, rel=1e-13)
    assert masses[4] == pytest.approx(2.975127863796212, rel=1e-13)
    assert masses[8] == pytest.approx(3.4709586008597246, rel=1e-13)


@given(st.lists(st.floats(0.25, 64.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_clipped_masses_monotone(levels):
    grid = build_interval_grid(0.0, 1.0, 8)
    f = make_library_datum(grid, "power-singularity", {"exponent": 0.4})
    ordered = sorted(levels)
    masses = [make_Jn_datum(f, n).l2_norm_sq for n in ordered]
    assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
    assert all(m <= f.l2_norm_sq + 1e-12 for m in masses)


def test_clipped_datum_linf_bookkeeping():
    grid = build_interval_grid(0.0, 1.0, 8)
    f = make_library_datum(grid, "step", {"high": 2.0, "low": -1.0})
    assert f.linf_bound == 2.0
    assert make_Jn_datum(f, 8).linf_bound == 2.0     # known bound wins
    assert make_Jn_datum(f, 1.5).linf_bound == 1.5   # clamp wins
    with pytest.raises(ValueError):
        make_Jn_datum(f, 0.0)


# ------------------------------------------------- coefficient/spec contracts


def test_coefficient_bound_violation_rejected():
    grid = build_interval_grid(0.0, 1.0, 4)
    good = np.full(grid.quad_weights.shape, 0.5)
    with pytest.raises(ValueError):
        CoefficientField(label="bad", grid=grid, quad_values=good,
                         lower_bound=0.6, upper_bound=1.0)
    with pytest.raises(ValueError):
        CoefficientField(label="bad", grid=grid, quad_values=good,
                         lower_bound=-0.1, upper_bound=1.0)
    with pytest.raises(ValueError):
        CoefficientField(label="bad", grid=grid,
                         quad_values=good[:, :1], lower_bound=0.0,
                         upper_bound=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda grid: replace(make_integrand("quadratic"), alpha=2.0, beta=1.0),
     "need 0 < alpha <= beta"),
    (lambda grid: replace(make_integrand("quadratic"), gamma=0.0),
     "gamma must be positive"),
    (lambda grid: Datum(grid=grid, quad_values=np.ones(grid.quad_weights.size),
                        linf_bound=None),
     "datum samples do not match the quadrature layout"),
    (lambda grid: Datum(grid=grid, linf_bound=None, quad_values=np.full(
        grid.quad_weights.shape, math.inf)),
     "datum must be square-integrable"),
], ids=["integrand-alpha-above-beta", "integrand-gamma-zero", "datum-layout",
        "datum-infinite"])
def test_integrand_and_datum_contracts_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build(build_interval_grid(0.0, 1.0, 4))


def test_zero_coefficient_is_allowed():
    grid = build_interval_grid(0.0, 1.0, 4)
    b = make_coefficient(grid, "zero")
    assert b.lower_bound == b.upper_bound == 0.0


def test_library_coefficients_respect_declared_bounds():
    grid = build_rect_grid(5, 4, 1.0, 1.0)
    for kind, params in (("constant", {"value": 2.0}), ("step", {}),
                         ("smooth-bump", {"height": 3.0}), ("zero", {})):
        b = make_coefficient(grid, kind, params)
        assert np.all(b.quad_values >= b.lower_bound - 1e-12)
        assert np.all(b.quad_values <= b.upper_bound + 1e-12)


def test_problem_spec_validation():
    grid = build_interval_grid(0.0, 1.0, 4)
    integrand = make_integrand("quadratic")
    b = make_coefficient(grid, "constant")
    f = make_library_datum(grid, "constant")
    with pytest.raises(ValueError):
        ProblemSpec(grid=grid, integrand=integrand, b=b, f=f,
                    n_schedule=(1.0, 1.0),
                    solver_tol=1e-8, max_iter=50_000)
    with pytest.raises(ValueError):
        ProblemSpec(grid=grid, integrand=integrand, b=b, f=f,
                    n_schedule=(4.0, 2.0),
                    solver_tol=1e-8, max_iter=50_000)
    with pytest.raises(ValueError, match="n_schedule must be non-empty"):
        ProblemSpec(grid=grid, integrand=integrand, b=b, f=f, n_schedule=(),
                    solver_tol=1e-8, max_iter=50_000)
    with pytest.raises(ValueError):
        ProblemSpec(grid=grid, integrand=integrand, b=b, f=f, solver_tol=0.0,
                    max_iter=50_000)
    with pytest.raises(ValueError):
        ProblemSpec(grid=grid, integrand=integrand, b=b, f=f, solver_tol=1e-8,
                    max_iter=0)
    other = build_interval_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        ProblemSpec(grid=other, integrand=integrand, b=b, f=f,
                    solver_tol=1e-8, max_iter=50_000)


def test_power_singularity_integrability_guard():
    grid = build_interval_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        make_library_datum(grid, "power-singularity", {"exponent": 0.5})
    grid2 = build_rect_grid(2, 2, 1.0, 1.0)
    f = make_library_datum(grid2, "power-singularity", {"exponent": 0.9})
    assert math.isfinite(f.l2_norm_sq)


# ------------------------------------------------------------- certification


def test_certify_accepts_builtin_integrands():
    for kind in ("quadratic", "anisotropic", "logaug"):
        report = certify(make_integrand(kind), seed=1)
        assert report.passed, (kind, report.margins, report.violations[:2])


def test_certify_rejects_linear_growth():
    # j = |xi| cannot sit between alpha|xi|^2 and beta|xi|^2 on a log range
    from varlab.functional import Integrand
    bad = Integrand(
        label="linear-growth", alpha=1.0, beta=1.0, gamma=1.0,
        density=lambda x, xi: np.linalg.norm(xi, axis=-1),
        grad=lambda x, xi: xi / np.maximum(
            np.linalg.norm(xi, axis=-1, keepdims=True), 1e-300))
    report = certify(bad, seed=1)
    assert not report.passed
    assert report.margins["lower"] < 0
    kinds = {v["kind"] for v in report.violations}
    assert "lower" in kinds


def test_certify_catches_wrong_gradient():
    from varlab.functional import Integrand
    bad = Integrand(
        label="wrong-grad", alpha=1.0, beta=1.0, gamma=2.0,
        density=lambda x, xi: np.sum(xi * xi, axis=-1),
        grad=lambda x, xi: 3.0 * xi)
    report = certify(bad, seed=1)
    assert not report.passed
    assert report.margins["fd"] < 0


def test_certify_is_deterministic():
    a = certify(make_integrand("logaug"), seed=9)
    b = certify(make_integrand("logaug"), seed=9)
    assert a.margins == b.margins
    assert a.violations == b.violations


def test_certify_records_violation_location():
    from varlab.functional import Integrand
    bad = Integrand(
        label="wrong-grad", alpha=1.0, beta=1.0, gamma=2.0,
        density=lambda x, xi: np.sum(xi * xi, axis=-1),
        grad=lambda x, xi: 3.0 * xi)
    report = certify(bad, seed=4)
    assert report.violations
    first = report.violations[0]
    assert set(first) == {"kind", "x", "xi", "margin"}
    assert len(first["xi"]) in (1, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certify_decides_a_huge_scale_by_its_values():
    # |j_ξ| ≤ 2e303 at scale 1e300: the norm of j_ξ must not overflow
    report = certify(make_integrand("quadratic", {"scale": 1e300}), seed=0)
    assert report.passed, (report.margins, report.violations[:2])
    assert all(math.isfinite(m) for m in report.margins.values())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certify_fails_closed_when_the_density_overflows():
    # at scale 1e305 the density overflows for |ξ| above about 42, and so
    # does the slack 1e-12·(1+β|ξ|²): the overflowing samples fail
    report = certify(make_integrand("quadratic", {"scale": 1e305}), seed=0)
    assert not report.passed
    assert report.margins.pop("zero") == 1e-15
    assert set(report.margins.values()) == {-math.inf}
    assert {v["kind"] for v in report.violations} == {
        "lower", "upper", "gradient", "midpoint", "fd"}
    assert all(v["margin"] == -math.inf for v in report.violations)


# -------------------------------------------------------- library registries


def test_unknown_kinds_rejected():
    grid = build_interval_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        make_integrand("cubic")
    with pytest.raises(ValueError):
        make_coefficient(grid, "sawtooth")
    with pytest.raises(ValueError):
        make_library_datum(grid, "noise")
    with pytest.raises(ValueError):
        make_integrand("logaug", {"scale": 2.0})
    with pytest.raises(ValueError, match=r"'scal'; known: \['scale'\]"):
        make_integrand("quadratic", {"scal": 2.0})
    with pytest.raises(ValueError, match=r"'hight'; known: \['height'\]"):
        make_coefficient(grid, "step", {"hight": 2.0})
    with pytest.raises(ValueError, match=r"'lo'; known: \['high', 'low'\]"):
        make_library_datum(grid, "step", {"lo": 0.0})


def test_anisotropic_reduces_to_quadratic_at_zero_modulation():
    # s(x) = 0 at x1 = 0.75 where sin(2 pi x) = -1
    integrand = make_integrand("anisotropic", {"contrast": 0.7})
    x = np.array([[0.75]])
    xi = np.array([[2.0]])
    assert integrand.density(x, xi) == pytest.approx(4.0, rel=1e-12)
    np.testing.assert_allclose(integrand.grad(x, xi), [[4.0]], rtol=1e-12)


def test_energy_with_interpolated_parabola():
    # J(v) for v = x(1-x) interpolant, b = 0, f = 1 on 64 cells:
    # continuum value 1/3 + (1/2)(1/30) - 1/6 = 0.1833.. up to O(h^2)
    grid = build_interval_grid(0.0, 1.0, 64)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "zero"),
        f=make_library_datum(grid, "constant"),
        solver_tol=1e-8, max_iter=50_000)
    x = grid.nodes[:, 0]
    v = field_from_values(grid, x * (1 - x))
    exact = 1.0 / 3.0 + 0.5 / 30.0 - 1.0 / 6.0
    assert eval_J(spec, v) == pytest.approx(exact, abs=1e-4)
