"""Descent solver, schedule, manufactured-solution and minimality tests.

The tridiagonal linear-solve oracle is assembled inline with dense closed
forms; the transcendental profile for the constant-datum benchmark is the
standard cosh ratio, so the solver is checked against two independent
routes at once.
"""

import math
from collections import deque

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from varlab.auditor import MinimalityReport, minimality_check
from varlab.functional import ProblemSpec, eval_J, eval_JM, make_datum
from varlab.grid import (
    DiscreteField,
    build_interval_grid,
    build_rect_grid,
    field_from_values,
    norm,
    truncate,
    values_at_quadrature,
    zero_field,
)
from varlab.library import make_coefficient, make_integrand, make_library_datum
from varlab.solver import (
    REFACTOR_DRIFT,
    MScheduleTrace,
    Preconditioner,
    SolveTrace,
    minimize_inner,
    solve_outer,
    solve_stage,
    two_loop,
)


def _spec(cells=64, integrand="quadratic", coeff=("zero", None),
          datum=("constant", None), solver_tol=1e-8, max_iter=50_000, **kw):
    grid = build_interval_grid(0.0, 1.0, cells)
    return ProblemSpec(
        grid=grid, integrand=make_integrand(integrand),
        b=make_coefficient(grid, coeff[0], coeff[1]),
        f=make_library_datum(grid, datum[0], datum[1]),
        solver_tol=solver_tol, max_iter=max_iter, **kw)


def _tridiagonal_solution(cells):
    """Dense closed-form assembly of (2K + M) u = F for f ≡ 1."""
    n = cells + 1
    h = 1.0 / cells
    K = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h
    M = (np.diag(np.full(n, 4.0)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) * h / 6
    A = 2 * K + M
    F = np.full(n, h)
    A[0] = 0; A[0, 0] = 1; A[-1] = 0; A[-1, -1] = 1
    F[0] = F[-1] = 0
    return np.linalg.solve(A, F)


def _closed_form(x):
    # minimizer profile for the b = 0, f = 1 case on (0, 1)
    return 1 - np.cosh((x - 0.5) / math.sqrt(2)) / math.cosh(1 / (2 * math.sqrt(2)))


# ------------------------------------------------------------ inner solver


def test_zero_datum_zero_iterations():
    spec = _spec(cells=16, datum=("constant", {"value": 0.0}))
    u, rec = minimize_inner(spec, 1.0, zero_field(spec.grid),
                            Preconditioner(spec))
    assert rec.iterations == 0
    assert rec.converged
    assert np.all(u.values == 0.0)
    # the record is read off the one stop test and the energy history
    assert len(rec.energy_history) == rec.iterations + 1
    assert rec.converged == (rec.residual_linf <= spec.solver_tol)


def test_quadratic_matches_tridiagonal_oracle():
    spec = _spec(cells=64)
    u, rec = minimize_inner(spec, 1.0, zero_field(spec.grid),
                            Preconditioner(spec))
    assert rec.converged
    assert np.max(np.abs(u.values - _tridiagonal_solution(64))) <= 1e-8


def test_quadratic_matches_closed_form():
    spec = _spec(cells=64)
    u, trace = solve_outer(spec)
    assert trace.converged
    gap = np.max(np.abs(u.values - _closed_form(spec.grid.nodes[:, 0])))
    assert gap <= 1e-6


def test_large_damping_energy_below_zero():
    spec = _spec(cells=32, coeff=("constant", {"value": 50.0}))
    u, trace = solve_outer(spec)
    assert trace.converged
    assert trace.stages[-1].energy <= 0.0
    assert eval_J(spec, u) <= 0.0


def test_descent_contract_per_stage():
    spec = _spec(cells=32, coeff=("constant", {"value": 2.0}))
    _, rec = minimize_inner(spec, 4.0, zero_field(spec.grid),
                            Preconditioner(spec))
    hist = rec.energy_history
    assert rec.iterations > 0
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_start_validation():
    spec = _spec(cells=8)
    other = build_interval_grid(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        minimize_inner(spec, 1.0, zero_field(other), Preconditioner(spec))
    bad = DiscreteField(grid=spec.grid, values=np.ones(spec.grid.n_nodes))
    with pytest.raises(ValueError):
        minimize_inner(spec, 1.0, bad, Preconditioner(spec))


def test_non_convergence_is_reported_not_raised():
    spec = _spec(cells=32, integrand="logaug",
                 coeff=("constant", {"value": 1.0}),
                 solver_tol=1e-15, max_iter=2)
    _, rec = minimize_inner(spec, 1.0, zero_field(spec.grid),
                            Preconditioner(spec))
    assert not rec.converged
    assert rec.iterations == 2
    assert len(rec.energy_history) == rec.iterations + 1
    assert rec.converged == (rec.residual_linf <= spec.solver_tol)


def test_warm_start_independence_convex_case():
    spec = _spec(cells=64)
    u_cold, rec_cold = minimize_inner(spec, 1.0, zero_field(spec.grid),
                                      Preconditioner(spec))
    rng = np.random.default_rng(5)
    vals = np.where(spec.grid.boundary_mask, 0.0,
                    rng.uniform(-0.5, 0.5, spec.grid.n_nodes))
    u_warm, rec_warm = minimize_inner(
        spec, 1.0, DiscreteField(grid=spec.grid, values=vals),
        Preconditioner(spec))
    assert rec_cold.converged and rec_warm.converged
    assert np.max(np.abs(u_cold.values - u_warm.values)) <= 1e-6


def test_linear_solve_iterations_do_not_grow_with_the_mesh():
    # the preconditioner is the exact Hessian here, so the first Newton step
    # is the minimizer; a decrease test on ‖d‖² rejected it from about 2·10⁵
    # cells on, which the directional-derivative test does not
    spec = _spec(cells=200_000)
    _, trace = solve_outer(spec)
    assert trace.converged
    assert sum(r.iterations for r in trace.stages[-1].inner.records) <= 2


def _csc_preconditioner(spec, v, M):
    """The preconditioner as a general sparse matrix: triplets of the element
    mass and damped stiffness blocks, identity rows at the boundary."""
    g = spec.grid
    L = g.elements.shape[1]
    bary = g.quad_points
    v_bar = np.abs(values_at_quadrature(v)).mean(axis=1)
    b_bar = spec.b.quad_values.mean(axis=1)
    damp = ((spec.integrand.alpha + spec.integrand.beta)
            / (1.0 + b_bar * np.minimum(v_bar, M)) ** 2)
    blocks = (np.einsum("eq,ql,qm->elm", g.quad_weights, bary, bary)
              + damp[:, None, None] * np.einsum(
                  "e,eld,emd->elm", g.element_measures, g.basis_gradients,
                  g.basis_gradients))
    rows = np.repeat(g.elements, L, axis=1).ravel()
    cols = np.tile(g.elements, (1, L)).ravel()
    interior = ~g.boundary_mask
    keep = interior[rows] & interior[cols]
    eye = np.flatnonzero(g.boundary_mask)
    return sp.csc_matrix(
        (np.concatenate([blocks.ravel()[keep], np.ones(eye.size)]),
         (np.concatenate([rows[keep], eye]), np.concatenate([cols[keep], eye]))),
        shape=(g.n_nodes, g.n_nodes))


@pytest.mark.parametrize("dimension,cells", [(1, 1), (1, 2), (1, 64), (2, 6)])
def test_preconditioner_solve_matches_sparse_assembly(dimension, cells):
    grid = (build_interval_grid(0.0, 1.0, cells) if dimension == 1
            else build_rect_grid(cells, cells, 1.0, 1.0))
    spec = ProblemSpec(grid=grid, integrand=make_integrand("quadratic"),
                       b=make_coefficient(grid, "constant", {"value": 2.0}),
                       f=make_library_datum(grid, "constant", None),
                       solver_tol=1e-8, max_iter=1)
    # a ramp up to 4 against M = 1.5: the clamp binds on part of the domain
    # (all of it at one cell); built directly so it need not vanish at x = 1
    v = DiscreteField(grid=grid, values=4.0 * grid.nodes[:, 0])
    M = 1.5
    assert np.any(np.abs(values_at_quadrature(v)).mean(axis=1) > M)
    rhs = np.random.default_rng(cells).standard_normal(grid.n_nodes)
    precond = Preconditioner(spec)
    got = precond.factor(precond.damping(values_at_quadrature(v), M))(rhs)
    want = spla.spsolve(_csc_preconditioner(spec, v, M), rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _blockwise_band(spec, damp):
    """The (2, n) upper band of the 1D preconditioner summed block by block:
    the diagonal in row 1, the coupling of nodes e, e+1 in row 0, column
    e+1; entries that touch the boundary zeroed, then its identity."""
    g = spec.grid
    bary = g.quad_points
    blocks = (np.einsum("eq,ql,qm->elm", g.quad_weights, bary, bary)
              + damp[:, None, None] * np.einsum(
                  "e,eld,emd->elm", g.element_measures, g.basis_gradients,
                  g.basis_gradients))
    band = np.zeros((2, g.n_nodes))
    band[0, 1:] = blocks[:, 0, 1]
    band[1, :-1] = blocks[:, 0, 0]
    band[1, 1:] += blocks[:, 1, 1]
    interior = ~g.boundary_mask
    keep = np.zeros((2, g.n_nodes), dtype=bool)
    keep[0, 1:] = interior[:-1] & interior[1:]
    keep[1] = interior
    band = keep * band
    band[1, g.boundary_mask] = 1.0
    return band


@pytest.mark.parametrize("coeff", [("zero", None), ("constant", {"value": 2.0})])
@pytest.mark.parametrize("cells", [1, 2, 3, 64, 10_000])
def test_1d_factor_solves_bit_for_bit_as_the_blockwise_band(cells, coeff):
    spec = _spec(cells=cells, coeff=coeff)
    # the ramp up to 4 against M = 1.5 puts the clamp on part of the domain
    v = DiscreteField(grid=spec.grid, values=4.0 * spec.grid.nodes[:, 0])
    M = 1.5
    assert np.any(np.abs(values_at_quadrature(v)).mean(axis=1) > M)
    precond = Preconditioner(spec)
    damp = precond.damping(values_at_quadrature(v), M)
    rhs = np.random.default_rng(cells).standard_normal(spec.grid.n_nodes)
    want = sla.cho_solve_banded(
        (sla.cholesky_banded(_blockwise_band(spec, damp)), False), rhs)
    assert np.array_equal(precond.factor(damp)(rhs), want)


def _quadratic_memory(n, pairs, seed):
    """`pairs` steps s with y = A·s for one SPD matrix A, and an SPD
    preconditioner solve that is not A's."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    P = np.diag(rng.uniform(1.0, 3.0, n))
    memory = deque(maxlen=10)
    for _ in range(pairs):
        s = rng.standard_normal(n)
        y = A @ s
        memory.append((s, y, 1.0 / (s @ y)))
    return memory, lambda g: np.linalg.solve(P, g)


@pytest.mark.parametrize("pairs", [1, 2, 5, 10])
def test_two_loop_maps_the_newest_y_to_the_newest_s(pairs):
    memory, apply_P = _quadratic_memory(12, pairs, seed=pairs)
    s, y, _ = memory[-1]
    got = two_loop(y, memory, apply_P)
    assert np.linalg.norm(got - s) <= 1e-10 * np.linalg.norm(s)
    # a pair that failed the curvature test holds a slot but takes no part
    failed = (np.ones(12), -np.ones(12), None)
    mixed = [*list(memory)[:-1], failed, memory[-1], failed]
    assert np.array_equal(two_loop(y, mixed, apply_P), got)


def test_two_loop_without_pairs_is_the_preconditioner():
    _, apply_P = _quadratic_memory(12, 0, seed=0)
    g = np.random.default_rng(1).standard_normal(12)
    failed = deque([(g, -g, None)] * 3, maxlen=10)
    for memory in (deque(maxlen=10), failed):
        assert np.array_equal(two_loop(g, memory, apply_P), apply_P(g))


@pytest.mark.parametrize("cells", [1, 2, 6, 16])
def test_preconditioner_csc_pattern_matches_triplet_assembly(monkeypatch,
                                                              cells):
    # the pattern is built once; every factor only sums values into it
    grid = build_rect_grid(cells, cells, 1.0, 1.0)
    spec = ProblemSpec(grid=grid, integrand=make_integrand("logaug"),
                       b=make_coefficient(grid, "constant", {"value": 2.0}),
                       f=make_library_datum(grid, "constant", None),
                       solver_tol=1e-8, max_iter=1)
    precond = Preconditioner(spec)
    handed = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: handed.append(A) or splu(A, **kw))
    for scale in (4.0, 0.5):
        v = DiscreteField(grid=grid, values=scale * grid.nodes[:, 0])
        precond.factor(precond.damping(values_at_quadrature(v), 1.5))
        want = _csc_preconditioner(spec, v, 1.5)
        want.sort_indices()
        got = handed[-1]
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert np.all(np.abs(got.data - want.data)
                      <= 1e-15 * np.abs(want.data))


def _count_factors(monkeypatch) -> list:
    """Record the weights of every Preconditioner.factor call."""
    calls = []
    factor = Preconditioner.factor
    monkeypatch.setattr(Preconditioner, "factor",
                        lambda self, damp: calls.append(damp)
                        or factor(self, damp))
    return calls


def test_damped_2d_solve_factors_fewer_times_than_it_iterates(monkeypatch):
    grid = build_rect_grid(32, 32, 1.0, 1.0)
    spec = ProblemSpec(grid=grid, integrand=make_integrand("logaug"),
                       b=make_coefficient(grid, "constant", {"value": 1.0}),
                       f=make_library_datum(grid, "power-singularity", None),
                       solver_tol=1e-8, max_iter=50_000)
    calls = _count_factors(monkeypatch)
    _, trace = solve_outer(spec)
    assert trace.converged
    iterations = sum(r.iterations for s in trace.stages
                     for r in s.inner.records)
    assert 0 < len(calls) < iterations


def _record_live(monkeypatch) -> tuple:
    """(factors, applied): the weights and the solve of every
    Preconditioner.factor call, and for every iteration the current
    iterate's weights, its stage_start flag and the solve `live` handed
    back."""
    factors, applied = [], []
    factor, live = Preconditioner.factor, Preconditioner.live

    def counted_factor(self, damp):
        solve = factor(self, damp)
        factors.append((damp, solve))
        return solve

    def counted_live(self, damp, stage_start):
        solve = live(self, damp, stage_start)
        applied.append((damp, stage_start, solve))
        return solve

    monkeypatch.setattr(Preconditioner, "factor", counted_factor)
    monkeypatch.setattr(Preconditioner, "live", counted_live)
    return factors, applied


def _damped_outer(grid, coefficient):
    return ProblemSpec(grid=grid, integrand=make_integrand("logaug"),
                       b=make_coefficient(grid, coefficient[0], coefficient[1]),
                       f=make_library_datum(grid, "power-singularity", None),
                       solver_tol=1e-8, max_iter=50_000)


def _iterating_stages(trace) -> int:
    return sum(1 for s in trace.stages if s.inner.records[0].iterations > 0)


def test_damped_2d_outer_solve_carries_its_factor_across_stages(monkeypatch):
    spec = _damped_outer(build_rect_grid(16, 16, 1.0, 1.0),
                         ("constant", {"value": 1.0}))
    factors, applied = _record_live(monkeypatch)
    _, trace = solve_outer(spec)
    assert trace.converged
    assert 0 < len(factors) < _iterating_stages(trace)
    # every solve applied is a factor of weights within the drift bound of
    # the iterate it serves
    built_from = {id(solve): damp for damp, solve in factors}
    assert len(applied) == sum(s.inner.records[0].iterations
                               for s in trace.stages)
    for damp, _, solve in applied:
        assert np.max(np.abs(damp / built_from[id(solve)] - 1.0)) \
            <= REFACTOR_DRIFT


def test_damped_1d_outer_solve_factors_at_each_stage_start(monkeypatch):
    spec = _damped_outer(build_interval_grid(0.0, 1.0, 256), ("step", None))
    factors, applied = _record_live(monkeypatch)
    _, trace = solve_outer(spec)
    assert trace.converged
    starts = [(damp, solve) for damp, stage_start, solve in applied
              if stage_start]
    assert len(starts) == _iterating_stages(trace) > 1
    # each stage's first iteration applies a factor of its own weights
    for damp, solve in starts:
        assert any(d is damp and f is solve for d, f in factors)


def test_linear_solve_takes_one_iteration_and_one_factor(monkeypatch):
    calls = _count_factors(monkeypatch)
    _, trace = solve_outer(_spec(cells=64))
    assert trace.converged
    assert [r.iterations for s in trace.stages
            for r in s.inner.records] == [1]
    assert len(calls) == 1


# ------------------------------------------------------------- clamp stage


def test_clamp_stage_zero_datum():
    spec = _spec(cells=16, datum=("constant", {"value": 0.0}))
    u, trace = solve_stage(spec, spec.f, 1.0, Preconditioner(spec))
    assert np.all(u.values == 0.0)
    assert all(np.all(r.field.values == 0.0) for r in trace.records)
    assert trace.clamp_certified is True and trace.converged


def test_clamp_stage_levels_coincide():
    # warm-started levels 2, 4, 8: each certifies itself, all coincide
    spec = _spec(cells=64, coeff=("constant", {"value": 1.0}),
                 datum=("sine", None))
    precond = Preconditioner(spec)
    u, fields = None, []
    for M in (2.0, 4.0, 8.0):
        u, trace = solve_stage(spec, spec.f, M, precond, start=u)
        assert trace.clamp_certified is True
        assert u.linf() <= 1.0 * (1 + 1e-6)
        fields.append(u.values)
    f0, f1, f2 = fields
    assert np.max(np.abs(f1 - f0)) <= 1e-8
    assert np.max(np.abs(f2 - f0)) <= 1e-8


def test_clamp_stage_requires_sup_bound():
    spec = _spec(cells=16, datum=("power-singularity", None))
    with pytest.raises(ValueError):
        solve_stage(spec, spec.f, 1.0, Preconditioner(spec))


def test_clamp_stage_without_certificate_is_flagged():
    # clamp level below the minimizer's amplitude: the certificate fails
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}))
    u, trace = solve_stage(spec, spec.f, 0.02, Preconditioner(spec))
    assert u.linf() > 0.02
    assert len(trace.records) == 1 and trace.records[0].converged
    assert trace.clamp_certified is False
    assert not trace.converged


def test_default_clamp_schedule_is_one_level_at_twice_n():
    for datum, levels in ((("power-singularity", None), [1, 2, 4, 8, 16]),
                          (("step", {"high": 3.0, "low": -1.0}), [4])):
        spec = _spec(cells=32, coeff=("constant", {"value": 1.0}),
                     datum=datum)
        _, trace = solve_outer(spec)
        assert [s.n_level for s in trace.stages] == levels
        for stage in trace.stages:
            assert [r.m_level for r in stage.inner.records] == \
                [2.0 * stage.n_level]
            assert stage.inner.clamp_certified is True
        assert trace.converged


def test_warm_start_guard_discards_uphill_starts():
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}))
    cold, _ = solve_stage(spec, spec.f, 2.0, Preconditioner(spec))
    rng = np.random.default_rng(1)
    vals = np.where(spec.grid.boundary_mask, 0.0,
                    rng.uniform(-5, 5, spec.grid.n_nodes))
    wild = DiscreteField(grid=spec.grid, values=vals)
    assert eval_JM(spec, wild, 2.0) > 0
    warm, _ = solve_stage(spec, spec.f, 2.0, Preconditioner(spec), start=wild)
    np.testing.assert_array_equal(warm.values, cold.values)


def test_warm_start_kept_when_energy_is_negative():
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}))
    cold, _ = solve_stage(spec, spec.f, 2.0, Preconditioner(spec))
    half = DiscreteField(grid=spec.grid, values=0.5 * cold.values)
    assert eval_JM(spec, half, 2.0) < 0
    warm, _ = solve_stage(spec, spec.f, 2.0, Preconditioner(spec), start=half)
    assert np.max(np.abs(warm.values - cold.values)) <= 1e-6


# -------------------------------------------------------------- outer solve


def test_bounded_datum_multistage_stages_coincide():
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}),
                 datum=("sine", None), n_schedule=(1.0, 2.0, 4.0))
    u, trace = solve_outer(spec)
    assert trace.converged
    assert all(d <= 1e-8 for d in trace.stabilization_history)
    base = trace.stages[0].field.values
    for stage in trace.stages[1:]:
        assert np.max(np.abs(stage.field.values - base)) <= 1e-8


def test_unbounded_datum_stabilization_decays():
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}),
                 datum=("power-singularity", None))
    u, trace = solve_outer(spec)
    assert trace.converged
    levels = [s.n_level for s in trace.stages]
    assert levels == [1.0, 2.0, 4.0, 8.0, 16.0]
    hist = trace.stabilization_history
    assert len(hist) == 4
    assert all(b < a for a, b in zip(hist, hist[1:]))
    # energies measured with the exact datum are non-increasing
    energies = [eval_J(spec, s.field) for s in trace.stages]
    assert all(b <= a + 1e-10 * (1 + abs(a))
               for a, b in zip(energies, energies[1:]))


def test_zero_comparison_energy_signs():
    nontrivial = _spec(cells=32, coeff=("constant", {"value": 1.0}),
                       datum=("sine", None))
    _, trace = solve_outer(nontrivial)
    assert trace.stages[-1].energy <= 0.0
    trivial = _spec(cells=32, datum=("constant", {"value": 0.0}))
    _, trace0 = solve_outer(trivial)
    assert trace0.stages[-1].energy == 0.0


def test_outer_defaults_bounded_datum_single_stage():
    spec = _spec(cells=16, datum=("step", {"high": 3.0, "low": -1.0}))
    _, trace = solve_outer(spec)
    assert [s.n_level for s in trace.stages] == [4.0]   # first power >= 3


def test_trace_iteration_bookkeeping():
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}),
                 datum=("sine", None))
    _, trace = solve_outer(spec)
    assert isinstance(trace, SolveTrace)
    for stage in trace.stages:
        assert isinstance(stage.inner, MScheduleTrace)
        for rec in stage.inner.records:
            assert rec.iterations <= spec.max_iter
            if rec.converged:
                assert rec.residual_linf <= spec.solver_tol
            assert len(rec.energy_history) == rec.iterations + 1


def test_2d_solve_smoke():
    grid = build_rect_grid(8, 8, 1.0, 1.0)
    spec = ProblemSpec(grid=grid, integrand=make_integrand("quadratic"),
                       b=make_coefficient(grid, "constant"),
                       f=make_library_datum(grid, "sine"),
                       solver_tol=1e-8, max_iter=50_000)
    u, trace = solve_outer(spec)
    assert trace.converged
    assert trace.stages[-1].energy < 0
    assert u.linf() <= 1.0 * (1 + 1e-6)


# ---------------------------------------------------- manufactured solutions

#: sup of the b ≡ 1 datum, reached where |∇u*|² = 9π² on the boundary
MANUFACTURED_SUP = 18.0 * math.pi ** 2
MANUFACTURED_CASES = [(1, (64, 128, 256, 512, 1024)), (2, (16, 32, 64))]


def _manufactured(x, bump):
    """u* = 3·∏ sin(πx_i) and the datum
    f = −2Δu/(1+bu)² + (2b|∇u|² + 4u∇u·∇b)/(1+bu)³ + u
    for which u* solves the Euler–Lagrange equation of j = |ξ|², with b ≡ 1
    or, if `bump`, b = ∏ sin²(πx_i) (u* > 0 inside, so |u| = u there)."""
    s, c = np.sin(math.pi * x), np.cos(math.pi * x)
    d = x.shape[1]
    u = 3.0 * np.prod(s, axis=1)
    others = [np.prod(np.delete(s, i, axis=1), axis=1) for i in range(d)]
    grad_u = [3.0 * math.pi * c[:, i] * others[i] for i in range(d)]
    grad_sq = sum(g ** 2 for g in grad_u)
    laplacian = -d * math.pi ** 2 * u
    if bump:
        b = np.prod(s, axis=1) ** 2
        grad_b = [2.0 * math.pi * s[:, i] * c[:, i] * others[i] ** 2
                  for i in range(d)]
        cross = 4.0 * u * sum(gu * gb for gu, gb in zip(grad_u, grad_b))
    else:
        b, cross = 1.0, 0.0
    amp = 1.0 + b * u
    return u, -2.0 * laplacian / amp ** 2 + (2.0 * b * grad_sq + cross) / amp ** 3 + u


def _assert_manufactured_second_order(dimension, cell_counts, bump, tol):
    # with 1+bu ≥ 1 each term of f is bounded by its numerator: 6π²d, 18π²d
    # and 36π²d for the bump, plus sup u* = 3
    sup = 60.0 * math.pi ** 2 * dimension + 3.0 if bump else MANUFACTURED_SUP
    errors = []
    for cells in cell_counts:
        grid = (build_interval_grid(0.0, 1.0, cells) if dimension == 1
                else build_rect_grid(cells, cells, 1.0, 1.0))
        coeff = (make_coefficient(grid, "smooth-bump", {"height": 1.0}) if bump
                 else make_coefficient(grid, "constant", {"value": 1.0}))
        f = make_datum(grid, lambda x: _manufactured(x, bump)[1],
                       linf_bound=sup)
        assert np.max(np.abs(f.quad_values)) <= sup
        spec = ProblemSpec(grid=grid, integrand=make_integrand("quadratic"),
                           b=coeff, f=f, solver_tol=tol, max_iter=1000)
        u, trace = solve_outer(spec)
        assert trace.converged
        exact = _manufactured(grid.nodes, bump)[0]
        errors.append(norm(DiscreteField(grid, u.values - exact), "L2"))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o >= 1.9 for o in orders), (errors, orders)


@pytest.mark.parametrize("dimension,cell_counts", MANUFACTURED_CASES)
def test_manufactured_solution_second_order(dimension, cell_counts):
    _assert_manufactured_second_order(dimension, cell_counts, bump=False,
                                      tol=1e-10)


@pytest.mark.parametrize("dimension,cell_counts", MANUFACTURED_CASES)
def test_manufactured_solution_second_order_bump_coefficient(dimension,
                                                             cell_counts):
    _assert_manufactured_second_order(dimension, cell_counts, bump=True,
                                      tol=1e-10)


def test_manufactured_stage_refactors_as_its_damping_falls(monkeypatch):
    # from zero to u* = 3·sin(πx) the weight 1/(1+|v|)² falls by about 16×,
    # far beyond what one factor may serve
    grid = build_interval_grid(0.0, 1.0, 64)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "constant", {"value": 1.0}),
        f=make_datum(grid, lambda x: _manufactured(x, False)[1],
                     linf_bound=MANUFACTURED_SUP),
        solver_tol=1e-10, max_iter=1000)
    calls = _count_factors(monkeypatch)
    _, rec = minimize_inner(spec, 2.0 * MANUFACTURED_SUP, zero_field(grid),
                            Preconditioner(spec))
    assert rec.converged
    assert len(calls) >= 3
    assert np.min(calls[-1]) < np.min(calls[0]) / 10


# --------------------------------------------------------------- minimality


def test_minimality_passes_on_computed_minimizer():
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}),
                 datum=("sine", None))
    u, _ = solve_outer(spec)
    report = minimality_check(spec, u, n_samples=50, seed=0)
    assert report.passed
    assert len(report.entries) == 50
    assert report.min_slack >= -report.tolerance * (1 + abs(report.energy))
    labels = {e[0] for e in report.entries}
    assert any(l.startswith("truncate") for l in labels)
    assert any(l.startswith("scale") for l in labels)
    assert any(l.startswith("random") for l in labels)


def test_minimality_flags_non_minimizer():
    spec = _spec(cells=32, coeff=("constant", {"value": 1.0}),
                 datum=("sine", None))
    u, _ = solve_outer(spec)
    fake = DiscreteField(grid=spec.grid, values=2.0 * u.values)
    report = minimality_check(spec, fake, n_samples=50, seed=0)
    assert not report.passed
    assert report.min_slack < 0


def test_minimality_verdict_is_derived_from_the_entries():
    tol = MinimalityReport.tolerance
    # J(v) = 1 − 20·tol undercuts J(u) = 1 by more than tol·(1 + |J(v)|)
    j_v = 1.0 - 20.0 * tol
    failing = MinimalityReport(energy=1.0, entries=(
        ("a", 3.0, 2.0), ("b", j_v, j_v - 1.0), ("c", 1.5, 0.5)))
    assert not failing.passed
    assert failing.min_slack == j_v - 1.0
    # a shortfall within the tolerance passes
    j_w = 1.0 - 0.5 * tol
    assert MinimalityReport(energy=1.0, entries=(("a", j_w, j_w - 1.0),)).passed
    empty = MinimalityReport(energy=0.0, entries=())
    assert empty.passed and empty.min_slack == math.inf


def test_minimality_deterministic_in_seed():
    spec = _spec(cells=16, coeff=("constant", {"value": 1.0}),
                 datum=("sine", None))
    u, _ = solve_outer(spec)
    a = minimality_check(spec, u, n_samples=20, seed=3)
    b = minimality_check(spec, u, n_samples=20, seed=3)
    assert a.entries == b.entries


def _list_built_minimality(spec, u, n_samples, seed):
    """The entries of a minimality check that builds every comparison field
    in one list before it evaluates any."""
    rng = np.random.default_rng(seed)
    j_u = eval_J(spec, u)
    comparisons = []
    amp = u.linf()
    if amp > 0:
        for frac in (0.25, 0.5, 0.75):
            comparisons.append((f"truncate({frac:g}*linf)",
                                truncate(u, frac * amp)))
    for c in (0.0, 0.5, 0.9, 1.1, 2.0):
        comparisons.append((f"scale({c:g})",
                            DiscreteField(grid=u.grid, values=c * u.values)))
    base = amp if amp > 0 else 1.0
    k = 0
    while len(comparisons) < n_samples:
        a = base * (0.5, 1.0, 2.0)[k % 3]
        comparisons.append((f"random(amp={a:g},#{k})", field_from_values(
            u.grid, rng.uniform(-a, a, u.grid.n_nodes))))
        k += 1
    return [(label, eval_J(spec, v), eval_J(spec, v) - j_u)
            for label, v in comparisons[:n_samples]]


@pytest.mark.parametrize("n_samples", [1, 5, 8, 30])
def test_minimality_streamed_entries_match_the_list_built_ones(n_samples):
    spec = _spec(cells=24, coeff=("constant", {"value": 1.0}),
                 datum=("sine", None))
    u, _ = solve_outer(spec)
    for field in (u, zero_field(spec.grid)):      # u ≠ 0 and u = 0
        got = minimality_check(spec, field, n_samples=n_samples, seed=7).entries
        want = _list_built_minimality(spec, field, n_samples, seed=7)
        assert [e[0] for e in got] == [e[0] for e in want]
        assert np.array([e[1:] for e in got]).view(np.uint64).tolist() == \
            np.array([e[1:] for e in want]).view(np.uint64).tolist()


def test_minimality_memory_does_not_grow_with_the_sample_count():
    import tracemalloc
    spec = _spec(cells=10_000, datum=("sine", None))
    u = field_from_values(spec.grid, np.sin(np.pi * spec.grid.nodes[:, 0]))
    minimality_check(spec, u, n_samples=1, seed=0)    # fill one-time caches
    peaks = {}
    for n_samples in (20, 200):
        tracemalloc.start()
        minimality_check(spec, u, n_samples=n_samples, seed=0)
        peaks[n_samples] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[200] - peaks[20] <= u.values.nbytes


@pytest.mark.parametrize("dimension", [1, 2])
def test_damping_is_bitwise_the_element_mean_formula(dimension):
    # the column sums divided by Q against the (E, Q) row mean they replace
    grid = (build_interval_grid(0.0, 1.0, 1000) if dimension == 1
            else build_rect_grid(24, 17, 1.0, 1.0))
    spec = ProblemSpec(grid=grid, integrand=make_integrand("logaug"),
                       b=make_coefficient(grid, "step", {"height": 3.0}),
                       f=make_library_datum(grid, "sine"),
                       solver_tol=1e-8, max_iter=1)
    precond = Preconditioner(spec)
    rng = np.random.default_rng(dimension)
    b_bar = spec.b.quad_values.mean(axis=1)
    scale = spec.integrand.alpha + spec.integrand.beta
    for _ in range(3):
        vals = rng.standard_normal(grid.n_nodes) * 10.0 ** rng.integers(
            -8, 8, grid.n_nodes)
        vals[rng.random(grid.n_nodes) < 0.2] = -0.0
        vq = values_at_quadrature(DiscreteField(grid=grid, values=vals))
        for M in (0.5, 1e3, math.inf):
            v_bar = np.abs(vq).mean(axis=1)
            want = scale / (1.0 + b_bar * np.minimum(v_bar, M)) ** 2
            assert precond.damping(vq, M).tobytes() == want.tobytes()
