"""Audit correctness: both sides of every inequality, verdict algebra,
aggregation, and determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlab.auditor import (
    ABS_TOL,
    ESTIMATE_IDS,
    REL_TOL,
    EstimateReport,
    audit_battery,
    audit_coercivity_chain,
    audit_gk,
    audit_linf,
    audit_primastima,
    audit_secondastima,
    audit_stabilization,
    audit_terzastima,
    audit_testclass,
    audit_tk,
    block_rows,
    damped_pairing,
    default_k_grid,
    minimality_check,
    pairing_fields,
)
from varlab.functional import (CoefficientField, ProblemSpec, eval_J,
                               make_Jn_datum)
from varlab.grid import (
    DiscreteField,
    build_interval_grid,
    build_rect_grid,
    damped_integrals,
    element_gradients,
    field_from_values,
    sample_at_quadrature,
    values_at_quadrature,
    zero_field,
)
from varlab.library import make_coefficient, make_integrand, make_library_datum
from varlab.solver import solve_outer


def _solved(cells=32, coeff=("constant", {"value": 1.0}), datum=("sine", None),
            integrand="quadratic", grid=None):
    grid = grid if grid is not None else build_interval_grid(0.0, 1.0, cells)
    spec = ProblemSpec(grid=grid, integrand=make_integrand(integrand),
                       b=make_coefficient(grid, coeff[0], coeff[1]),
                       f=make_library_datum(grid, datum[0], datum[1]),
                       solver_tol=1e-8, max_iter=50_000)
    u, trace = solve_outer(spec)
    assert trace.converged
    return spec, u, trace


# ------------------------------------------------------------ report algebra


def test_report_verdict_formula():
    r = EstimateReport(estimate_id="PRIMASTIMA", lhs=1.0, rhs=1.0,
                       rel_tol=1e-6, abs_tol=0.0)
    assert r.passed
    assert r.slack == 0.0
    # the verdict is computed from the numbers, so it cannot contradict them
    assert not EstimateReport(estimate_id="PRIMASTIMA", lhs=2.0, rhs=1.0,
                              rel_tol=1e-6, abs_tol=0.0).passed
    # numpy sides are stored as floats, so the verdict is a bool that the
    # CSV writer spells true/false
    r = EstimateReport("PRIMASTIMA", np.float64(1.0), np.float64(2.0))
    assert type(r.lhs) is float and type(r.rhs) is float
    assert type(r.passed) is bool and r.passed
    assert (r.rel_tol, r.abs_tol) == (REL_TOL, ABS_TOL)
    with pytest.raises(ValueError):
        EstimateReport(estimate_id="NOT_AN_ID", lhs=0.0, rhs=1.0,
                       rel_tol=0.0, abs_tol=0.0)
    with pytest.raises(ValueError):
        EstimateReport(estimate_id="PRIMASTIMA", lhs=0.0, rhs=1.0,
                       rel_tol=0.0, abs_tol=0.0, severity="fatal")


@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
       st.floats(0, 1e-3), st.floats(0, 1e-3))
@settings(max_examples=200, deadline=None)
def test_report_verdict_consistency_property(lhs, rhs, rel_tol, abs_tol):
    expected = lhs <= rhs * (1 + rel_tol) + abs_tol
    r = EstimateReport(estimate_id="TK_BOUND", lhs=lhs, rhs=rhs,
                       rel_tol=rel_tol, abs_tol=abs_tol)
    assert r.passed == expected
    assert r.slack == rhs - lhs


def test_estimate_id_catalogue():
    assert set(ESTIMATE_IDS) == {
        "LINF_BOUND", "PRIMASTIMA", "TK_BOUND", "SECONDASTIMA", "TERZASTIMA",
        "GK_BOUND", "COERCIVITY_CHAIN", "TESTCLASS", "WEAK_GRAD_STAB",
        "STRONG_L2_STAB"}


def test_default_k_grid():
    grid = build_interval_grid(0.0, 1.0, 4)
    u = field_from_values(grid, np.array([0.0, 2.0, -1.0, 0.5, 0.0]))
    assert default_k_grid(u) == (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    assert default_k_grid(zero_field(grid)) == (0.0,)


# --------------------------------------------------------- individual audits


def test_linf_bound_cases():
    spec, u, _ = _solved()
    report = audit_linf(u, make_Jn_datum(spec.f, 1.0))
    assert report.passed
    assert report.severity == "warning"
    assert report.lhs == u.linf()
    assert report.rhs == 1.0

    zero = make_library_datum(spec.grid, "constant", {"value": 0.0})
    assert audit_linf(zero_field(spec.grid), zero).passed

    unbounded = make_library_datum(spec.grid, "power-singularity", None)
    na = audit_linf(u, unbounded)
    assert na.passed and na.params["applicable"] is False
    assert "not applicable" in na.note


def test_primastima_quadratic_case():
    spec, u, _ = _solved(cells=64, coeff=("zero", None),
                         datum=("constant", None))
    report = audit_primastima(u, spec, spec.f)
    assert report.passed
    assert report.rhs == pytest.approx(0.5, rel=1e-12)   # ½∫1²
    assert 0 < report.lhs < report.rhs
    assert report.params["rhs_tight"] == pytest.approx(0.5, rel=1e-12)


def test_primastima_zero_datum_equality():
    spec, u, _ = _solved(datum=("constant", {"value": 0.0}))
    report = audit_primastima(u, spec, spec.f)
    assert report.passed
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_tk_bound_cases():
    spec, u, _ = _solved()
    zero_level = audit_tk(u, spec, 0.0, spec.f)
    assert zero_level.passed and zero_level.lhs == 0.0
    big = audit_tk(u, spec, 2 * u.linf(), spec.f)
    assert big.passed
    # B = 0 collapses the factor to 1/(2 alpha) independent of k
    spec0, u0, _ = _solved(coeff=("zero", None))
    r1 = audit_tk(u0, spec0, 0.5, spec0.f)
    r2 = audit_tk(u0, spec0, 7.0, spec0.f)
    assert r1.rhs == r2.rhs == pytest.approx(
        spec0.f.l2_norm_sq / 2.0, rel=1e-12)


def test_gk_at_zero_matches_secondastima():
    spec, u, _ = _solved()
    gk = audit_gk(u, spec, spec.f, 0.0)
    second = audit_secondastima(u, spec, spec.f)
    assert gk.lhs == pytest.approx(second.lhs, abs=1e-12)
    assert gk.rhs == pytest.approx(second.rhs, abs=1e-12)


def test_gk_tail_vanishes_beyond_amplitude():
    spec, u, _ = _solved()
    report = audit_gk(u, spec, spec.f, u.linf() + 1.0)
    assert report.passed
    assert report.lhs == 0.0
    assert report.params["region_measure"] == 0.0


def test_gk_region_shrinks_with_k():
    spec, u, trace = _solved(cells=64, datum=("power-singularity", None))
    measures = []
    rhss = []
    for k in default_k_grid(u):
        r = audit_gk(u, spec, make_Jn_datum(spec.f, 16.0), k)
        assert r.passed
        measures.append(r.params["region_measure"])
        rhss.append(r.rhs)
    assert all(b <= a for a, b in zip(measures, measures[1:]))
    assert all(b <= a for a, b in zip(rhss, rhss[1:]))


def test_terzastima_b_zero_collapse():
    spec, u, _ = _solved(cells=64, coeff=("zero", None),
                         datum=("constant", None))
    report = audit_terzastima(u, spec, spec.f)
    assert report.passed
    assert report.rhs == pytest.approx(
        math.sqrt(spec.grid.measure * spec.f.l2_norm_sq / 2.0), rel=1e-12)
    assert report.params["holder_passed"] is True


def test_terzastima_zero_field():
    spec, _, _ = _solved()
    report = audit_terzastima(zero_field(spec.grid), spec, spec.f)
    assert report.passed
    assert report.lhs == 0.0


def test_coercivity_chain_ramp_frozen():
    # v = x on (0,1): 1 ≤ ½∫(1+x)^-2 + ½∫(1+x)² = ¼ + 7/6
    grid = build_interval_grid(0.0, 1.0, 64)
    ramp = DiscreteField(grid=grid, values=grid.nodes[:, 0].copy())
    report = audit_coercivity_chain([ramp.values[None]],
                                    make_coefficient(grid, "zero"))
    assert report.passed
    assert report.lhs == pytest.approx(1.0, rel=1e-12)
    assert report.rhs == pytest.approx(0.25 + 7.0 / 6.0, abs=1e-6)


def test_coercivity_chain_zero_field():
    grid = build_interval_grid(0.0, 1.0, 8)
    report = audit_coercivity_chain([np.zeros((3, grid.n_nodes))],
                                    make_coefficient(grid, "zero"))
    assert report.passed
    assert (report.params["samples"], report.params["failures"]) == (3, 0)
    assert report.lhs == 0.0
    assert report.rhs == pytest.approx(0.5 * grid.measure, rel=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=7, max_size=7))
@settings(max_examples=150, deadline=None)
def test_coercivity_chain_arbitrary_fields(interior):
    # pointwise Young inequality: exact at quadrature level for every field
    grid = build_interval_grid(0.0, 2.0, 8)
    vals = np.array([0.0] + interior + [0.0])
    field = DiscreteField(grid=grid, values=vals)
    report = audit_coercivity_chain([field.values[None]],
                                    make_coefficient(grid, "zero"))
    assert report.passed


@given(st.lists(st.floats(-20, 20), min_size=7, max_size=7),
       st.sampled_from(["constant", "smooth-bump"]))
@settings(max_examples=100, deadline=None)
def test_holder_middle_step_every_field(interior, coeff_kind):
    # the two-factor split inside the total-variation audit is Cauchy-Schwarz
    # at quadrature level: it must hold for arbitrary fields, minimizer or not
    grid = build_interval_grid(0.0, 1.0, 8)
    spec = ProblemSpec(grid=grid, integrand=make_integrand("quadratic"),
                       b=make_coefficient(grid, coeff_kind),
                       f=make_library_datum(grid, "constant"),
                       solver_tol=1e-8, max_iter=50_000)
    vals = np.array([0.0] + interior + [0.0])
    v = DiscreteField(grid=grid, values=vals)
    report = audit_terzastima(v, spec, spec.f)
    assert report.params["holder_passed"] is True
    assert report.params["holder_lhs"] <= report.params["holder_rhs"] * (
        1 + 1e-10) + 1e-12


# ----------------------------------------------------------------- testclass


def test_testclass_family_and_equality():
    spec, u, _ = _solved()
    report = audit_testclass(u, spec)
    assert report.passed
    labels = [c["label"] for c in report.params["candidates"]]
    assert labels == ["u", "2u", "spike"]
    assert all(c["surrogates_finite"] for c in report.params["candidates"])
    # the u-candidate at saturated k reproduces eval_J(u): slack ~ 0
    assert report.rhs <= report.lhs + 1e-12
    assert report.rhs == pytest.approx(eval_J(spec, u), rel=1e-12)


def test_testclass_spike_energies_saturate():
    # a truncate at or above a candidate's sup norm is the candidate itself;
    # the spike stands above every level, so each of its truncates is cut
    spec, u, _ = _solved()
    report = audit_testclass(u, spec)
    ks = report.params["k_grid"]
    saturated = {}
    for cand in report.params["candidates"]:
        sat = [e for k, e in zip(ks, cand["energies"]) if k >= cand["linf"]]
        assert all(e == sat[0] for e in sat)
        saturated[cand["label"]] = len(sat)
    assert saturated == {"u": 2, "2u": 1, "spike": 0}


def test_testclass_truncates_u_below_its_sup_norm():
    spec, u, _ = _solved()
    report = audit_testclass(u, spec)
    ks = report.params["k_grid"]
    assert ks[0] < u.linf()
    u_energies = report.params["candidates"][0]["energies"]
    assert u_energies[0] != eval_J(spec, u)
    assert u_energies[2:] == [eval_J(spec, u)] * 2


def test_testclass_requires_positive_lower_bound():
    spec, u, _ = _solved(coeff=("zero", None))
    with pytest.raises(ValueError):
        audit_testclass(u, spec)
    spec2, u2, _ = _solved(coeff=("smooth-bump", None))  # lower bound 0
    with pytest.raises(ValueError):
        audit_testclass(u2, spec2)


@pytest.mark.parametrize("length, plateau", [(1e10, 0.8e149), (1e-150, 1.2e3)],
                         ids=["square-mass", "truncate-seminorm"])
def test_testclass_surrogate_overflow_fails_with_a_nan_rhs(length, plateau):
    # a plateau at every interior node of 8 cells: for 2u and the spike,
    # ∫w² overflows on the long mesh, and only the seminorms of the
    # truncates do on the short one; u stays finite on both
    grid = build_interval_grid(0.0, length, 8)
    spec = ProblemSpec(grid=grid, integrand=make_integrand("quadratic"),
                       b=make_coefficient(grid, "constant", {"value": 1e-30}),
                       f=make_library_datum(grid, "constant"),
                       solver_tol=1e-8, max_iter=50_000)
    u = field_from_values(grid, np.full(grid.n_nodes, plateau))
    with np.errstate(over="ignore"):        # as the command line runs it
        report = audit_testclass(u, spec)
    assert [c["surrogates_finite"] for c in report.params["candidates"]] == [
        True, False, False]
    assert all(math.isfinite(e) for e in report.params["candidates"][0]["energies"])
    assert math.isnan(report.rhs) and not report.passed
    assert report.note == "membership surrogate not finite"


def test_testclass_flags_non_minimizer():
    spec, u, _ = _solved()
    fake = DiscreteField(grid=spec.grid, values=3.0 * u.values)
    report = audit_testclass(fake, spec)
    assert not report.passed


# -------------------------------------------------------------- stablization


def test_stabilization_unbounded_datum():
    spec, u, trace = _solved(cells=32, datum=("power-singularity", None))
    strong, weak = audit_stabilization(trace, spec)
    assert strong.estimate_id == "STRONG_L2_STAB"
    assert weak.estimate_id == "WEAK_GRAD_STAB"
    assert strong.passed and weak.passed
    assert strong.lhs < 1.0 and weak.lhs < 1.0
    assert strong.rhs == weak.rhs == 1.0
    diffs = strong.params["diffs"]
    assert diffs[-1] < diffs[0]
    assert set(weak.params["pairings"]) == {
        "ones", "cos1", "cos2", "cos3", "cos4", "cos5", "cos6", "cos7",
        "cos8", "cos9"}


def test_stabilization_bounded_datum_settles():
    spec, u, trace = _solved(datum=("sine", None))
    strong, weak = audit_stabilization(trace, spec)
    assert strong.passed and weak.passed
    assert strong.lhs == 0.0    # single effective stage: nothing to compare


def _one_field_pairing(u, spec, phi_q):
    """The one-field formula that damped_pairing stacks."""
    den = 1.0 + spec.b.quad_values * np.abs(values_at_quadrature(u))
    dot = np.einsum("eqd,ed->eq", phi_q, element_gradients(u))
    return float(np.sum(u.grid.quad_weights * dot / den))


@pytest.mark.parametrize("grid", [build_interval_grid(0.0, 1.0, 40),
                                  build_rect_grid(7, 6, 1.0, 1.0)],
                         ids=["1d-40", "2d-7x6"])
def test_stacked_pairings_are_bitwise_the_one_field_formula(grid):
    spec = ProblemSpec(grid=grid, integrand=make_integrand("quadratic"),
                       b=make_coefficient(grid, "step", {"height": 3.0}),
                       f=make_library_datum(grid, "sine"),
                       solver_tol=1e-8, max_iter=50_000)
    phis = np.array([sample_at_quadrature(grid, phi)
                     for _, phi in pairing_fields(grid.dimension)])
    rng = np.random.default_rng(grid.dimension)
    for _ in range(5):
        vals = rng.uniform(-2.0, 2.0, grid.n_nodes)
        vals[rng.random(grid.n_nodes) < 0.3] = -0.0
        u = DiscreteField(grid=grid, values=vals)
        got = damped_pairing(u, spec, phis)
        assert got == [_one_field_pairing(u, spec, phi_q) for phi_q in phis]
        assert damped_pairing(u, spec, phis[3:4]) == got[3:4]


def test_weak_stabilization_pairs_each_stage_by_the_one_field_formula():
    spec, u, trace = _solved(cells=32, datum=("power-singularity", None))
    _, weak = audit_stabilization(trace, spec)
    for label, phi in pairing_fields(1):
        phi_q = sample_at_quadrature(spec.grid, phi)
        assert weak.params["pairings"][label] == [
            _one_field_pairing(s.field, spec, phi_q) for s in trace.stages]


@pytest.mark.parametrize("seed", [2, 9])
def test_coercivity_block_draws_are_the_row_by_row_stream(monkeypatch, seed):
    import varlab.auditor as auditor_mod
    spec, u, trace = _solved(grid=build_interval_grid(0.0, 1.0, 512))
    rows = block_rows(spec.grid)
    samples = 2 * rows + 3            # two whole blocks and a short one
    blocks = []

    def recording_chain(draws, b):
        blocks.extend(block.copy() for block in draws)
        return audit_coercivity_chain(blocks, b)

    monkeypatch.setattr(auditor_mod, "audit_coercivity_chain", recording_chain)
    audit_battery(spec, u, trace, seed=seed, coercivity_samples=samples)
    assert [len(block) for block in blocks] == [rows, rows, 3]
    # the reference: one amplitude, then one row, per sample
    rng = np.random.default_rng(seed)
    want = np.empty((samples, spec.grid.n_nodes))
    for row in want:
        amp = 10.0 ** rng.uniform(-2.0, 2.0)
        row[:] = rng.uniform(-amp, amp, spec.grid.n_nodes)
    want[:, spec.grid.boundary_mask] = 0.0
    assert np.array_equal(np.concatenate(blocks).view(np.int64),
                          want.view(np.int64))


def test_minimality_blocks_are_bitwise_the_one_field_loop():
    from varlab.auditor import _comparisons
    spec, u, _ = _solved(grid=build_interval_grid(0.0, 1.0, 512))
    rows = block_rows(spec.grid)
    samples = 2 * rows + 3
    report = minimality_check(spec, u, n_samples=samples, seed=4)
    j_u = eval_J(spec, u)
    comparisons = _comparisons(u, np.random.default_rng(4))
    want = []
    for _ in range(samples):
        label, v = next(comparisons)
        j_v = eval_J(spec, v)
        want.append((label, j_v, j_v - j_u))
    assert report.energy == j_u
    assert report.entries == tuple(want)


def test_pairing_fields_contract():
    for dim in (1, 2):
        fam = pairing_fields(dim)
        assert len(fam) == 10
        assert fam[0][0] == "ones"
        pts = np.linspace(0, 1, 5)[:, None] * np.ones((1, dim))
        for label, fn in fam:
            out = fn(pts)
            assert out.shape == (5, dim)
            assert np.all(np.isfinite(out))
    with pytest.raises(ValueError):
        pairing_fields(0)


# ------------------------------------------------------------------- battery


def test_battery_composition_and_determinism():
    spec, u, trace = _solved(cells=32, datum=("power-singularity", None))
    a = audit_battery(spec, u, trace, seed=3, coercivity_samples=200)
    b = audit_battery(spec, u, trace, seed=3, coercivity_samples=200)
    assert a == b
    ids = [r.estimate_id for r in a]
    assert ids.count("PRIMASTIMA") == len(trace.stages)
    assert ids.count("STRONG_L2_STAB") == 1
    assert ids.count("TESTCLASS") == 1
    assert ids[0] == "LINF_BOUND"
    coer = next(r for r in a if r.estimate_id == "COERCIVITY_CHAIN")
    assert coer.params["samples"] == 200
    assert coer.params["failures"] == 0
    assert all(r.passed for r in a)


def test_battery_skips_testclass_without_lower_bound():
    spec, u, trace = _solved(coeff=("zero", None))
    reports = audit_battery(spec, u, trace, seed=0, coercivity_samples=200)
    assert all(r.estimate_id != "TESTCLASS" for r in reports)


def test_battery_stage_params_present():
    spec, u, trace = _solved(cells=32, datum=("power-singularity", None))
    reports = audit_battery(spec, u, trace, seed=0, coercivity_samples=200)
    for r in reports:
        if r.estimate_id in ("PRIMASTIMA", "SECONDASTIMA", "TERZASTIMA",
                             "TK_BOUND", "GK_BOUND"):
            assert "n" in r.params and "M" in r.params
            assert "rhs_tight" in r.params
        if r.estimate_id in ("TK_BOUND", "GK_BOUND"):
            assert "k" in r.params


def test_battery_never_reprs_the_coefficient(monkeypatch):
    # the chain records the coefficient's label; a repr of the whole field
    # (every grid array) once cost 98% of an audit
    spec, u, trace = _solved(cells=16)

    def refuse(self):
        raise AssertionError("CoefficientField repr on the audit path")

    monkeypatch.setattr(CoefficientField, "__repr__", refuse)
    reports = audit_battery(spec, u, trace, seed=0, coercivity_samples=20)
    coer = next(r for r in reports if r.estimate_id == "COERCIVITY_CHAIN")
    assert coer.params["coefficient"] == spec.b.label


def test_battery_rejects_zero_coercivity_samples():
    spec, u, trace = _solved(cells=16)
    with pytest.raises(ValueError, match="at least one field"):
        audit_battery(spec, u, trace, seed=0, coercivity_samples=0)


def _chain_one_field(v, b_q):
    """The single-field formula of the split: lhs, rhs, damped, amplitude."""
    g = v.grid
    grads = np.linalg.norm(element_gradients(v), axis=1)
    amp = 1.0 + b_q * np.abs(values_at_quadrature(v))
    w = g.quad_weights
    lhs = float(np.sum(w * grads[:, None]))
    damped = float(np.sum(w * (grads[:, None] / amp) ** 2))
    amplitude = float(np.sum(w * amp ** 2))
    return lhs, 0.5 * damped + 0.5 * amplitude, damped, amplitude


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("grid", [build_interval_grid(0.0, 1.0, 512),
                                  build_rect_grid(24, 24, 1.0, 1.0)],
                         ids=["1d-512", "2d-24x24"])
def test_batched_chain_matches_per_sample_loop(grid, seed):
    spec, u, trace = _solved(grid=grid)
    samples = block_rows(grid) + 50
    reports = audit_battery(spec, u, trace, seed=seed,
                            coercivity_samples=samples)
    coer = next(r for r in reports if r.estimate_id == "COERCIVITY_CHAIN")

    # the battery's draws, one field at a time, through the one-field formula
    rng = np.random.default_rng(seed)
    ones = np.ones_like(grid.quad_weights)
    stack, expected = [], []
    for _ in range(samples):
        amp = 10.0 ** rng.uniform(-2.0, 2.0)
        vals = np.where(grid.boundary_mask, 0.0,
                        rng.uniform(-amp, amp, grid.n_nodes))
        stack.append(vals)
        expected.append(_chain_one_field(DiscreteField(grid=grid, values=vals),
                                         ones))
    worst, failures = 0, 0
    for i, (lhs, rhs, _, _) in enumerate(expected):
        failures += 0 if lhs <= rhs * (1 + coer.rel_tol) + coer.abs_tol else 1
        if rhs - lhs < expected[worst][1] - expected[worst][0]:
            worst = i

    lhs, rhs, damped, amplitude = expected[worst]
    assert (coer.lhs, coer.rhs) == (lhs, rhs)
    assert coer.params["damped_term"] == damped
    assert coer.params["amplitude_term"] == amplitude
    assert coer.params["samples"] == samples
    assert coer.params["failures"] == failures

    got = damped_integrals(grid, np.array(stack), ones)
    want = np.array(expected)
    for column, values in zip((0, 2, 3), got):
        assert np.array_equal(values, want[:, column])
    assert int(np.argmin(0.5 * got[1] + 0.5 * got[2] - got[0])) == worst

    # a coefficient with a zero and a positive half, as PRIMASTIMA and
    # TERZASTIMA pass it
    step = make_coefficient(grid, "step", {"height": 3.0}).quad_values
    assert 0 < np.count_nonzero(step) < step.size
    got = damped_integrals(grid, np.array(stack), step)
    want = np.array([_chain_one_field(DiscreteField(grid=grid, values=v), step)
                     for v in stack])
    for column, values in zip((0, 2, 3), got):
        assert np.array_equal(values, want[:, column])


@pytest.mark.parametrize("grid", [build_interval_grid(0.0, 1.0, 512),
                                  build_rect_grid(24, 24, 1.0, 1.0)],
                         ids=["1d-512", "2d-24x24"])
def test_streamed_chain_equals_the_one_array_chain(grid):
    spec, u, trace = _solved(grid=grid)
    rows = block_rows(grid)
    samples = 2 * rows + 3          # two whole blocks and a short one
    # the battery's draws as one (S, P) array, the stream they replace
    rng = np.random.default_rng(3)
    stack = np.empty((samples, grid.n_nodes))
    for row in stack:
        amp = 10.0 ** rng.uniform(-2.0, 2.0)
        row[:] = rng.uniform(-amp, amp, grid.n_nodes)
    stack[:, grid.boundary_mask] = 0.0
    whole = audit_coercivity_chain([stack], spec.b)
    assert whole.params["samples"] == samples
    reports = audit_battery(spec, u, trace, seed=3, coercivity_samples=samples)
    assert next(r for r in reports
                if r.estimate_id == "COERCIVITY_CHAIN") == whole
    # any split of the stack into blocks gives the same report
    cuts = (0, 1, 8, rows + 5, samples)
    blocks = (stack[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
    assert audit_coercivity_chain(blocks, spec.b) == whole
