"""Acceptance suite: every criterion at its stated tolerance.

One criterion per test group (the conftest prints a per-criterion summary
line).  Criterion 7 tabulates the radial witness over levels 0..30 at the
reference parameters (dimension 3, rho 1/4).  There the log-substitution
gap to the limit pi/2 follows the closed form (pi/2)(1+n)^-2 at every
level, and the integrable-gradient seminorm first grows a hundredfold
(against level 1) at level 30.  The companion tests directly below 7a and
7b pin the levels at which the other readings of those clauses are reached.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from varlab.auditor import damped_pairing, pairing_fields
from varlab.cli import parse_config, run
from varlab.counterexample import RadialProfile, divergence_report
from varlab.functional import ProblemSpec, eval_JM, residual
from varlab.grid import (build_interval_grid, field_from_values,
                         values_at_quadrature)
from varlab.library import make_coefficient, make_integrand, make_library_datum
from varlab.solver import Preconditioner, solve_outer, solve_stage

from test_counterexample import ball_integral

#: the radial quadrature's starting points, as the config default
QUAD_POINTS = 512


# ------------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    """Two full default sweeps with the same seed, first one timed."""
    base = tmp_path_factory.mktemp("acceptance_sweep")
    cfg_text = ("subcommand: sweep\n"
                "seed: 0\n"
                "domain: {dimension: 1, cells: 128, length: 1.0}\n")
    results = {}
    for tag in ("a", "b"):
        cfg = parse_config(cfg_text)
        start = time.perf_counter()
        code = run(cfg, str(base / tag))
        elapsed = time.perf_counter() - start
        with open(base / tag / "sweep_report.json") as fh:
            report = json.load(fh)
        results[tag] = {"dir": base / tag, "code": code,
                        "elapsed": elapsed, "report": report}
    return results


def _point_reports(run):
    """(index, report) of each sweep point, read from the file its entry
    names."""
    for point in run["report"]["points"]:
        with open(run["dir"] / point["report"]["path"]) as fh:
            yield point["index"], json.load(fh)


@pytest.fixture(scope="module")
def witness():
    start = time.perf_counter()
    report = divergence_report(3, 0.25, 30, QUAD_POINTS)
    return report, time.perf_counter() - start


# -------------------------------------------------------------- criterion 1


def test_criterion_1_closed_form_and_tridiagonal_oracle():
    start = time.perf_counter()
    grid = build_interval_grid(0.0, 1.0, 256)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "zero"),
        f=make_library_datum(grid, "constant", {"value": 1.0}),
        solver_tol=1e-12, max_iter=50_000)
    u, trace = solve_outer(spec)
    elapsed = time.perf_counter() - start
    assert trace.converged

    x = grid.nodes[:, 0]
    closed = 1.0 - (np.cosh((x - 0.5) / math.sqrt(2.0))
                    / math.cosh(0.5 / math.sqrt(2.0)))
    assert float(np.max(np.abs(u.values - closed))) <= 1e-4

    # independent tridiagonal assembly of (2K + M) u = F, f ≡ 1
    n, h = 256, 1.0 / 256
    main = np.full(n - 1, 2 * 2.0 / h + 4 * h / 6)
    off = np.full(n - 2, -2 * 1.0 / h + h / 6)
    system = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    oracle = np.linalg.solve(system, np.full(n - 1, h))
    assert float(np.max(np.abs(u.values[1:-1] - oracle))) <= 1e-8

    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


# -------------------------------------------------------------- criterion 2


def test_criterion_2_default_sweep_battery_passes(sweep_runs):
    first = sweep_runs["a"]
    assert first["code"] == 0
    assert first["elapsed"] < 600.0, \
        f"sweep took {first['elapsed']:.0f}s, budget 600s"
    report = first["report"]
    assert report["summary"]["points"] == 48          # 3 x 4 x 4
    assert report["summary"]["non_converged"] == 0
    assert report["summary"]["audit_failures"] == 0

    named = ("PRIMASTIMA", "TK_BOUND", "SECONDASTIMA", "TERZASTIMA",
             "GK_BOUND")
    for index, point in _point_reports(first):
        estimates = point["estimates"]
        stages = len(point["stages"])
        for estimate_id in named:
            entries = estimates[estimate_id]
            assert entries, (index, estimate_id)
            for entry in entries:
                assert entry["passed"] is True, (index, estimate_id)
                assert entry["rel_tol"] == 1e-6
        # the truncation-level audits run on a six-point threshold grid
        assert len(estimates["TK_BOUND"]) == 6 * stages
        assert len(estimates["GK_BOUND"]) == 6 * stages


# -------------------------------------------------------------- criterion 3


def test_criterion_3_maximum_principle_zero_violations(sweep_runs):
    violations = 0
    for index, point in _point_reports(sweep_runs["a"]):
        assert point["linf_passed"] is True, index
        for entry in point["estimates"]["LINF_BOUND"]:
            rhs = entry["rhs"]
            assert rhs != "inf"         # battery audits the truncated datum
            if not entry["lhs"] <= rhs * (1.0 + 1e-6):
                violations += 1
    assert violations == 0


# -------------------------------------------------------------- criterion 4


def test_criterion_4_clamp_stage_outputs_coincide():
    grid = build_interval_grid(0.0, 1.0, 128)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "constant", {"value": 1.0}),
        f=make_library_datum(grid, "sine", {"amplitude": 1.0}),
        solver_tol=1e-8, max_iter=50_000)
    assert spec.f.linf_bound == 1.0
    precond = Preconditioner(spec)
    fields = []
    for M in (2.0, 4.0, 8.0):
        u, trace = solve_stage(spec, spec.f, M, precond)
        # converged, and the clamp certified inactive: ‖u‖∞ < M
        assert trace.converged and trace.clamp_certified is True
        assert u.linf() <= 1.0 * (1 + 1e-6)
        fields.append(u.values)
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            gap = float(np.max(np.abs(fields[i] - fields[j])))
            assert gap <= 1e-8, (i, j, gap)


# -------------------------------------------------------------- criterion 5


def test_criterion_5_outer_stage_stabilization():
    grid = build_interval_grid(0.0, 1.0, 128)
    spec = ProblemSpec(
        grid=grid, integrand=make_integrand("quadratic"),
        b=make_coefficient(grid, "constant", {"value": 1.0}),
        f=make_library_datum(grid, "power-singularity", {"exponent": 0.4}),
        n_schedule=(1.0, 2.0, 4.0, 8.0, 16.0),
        solver_tol=1e-8, max_iter=50_000)
    u, trace = solve_outer(spec)
    assert trace.converged

    diffs = trace.stabilization_history
    assert len(diffs) == 4
    tail = diffs[-3:]
    assert tail[0] > tail[1] > tail[2], f"strong tail not decreasing: {tail}"

    fields = [s.field for s in trace.stages]
    family = pairing_fields(1)
    assert len(family) == 10
    for label, phi in family:
        values = [damped_pairing(f, spec, phi) for f in fields]
        pair_diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        ptail = pair_diffs[-3:]
        assert ptail[0] > ptail[1] > ptail[2], \
            f"weak tail not decreasing for {label}: {ptail}"


# -------------------------------------------------------------- criterion 6


def test_criterion_6_minimality_zero_failures(sweep_runs):
    for index, point in _point_reports(sweep_runs["a"]):
        minimality = point["minimality"]
        assert minimality["entries"] == 50, index
        assert minimality["passed"] is True, index
        assert minimality["min_slack"] >= -1e-9 * (
            1.0 + abs(minimality["energy"]))


# -------------------------------------------------------------- criterion 7


def test_criterion_7a_log_energy_monotone_bounded_and_tight(witness):
    report, _ = witness
    values = report.log_h1_seminorm
    limit = report.log_h1_limit
    assert limit == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v <= limit * (1.0 + 1e-12) for v in values)
    # tightness: the limit is the supremum, approached as (pi/2)(1+n)^-2
    for n, (value, damped) in enumerate(zip(values,
                                            report.damped_gradient)):
        law = (math.pi / 2.0) * (1.0 + n) ** (-2.0)
        scaled = (limit - value) * (1.0 + n) ** 2
        assert scaled == pytest.approx(math.pi / 2.0, rel=1e-12), (
            f"closed-form gap at level {n} is {limit - value:.17e}, "
            f"not (pi/2)(1+n)^-2 = {law:.17e}")
        # the same law through the quadrature route
        assert abs((limit - damped) - law) <= 1e-8 * limit, (
            f"quadrature gap at level {n} is {limit - damped:.17e}, "
            f"not (pi/2)(1+n)^-2 = {law:.17e}")


def test_companion_7a_tightness_is_reached_near_level_1253():
    # closed form: gap(n) = (pi/2) * (1+n)^(-2) for dimension 3, rho 1/4
    gap = lambda n: (math.pi / 2.0) * (1.0 + n) ** (-2.0)
    assert gap(12) > 1e-6                  # level 12 is far from 1e-6 tight
    assert gap(1252) > 1e-6
    assert gap(1253) <= 1e-6               # first integer level inside


def test_criterion_7b_w11_strictly_increasing_with_hundredfold_growth(witness):
    report, _ = witness
    values = report.w11_seminorm
    assert all(b > a for a, b in zip(values, values[1:]))
    # s = r^(-rho) - 1 turns the seminorm into 4pi * int_0^n e^s (1+s)^-8 ds
    # at dimension 3, rho 1/4
    assert (report.dimension, report.rho) == (3, 0.25)
    for n, value in zip(report.level, values):
        exact = 4.0 * math.pi * quad(lambda s: math.exp(s) * (1.0 + s) ** -8,
                                     0.0, n, epsabs=0.0, epsrel=1e-13,
                                     limit=200)[0]
        assert abs(value - exact) <= 1e-8 * exact, (
            f"seminorm at level {n} is {value:.17e}, the substituted "
            f"integral gives {exact:.17e}")
    assert report.level[-1] >= 30, \
        f"table stops at level {report.level[-1]}, before level 30"
    before, at = values[29] / values[1], values[30] / values[1]
    assert before < 100.0 <= at, (
        f"growth against level 1 is {before:.10f}x at level 29 and "
        f"{at:.10f}x at level 30; hundredfold growth should first occur at 30")


def test_companion_7b_hundredfold_growth_by_level_30():
    base = ball_integral(RadialProfile(3, 0.25, 1.0), "w11", QUAD_POINTS)
    high = ball_integral(RadialProfile(3, 0.25, 30.0), "w11", QUAD_POINTS)
    assert high / base == pytest.approx(103.06750962434293, rel=1e-8)
    assert high / base >= 100.0


def test_criterion_7c_coercivity_chain_every_level(witness):
    report, _ = witness
    assert report.assertions["coercivity_chain_holds"] is True
    for w11, damped, amp in zip(report.w11_seminorm,
                                report.damped_gradient,
                                report.amplitude_mass):
        assert w11 <= 0.5 * damped + 0.5 * amp + 1e-9 * (1.0 + abs(w11))


def test_criterion_7d_two_route_identity_and_budget(witness):
    report, elapsed = witness
    assert report.assertions["identity_two_routes_agree"] is True
    assert max(report.identity_rel_error) <= 1e-8
    assert elapsed < 10.0, f"witness tabulation took {elapsed:.2f}s"


# -------------------------------------------------------------- criterion 8


def test_criterion_8_fd_gradient_agreement_all_integrands():
    grid = build_interval_grid(0.0, 1.0, 24)
    rng = np.random.default_rng(2024)
    vals = np.zeros(grid.n_nodes)
    vals[1:-1] = rng.uniform(-0.8, 0.8, grid.n_nodes - 2)
    v = field_from_values(grid, vals)
    clamp = 0.5
    clearance = float(np.min(np.abs(np.abs(values_at_quadrature(v)) - clamp)))
    assert clearance > 1e-3       # perturbations stay clear of the clamp kink

    interior = np.flatnonzero(~grid.boundary_mask)
    nodes = rng.choice(interior, size=20, replace=False)
    for kind in ("quadratic", "anisotropic", "logaug"):
        spec = ProblemSpec(
            grid=grid, integrand=make_integrand(kind),
            b=make_coefficient(grid, "constant", {"value": 1.0}),
            f=make_library_datum(grid, "sine"),
            solver_tol=1e-8, max_iter=50_000)
        grad = residual(spec, v, M=clamp)
        for i in nodes:
            h = 1e-6 * (1.0 + abs(vals[i]))
            plus, minus = vals.copy(), vals.copy()
            plus[i] += h
            minus[i] -= h
            fd = (eval_JM(spec, field_from_values(grid, plus), clamp)
                  - eval_JM(spec, field_from_values(grid, minus), clamp)
                  ) / (2.0 * h)
            rel = abs(fd - grad[i]) / max(abs(grad[i]), 1e-12)
            assert rel <= 1e-5, (kind, int(i), rel)


# -------------------------------------------------------------- criterion 9


def test_criterion_9_same_seed_sweeps_byte_identical(sweep_runs):
    a, b = sweep_runs["a"], sweep_runs["b"]
    assert a["code"] == b["code"] == 0
    json_a = (a["dir"] / "sweep_report.json").read_bytes()
    json_b = (b["dir"] / "sweep_report.json").read_bytes()
    assert json_a == json_b
    matrix_a = (a["dir"] / "sweep_matrix.csv").read_bytes()
    matrix_b = (b["dir"] / "sweep_matrix.csv").read_bytes()
    assert matrix_a == matrix_b
    for point in ("point_000", "point_023", "point_047"):
        assert (a["dir"] / point / "report.json").read_bytes() == \
            (b["dir"] / point / "report.json").read_bytes(), point
