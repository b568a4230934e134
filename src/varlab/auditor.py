"""Numerical audits of every a priori estimate the minimizers must obey.

Each audit evaluates both sides of one inequality on concrete discrete
fields and returns an EstimateReport. The report records the numbers, not
the verdict: that is computed from them by the one formula _verdict —
pass ⇔ lhs ≤ rhs·(1+rel_tol) + abs_tol — so it cannot contradict them.
Audits are pure: the same inputs yield bit-identical reports.

Right-hand sides quote the square mass of the UNtruncated datum (the form
the estimates are stated in); every report that also knows the stage datum
carries the tighter truncated-mass variant under params["rhs_tight"].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import count, islice
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .functional import (CoefficientField, Datum, ProblemSpec, eval_J,
                         make_Jn_datum)
from .grid import (DiscreteField, Grid, damped_integrals, element_gradients,
                   field_from_values, norm, sample_at_quadrature,
                   stack_at_quadrature, truncate, tail, values_at_quadrature)
from .solver import SolveTrace

ESTIMATE_IDS = (
    "LINF_BOUND",
    "PRIMASTIMA",
    "TK_BOUND",
    "SECONDASTIMA",
    "TERZASTIMA",
    "GK_BOUND",
    "COERCIVITY_CHAIN",
    "TESTCLASS",
    "WEAK_GRAD_STAB",
    "STRONG_L2_STAB",
)

REL_TOL = 1e-6
ABS_TOL = 1e-12
HOLDER_TOL = 1e-10
OVERFLOW_NOTE = "amplitude integral overflows; middle split step unchecked"
#: ratios of successive differences below this scale-relative floor are
#: treated as converged-to-roundoff rather than compared
STAB_FLOOR = 1e-13
#: a comparison field undercuts the candidate minimizer when its energy is
#: lower by more than this, relative to 1 + |its energy|
MINIMALITY_TOL = 1e-9
#: bytes of the largest (B, E, Q) temporary of a stacked audit; larger
#: blocks were no faster and raised the peak memory of a sweep
CHAIN_BLOCK_BYTES = 128 << 10


def block_rows(grid: Grid) -> int:
    """Fields per block of a stacked audit (the coercivity draws, the
    minimality comparisons): its temporaries stay within CHAIN_BLOCK_BYTES."""
    return max(1, CHAIN_BLOCK_BYTES // grid.quad_weights.nbytes)


@dataclass(frozen=True)
class EstimateReport:
    """One audited inequality: both sides, tolerance, verdict, context."""

    estimate_id: str
    lhs: float
    rhs: float
    rel_tol: float = REL_TOL
    abs_tol: float = ABS_TOL
    severity: str = "binding"      # "warning" reports never gate an exit code
    params: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        if self.estimate_id not in ESTIMATE_IDS:
            raise ValueError(f"unknown estimate id {self.estimate_id!r}")
        if self.severity not in ("binding", "warning"):
            raise ValueError(f"unknown severity {self.severity!r}")
        # audits pass numpy scalars (a row of a stacked integral); floats
        # keep `slack` a float and `passed` a bool, whatever the source
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))

    @property
    def passed(self) -> bool:
        return _verdict(self.lhs, self.rhs, self.rel_tol, self.abs_tol)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _verdict(lhs, rhs, rel_tol: float, abs_tol: float):
    """lhs ≤ rhs·(1+rel_tol) + abs_tol, for scalars or elementwise."""
    return lhs <= rhs * (1.0 + rel_tol) + abs_tol


def default_k_grid(u: DiscreteField) -> tuple:
    """Truncation levels {0, ¼, ½, 1, 2, 4}·‖u‖∞ for the level sweeps."""
    amp = u.linf()
    if amp == 0.0:
        return (0.0,)
    return tuple(m * amp for m in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0))


# ------------------------------------------------------- individual audits


def audit_linf(u: DiscreteField, g: Datum) -> EstimateReport:
    """Sup bound: ‖u‖∞ ≤ ‖g‖∞ (warning severity; see tolerances note)."""
    lhs = u.linf()
    if g.linf_bound is None:
        return EstimateReport("LINF_BOUND", lhs, math.inf, severity="warning",
                              params={"applicable": False},
                              note="not applicable: datum has no sup bound")
    return EstimateReport("LINF_BOUND", lhs, g.linf_bound, severity="warning",
                          params={"applicable": True})


def _split_integrals(u: DiscreteField, spec: ProblemSpec) -> list:
    """damped_integrals of one field under the problem's coefficient."""
    return [float(a[0]) for a in damped_integrals(
        u.grid, u.values[None], spec.b.quad_values)]


def audit_primastima(u: DiscreteField, spec: ProblemSpec,
                     f_used: Datum) -> EstimateReport:
    """Damped-gradient bound: α·∫|∇u|²/(1+b|u|)² ≤ ½∫|f|²."""
    alpha = spec.integrand.alpha
    lhs = alpha * _split_integrals(u, spec)[1]
    rhs = 0.5 * spec.f.l2_norm_sq
    return EstimateReport("PRIMASTIMA", lhs, rhs, params={
        "alpha": alpha, "rhs_tight": 0.5 * f_used.l2_norm_sq})


def audit_tk(u: DiscreteField, spec: ProblemSpec, k: float,
             f_used: Datum) -> EstimateReport:
    """Truncate-energy bound: |T_k(u)|²_H¹ ≤ (1+Bk)²/(2α)·∫|f|²."""
    alpha = spec.integrand.alpha
    B = spec.b.upper_bound
    lhs = norm(truncate(u, k), "H1_semi") ** 2
    try:
        factor = (1.0 + B * k) ** 2 / (2.0 * alpha)
    except OverflowError:       # a float ** that overflows raises, not inf
        factor = math.inf
    rhs = factor * spec.f.l2_norm_sq
    return EstimateReport("TK_BOUND", lhs, rhs, params={
        "k": float(k), "B": B, "alpha": alpha,
        "rhs_tight": factor * f_used.l2_norm_sq})


def audit_secondastima(u: DiscreteField, spec: ProblemSpec,
                       f_used: Datum) -> EstimateReport:
    """Square-mass bound: ∫|u|² ≤ 4∫|f|²."""
    lhs = norm(u, "L2") ** 2
    rhs = 4.0 * spec.f.l2_norm_sq
    return EstimateReport("SECONDASTIMA", lhs, rhs,
                          params={"rhs_tight": 4.0 * f_used.l2_norm_sq})


def audit_terzastima(u: DiscreteField, spec: ProblemSpec,
                     f_used: Datum) -> EstimateReport:
    """Total-variation bound from the two-factor split of ∫|∇u|.

    Main check: ∫|∇u| ≤ √(∫|f|²/2α)·(√meas + 2B√∫|f|²). Additionally
    re-derives the middle Cauchy–Schwarz step — ∫|∇u| ≤
    √(∫|∇u|²/(1+b|u|)²)·√(∫(1+b|u|)²) — which holds for every field at
    quadrature level, to HOLDER_TOL relative; its right side is +inf when
    ∫(1+b|u|)² overflows (√0·∞ would be NaN).
    """
    alpha = spec.integrand.alpha
    B = spec.b.upper_bound
    lhs, damped, amplitude = _split_integrals(u, spec)

    def bound(mass: float) -> float:
        return math.sqrt(mass / (2.0 * alpha)) * (
            math.sqrt(u.grid.measure) + 2.0 * B * math.sqrt(mass))

    overflow = math.isinf(amplitude)
    holder_rhs = (math.inf if overflow
                  else math.sqrt(damped) * math.sqrt(amplitude))
    holder_ok = _verdict(lhs, holder_rhs, HOLDER_TOL, ABS_TOL)
    params = {"B": B, "alpha": alpha, "rhs_tight": bound(f_used.l2_norm_sq),
              "holder_lhs": lhs, "holder_rhs": holder_rhs,
              "holder_passed": holder_ok}
    if holder_ok:
        return EstimateReport("TERZASTIMA", lhs, bound(spec.f.l2_norm_sq),
                              params=params, note=OVERFLOW_NOTE if overflow else "")
    # unreachable for finite fields (pointwise Young/Cauchy–Schwarz is exact
    # at quadrature level); a NaN rhs makes the verdict fail loudly while
    # keeping it consistent with the recorded numbers
    return EstimateReport("TERZASTIMA", lhs, math.nan, params=params,
                          note="middle two-factor split step violated")


def audit_gk(u: DiscreteField, spec: ProblemSpec, f_used: Datum,
             k: float) -> EstimateReport:
    """Tail bound: ∫|G_k(u)|² ≤ 4·∫_{|u| ≥ k}|f|² (region at quadrature)."""
    lhs = norm(tail(u, k), "L2") ** 2
    region = np.abs(values_at_quadrature(u)) >= k
    w = u.grid.quad_weights
    rhs = 4.0 * float(np.sum(w * region * spec.f.quad_values ** 2))
    params = {"k": float(k),
              "rhs_tight": 4.0 * float(np.sum(w * region * f_used.quad_values ** 2)),
              "region_measure": float(np.sum(w * region))}
    return EstimateReport("GK_BOUND", lhs, rhs, params=params)


def audit_coercivity_chain(blocks: Iterable[np.ndarray],
                           b: CoefficientField) -> EstimateReport:
    """Two-factor split with unit amplitude: ∫|∇v| ≤ ½∫|∇v|²/(1+|v|)² + ½∫(1+|v|)².

    The chain fixes the unit amplitude coefficient regardless of the
    problem's b (whose label is only recorded for context); the pointwise
    Young inequality makes this exact at quadrature level for EVERY field.

    `blocks` are (B, P) stacks of nodal vectors on b's grid, each audited
    in one batched pass; their rows are the samples. The report is that of
    the first row with the least slack, and params["samples"] and
    params["failures"] count the rows and the failed ones.
    """
    ones = np.ones_like(b.grid.quad_weights)
    lhs, damped, amplitude = map(np.concatenate, zip(*(
        damped_integrals(b.grid, block, ones) for block in blocks)))
    rhs = 0.5 * damped + 0.5 * amplitude
    worst = int(np.argmin(rhs - lhs))
    passed = _verdict(lhs, rhs, REL_TOL, ABS_TOL)
    return EstimateReport("COERCIVITY_CHAIN", lhs[worst], rhs[worst], params={
        "damped_term": float(damped[worst]),
        "amplitude_term": float(amplitude[worst]), "coefficient": b.label,
        "samples": len(lhs), "failures": int(np.count_nonzero(~passed))})


def _spike_field(u: DiscreteField) -> DiscreteField:
    """Tall, one-node-wide zero-trace spike near the domain center."""
    g = u.grid
    center = 0.5 * (g.nodes.min(axis=0) + g.nodes.max(axis=0))
    interior = np.flatnonzero(~g.boundary_mask)
    dist = np.linalg.norm(g.nodes[interior] - center, axis=1)
    vals = np.zeros(g.n_nodes)
    vals[interior[np.argmin(dist)]] = 10.0 * (1.0 + u.linf())
    return DiscreteField(grid=g, values=vals)


def audit_testclass(u: DiscreteField, spec: ProblemSpec) -> EstimateReport:
    """Competitor comparison: eval_J(u) ≤ eval_J(T_k(w)) for w in u, 2u and
    a spike, at k = (¼, ½, 1, 2)·‖u‖∞, so that the low levels cut u and 2u.

    Requires a strictly positive lower amplitude bound. Each candidate's
    membership surrogates (finite truncate seminorms, finite seminorm of the
    log(1+A|w|) interpolant, finite square mass) are checked before its
    truncates enter the comparison.
    """
    A = spec.b.lower_bound
    if A <= 0:
        raise ValueError("test-class audit needs a positive lower amplitude bound")
    two_u = DiscreteField(grid=u.grid, values=2.0 * u.values)
    k_grid = tuple(m * max(u.linf(), 1e-12) for m in (0.25, 0.5, 1.0, 2.0))
    ks = np.array(k_grid)[:, None]

    lhs = eval_J(spec, u)
    candidates = []
    surrogates_ok = True
    rhs = math.inf
    for label, w in (("u", u), ("2u", two_u), ("spike", _spike_field(u))):
        truncates = np.clip(w.values, -ks, ks)              # the four T_k(w)
        # |T_k(w)|²_H¹ of each row, in norm's order of operations
        mag = np.linalg.norm(stack_at_quadrature(w.grid, truncates)[1], axis=2)
        seminorms = np.sum(w.grid.element_measures * mag ** 2, axis=1)
        log_interp = DiscreteField(
            grid=w.grid, values=np.log1p(A * np.abs(w.values)))
        finite = (math.isfinite(norm(w, "L2"))
                  and math.isfinite(norm(log_interp, "H1_semi"))
                  and bool(np.isfinite(seminorms).all()))
        surrogates_ok = surrogates_ok and finite
        values = eval_J(spec, truncates)
        candidates.append({"label": label, "linf": w.linf(),
                           "energies": values, "surrogates_finite": bool(finite)})
        rhs = min(rhs, min(values))

    abs_tol = 1e-9 * (1.0 + abs(lhs))
    params = {"k_grid": list(k_grid), "candidates": candidates,
              "lower_amplitude": A}
    if surrogates_ok:
        return EstimateReport("TESTCLASS", lhs, rhs, rel_tol=0.0,
                              abs_tol=abs_tol, params=params)
    return EstimateReport("TESTCLASS", lhs, math.nan, rel_tol=0.0, abs_tol=abs_tol,
                          params=params, note="membership surrogate not finite")


# ------------------------------------------------------------ stabilization


def _cosine_field(x: np.ndarray, i: int, dim: int) -> np.ndarray:
    """cos(iπ·Σx + 0.3i) along axis i mod dim, zero along the others."""
    out = np.zeros((x.shape[0], dim))
    out[:, i % dim] = np.cos(float(i) * math.pi * x.sum(axis=1) + 0.3 * i)
    return out


def pairing_fields(dim: int) -> tuple:
    """Ten fixed smooth vector fields for the gradient-pairing diagnostic."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return (("ones", lambda x: np.ones((x.shape[0], dim))),
            *((f"cos{i}", partial(_cosine_field, i=i, dim=dim))
              for i in range(1, 10)))


def damped_pairing(u: DiscreteField, spec: ProblemSpec, phis: np.ndarray) -> list:
    """Quadrature of Φ·∇u/(1 + b|u|) for each Φ of a (K, E, Q, d) stack of
    samples at the quadrature points, as K floats, each one row sum."""
    grads = element_gradients(u)                              # (E, d)
    den = 1.0 + spec.b.quad_values * np.abs(values_at_quadrature(u))
    dot = np.einsum("keqd,ed->keq", phis, grads)
    out = u.grid.quad_weights * dot / den                     # (K, E, Q)
    return out.reshape(len(phis), -1).sum(axis=1).tolist()


def _ratio_chain(diffs: Sequence[float], floor: float) -> float:
    """Worst successive ratio over the last three differences (0 if settled)."""
    tail_diffs = list(diffs)[-3:]
    worst = 0.0
    for a, b in zip(tail_diffs, tail_diffs[1:]):
        if b <= floor:
            continue                    # next difference is roundoff-level
        worst = max(worst, b / max(a, floor))
    return worst


def audit_stabilization(trace: SolveTrace, spec: ProblemSpec
                        ) -> Tuple[EstimateReport, EstimateReport]:
    """Cauchy diagnostics across outer stages (ratio form, rhs = 1).

    STRONG_L2_STAB compares successive L² differences of the stage fields;
    WEAK_GRAD_STAB does the same for damped gradient pairings against ten
    fixed smooth vector fields. Ratios are taken over the last three
    differences; differences at roundoff scale count as settled.
    """
    fields = [s.field for s in trace.stages]
    diffs = list(trace.stabilization_history)
    scale = 1.0 + norm(fields[-1], "L2")
    strong_lhs = _ratio_chain(diffs, STAB_FLOOR * scale)
    strong = EstimateReport("STRONG_L2_STAB", strong_lhs, 1.0, params={
        "diffs": diffs, "n_levels": [s.n_level for s in trace.stages]})

    labels, phis = zip(*pairing_fields(spec.grid.dimension))
    phis = np.array([sample_at_quadrature(spec.grid, phi) for phi in phis])
    per_stage = [damped_pairing(f, spec, phis) for f in fields]
    pairings = {label: list(vals) for label, vals in zip(labels, zip(*per_stage))}
    worst = 0.0
    for vals in pairings.values():
        pdiffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        floor = STAB_FLOOR * (1.0 + abs(vals[-1]))
        worst = max(worst, _ratio_chain(pdiffs, floor))
    weak = EstimateReport("WEAK_GRAD_STAB", worst, 1.0, params={
        "pairings": pairings, "n_levels": [s.n_level for s in trace.stages]})
    return strong, weak


# ------------------------------------------------------------- full battery


def audit_battery(spec: ProblemSpec, u: DiscreteField, trace: SolveTrace,
                  seed: int, coercivity_samples: int) -> tuple:
    """Run every applicable audit for a finished solve, in a fixed order."""
    if coercivity_samples < 1:
        raise ValueError("the coercivity chain needs at least one field")
    reports = []
    final_stage = trace.stages[-1]
    final_datum = make_Jn_datum(spec.f, final_stage.n_level)
    linf = audit_linf(u, final_datum)
    reports.append(replace(linf, params={**linf.params,
                                         "n": final_stage.n_level}))

    for stage in trace.stages:
        f_n = make_Jn_datum(spec.f, stage.n_level)
        m_level = stage.inner.records[0].m_level
        v = stage.field
        stage_reports = [audit_primastima(v, spec, f_n),
                         audit_secondastima(v, spec, f_n),
                         audit_terzastima(v, spec, f_n)]
        for k in default_k_grid(v):
            stage_reports += [audit_tk(v, spec, k, f_n),
                              audit_gk(v, spec, f_n, k)]
        # each stage report records the levels it was audited at
        reports += [replace(r, params={**r.params, "n": stage.n_level,
                                       "M": m_level})
                    for r in stage_reports]

    # each row draws its amplitude, then its values: that order fixes the
    # RNG stream, and with it the artifacts.  One draw per block, in
    # Generator.uniform's low + range·next_double arithmetic and with a
    # scalar pow per amplitude
    rng, P = np.random.default_rng(seed), spec.grid.n_nodes
    rows = block_rows(spec.grid)

    def draws():
        for lo in range(0, coercivity_samples, rows):
            raw = rng.random((min(rows, coercivity_samples - lo), P + 1))
            amp = np.array([[10.0 ** (4.0 * d - 2.0)] for d in raw[:, 0].tolist()])
            block = -amp + (amp - -amp) * raw[:, 1:]
            block[:, spec.grid.boundary_mask] = 0.0
            yield block
    reports.append(audit_coercivity_chain(draws(), spec.b))

    if spec.b.lower_bound > 0:
        reports.append(audit_testclass(u, spec))

    strong, weak = audit_stabilization(trace, spec)
    reports.append(strong)
    reports.append(weak)
    return tuple(reports)


# --------------------------------------------------------- minimality check


@dataclass(frozen=True)
class MinimalityReport:
    """Random-comparison audit of local minimality for a computed field."""

    energy: float           # energy of the candidate minimizer
    entries: tuple          # (label, comparison energy, slack) triples
    tolerance = MINIMALITY_TOL      # a class constant, not a field

    @property
    def min_slack(self) -> float:
        return min([math.inf] + [slack for *_, slack in self.entries])

    @property
    def passed(self) -> bool:
        return not any(slack < -self.tolerance * (1.0 + abs(j_v))
                       for _, j_v, slack in self.entries)


def _comparisons(u: DiscreteField, rng) -> Iterator[Tuple[str, DiscreteField]]:
    """The minimality check's (label, field) comparisons, built one at a
    time: three truncates (when u ≠ 0), five scalings, then random fields
    drawn from `rng` for as long as they are asked for."""
    amp = u.linf()
    if amp > 0:
        for frac in (0.25, 0.5, 0.75):
            yield f"truncate({frac:g}*linf)", truncate(u, frac * amp)
    for c in (0.0, 0.5, 0.9, 1.1, 2.0):
        yield f"scale({c:g})", DiscreteField(grid=u.grid, values=c * u.values)
    base = amp if amp > 0 else 1.0
    for k in count():
        a = base * (0.5, 1.0, 2.0)[k % 3]
        yield f"random(amp={a:g},#{k})", field_from_values(
            u.grid, rng.uniform(-a, a, u.grid.n_nodes))


def minimality_check(spec: ProblemSpec, u: DiscreteField, n_samples: int,
                     seed: int) -> MinimalityReport:
    """Compare eval_J(u) against the first `n_samples` comparisons.

    Every comparison v must satisfy
    eval_J(u) ≤ eval_J(v) + MINIMALITY_TOL·(1+|eval_J(v)|); the slack
    eval_J(v) − eval_J(u) is recorded per field.  The fields are evaluated
    block_rows at a time, so the memory does not grow with `n_samples`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    j_u, entries = eval_J(spec, u), []
    comparisons = islice(_comparisons(u, np.random.default_rng(seed)), n_samples)
    while block := tuple(islice(comparisons, block_rows(spec.grid))):
        labels, fields = zip(*block)
        energies = eval_J(spec, np.array([v.values for v in fields]))
        entries += [(lab, j_v, j_v - j_u) for lab, j_v in zip(labels, energies)]
    return MinimalityReport(energy=j_u, entries=tuple(entries))
