"""Quasi-Newton minimization with the two-level truncation schedule.

The inner loop minimizes the clamped energy eval_JM for one amplitude level
M by preconditioned limited-memory quasi-Newton (the L-BFGS two-loop
recursion over the last ten curvature pairs, around the preconditioner
below) with Armijo backtracking from the unit step; when the memory stops
yielding a descent direction it is cleared and the step falls back to the
preconditioned gradient. With r the residual (the exact nodal gradient of
E) and d a descent direction (rᵀd < 0), the accepted step always satisfies
the Armijo decrease contract (Nocedal & Wright, 2nd ed., §3.1)

    E(v + s·d) <= E(v) + c·s·rᵀd,   c = 1e-4,

which does not depend on the mesh.

The preconditioner is the SPD matrix (quadrature mass) + (damped stiffness):
per element the stiffness block is scaled by (α+β)/(1+b̄·min(|v̄|,M))², which
for the plain quadratic integrand with b ≡ 0 reproduces the exact Hessian,
so that regime converges in a handful of steps. Each Preconditioner lists
the element mass and stiffness triplets once, with the boundary identity
appended, and every factor sums them with its weights into a layout fixed
at construction: the (2, n) upper band of the tridiagonal 1D matrix, which
banded Cholesky factors, or in 2D a CSC pattern, which SuperLU factors in
symmetric mode (minimum degree on AᵀA + A, diagonal pivots).

The Preconditioner holds one live factor and reuses it (the chord/Shamanskii
scheme, Kelley, *Iterative Methods for Linear and Nonlinear Equations*, SIAM
1995, ch. 5) until some element weight has drifted by more than
REFACTOR_DRIFT = 1/4 from its factored value, when it factors again. The
element stiffness blocks are PSD and the mass part is fixed, so weights
within ±1/4 give 0.75·P_f ≤ P ≤ 1.25·P_f: the stale factor costs at most a
factor 5/3 in condition number, and the L-BFGS memory corrects for the
rest. A linear problem factors once. In 2D the SuperLU factor serves every
stage of an outer solve until the rule fires; in 1D the banded Cholesky
factor is cheap, and each stage refactors at its start iterate, since a
factor carried across stages stalls a damped 10⁵-cell stage on steps of
zero decrease.

Each outer stage n minimizes J_M once, at M = 2n, warm-started from the
previous stage. The clamp is certified inactive when the iterate has
‖v‖∞ < M: quadrature values are convex combinations of nodal values, so
|v| < M at every point and J_M coincides with J near v. The outer
schedule warm-starts the same way over clamped data f_n.

scipy is imported at the first factorization (scipy.linalg in 1D,
scipy.sparse.linalg in 2D), so a command that never factors never loads it.
Per-element arrays are read as contiguous (E,) columns, in an order of
operations that keeps every iterate bit for bit.
"""

from __future__ import annotations

import importlib
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .functional import (Datum, EnergyPieces, ProblemSpec, energy_pieces,
                         eval_JM, make_Jn_datum, residual)
from .grid import DiscreteField, norm, zero_field

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
REFACTOR_DRIFT = 0.25


class _OnFirstUse:
    """A module bound by name and imported when an attribute is first read."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


sla = _OnFirstUse("scipy.linalg")
sp = _OnFirstUse("scipy.sparse")
spla = _OnFirstUse("scipy.sparse.linalg")


# ----------------------------------------------------------------- records


@dataclass(frozen=True)
class StageRecord:
    """One inner minimization at a fixed clamp level."""

    m_level: float
    field: DiscreteField    # the stage's converged (or last) iterate
    iterations: int
    converged: bool
    residual_linf: float
    energy_history: tuple   # accepted energies, starting value first; the
                            # last is the stage's final energy


@dataclass(frozen=True)
class MScheduleTrace:
    """The one clamp level of an outer stage and its certificate."""

    # records stays a one-tuple because the benchmark's iteration counter
    # reads stage.inner.records
    records: tuple                      # of one StageRecord
    clamp_certified: bool               # ‖v‖∞ < M: J_M coincides with J at v

    @property
    def converged(self) -> bool:
        return self.clamp_certified and self.records[0].converged


@dataclass(frozen=True)
class OuterStageResult:
    """Minimizer and trace for one clamped-datum level."""

    n_level: float
    field: DiscreteField
    inner: MScheduleTrace
    energy: float           # final clamped energy against this stage's datum


@dataclass(frozen=True)
class SolveTrace:
    """Complete record of an outer solve."""

    stages: tuple                  # of OuterStageResult
    stabilization_history: tuple   # L2 distance between consecutive stage fields

    @property
    def converged(self) -> bool:
        return all(s.inner.converged for s in self.stages)


# ----------------------------------------------------------- preconditioner


class Preconditioner:
    """Mass + amplitude-damped stiffness; the per-element damping weights are
    the only part that changes from one factor to the next. It keeps the
    live factor and the weights it was built from (see `live`).

    Boundary nodes get the identity: mass 1, stiffness 0, no couplings.
    """

    def __init__(self, spec: ProblemSpec):
        g = spec.grid
        L = g.elements.shape[1]
        bary = g.quad_points                             # (Q, L)
        # local mass blocks: sum_q w_eq * lam_l(q) * lam_m(q)
        mass = np.einsum("eq,ql,qm->elm", g.quad_weights, bary, bary)
        # local stiffness geometry: |e| * grad(lam_l) . grad(lam_m)
        stiff = np.einsum("e,eld,emd->elm", g.element_measures,
                          g.basis_gradients, g.basis_gradients)
        self._scale = spec.integrand.alpha + spec.integrand.beta
        self._b_bar = spec.b.quad_values.mean(axis=1)     # (E,)
        interior = ~g.boundary_mask
        rows = np.repeat(g.elements, L, axis=1).ravel()
        cols = np.tile(g.elements, (1, L)).ravel()
        # boundary rows/cols dropped; the identity for those nodes is appended
        # as mass 1 and stiffness 0, so every factor sums the same triplets
        keep = interior[rows] & interior[cols]
        if g.dimension == 1:
            keep &= rows <= cols       # banded Cholesky reads the upper band
        keep = np.flatnonzero(keep)
        owner = keep // (L * L)        # triplet t is of element t // L²
        eye = np.flatnonzero(g.boundary_mask)
        rows = np.concatenate([rows[keep], eye])
        cols = np.concatenate([cols[keep], eye])
        self._mass = np.concatenate([mass.ravel()[keep], np.ones(eye.size)])
        self._stiff = np.concatenate([stiff.ravel()[keep], np.zeros(eye.size)])
        self._stiff_owner = np.concatenate([owner, np.zeros_like(eye)])
        self._dimension = g.dimension
        self._n = n = g.n_nodes
        self._factored = self._apply = None   # the live factor's weights, solve
        # triplet t adds into data[slot[t]]
        if g.dimension == 1:
            # element e joins nodes e and e+1, so P is tridiagonal: entry
            # (i, j ≥ i) sits in row 1 + i − j, column j of the (2, n) band
            # (the last is node n−1's identity). Each sums at most two element
            # terms, so the summation order cannot move its bits.
            self._slot = (1 + rows - cols) * n + cols
            return
        del mass, stiff, keep, owner    # freed before np.unique, the peak
        # the CSC pattern; keys sort by column, then row
        keys, self._slot = np.unique(cols * n + rows, return_inverse=True)
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(
            np.int32)

    def damping(self, vq: np.ndarray, M: float) -> np.ndarray:
        """(E,) stiffness weights (α+β)/(1+b̄·min(v̄, M))² of the field whose
        quadrature values are `vq` (E, Q), with v̄ the element mean of |vq|:
        its Q columns summed left to right, bit for bit `mean(axis=1)`."""
        columns = np.abs(vq).T
        v_bar = sum(columns[1:], columns[0]) / vq.shape[1]
        return self._scale / (1.0 + self._b_bar * np.minimum(v_bar, M)) ** 2

    def factor(self, damp: np.ndarray):
        """Return a solve callable for the matrix with stiffness weights
        `damp`."""
        weights = damp[self._stiff_owner]     # in place: one temporary
        weights *= self._stiff
        weights += self._mass
        data = np.bincount(self._slot, weights=weights)
        if self._dimension == 1:
            chol = (sla.cholesky_banded(data.reshape(2, self._n)), False)
            return lambda rhs: sla.cho_solve_banded(chol, rhs)
        P = sp.csc_matrix((data, self._indices, self._indptr),
                          shape=(self._n, self._n))
        return spla.splu(P, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).solve

    def live(self, damp: np.ndarray, stage_start: bool):
        """The live factor's solve, factored anew for the weights `damp` when
        some weight has drifted by more than REFACTOR_DRIFT from the factored
        one, when there is no factor yet, or at a stage start in 1D."""
        if (self._factored is None
                or (stage_start and self._dimension == 1)
                or np.max(np.abs(damp / self._factored - 1.0))
                > REFACTOR_DRIFT):
            self._apply = self.factor(damp)
            self._factored = damp
        return self._apply


# ------------------------------------------------------------- inner solver


def two_loop(g: np.ndarray, memory, apply_P) -> np.ndarray:
    """H·g for the L-BFGS inverse Hessian H (Nocedal & Wright, Algorithm
    7.4) over the (s, y, 1/sᵀy) pairs of `memory`, oldest first, with the
    scaled preconditioner γ·apply_P as H₀; pairs whose 1/sᵀy is None failed
    the curvature test and are skipped."""
    pairs = [pair for pair in memory if pair[2] is not None]
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        denom = y @ apply_P(y)
        gamma = (s @ y) / denom if denom > 0 else 1.0
        q = gamma * apply_P(q)
    else:
        q = apply_P(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def minimize_inner(spec: ProblemSpec, M: float, start: DiscreteField,
                   precond: Preconditioner, pieces: Optional[EnergyPieces] = None
                   ) -> Tuple[DiscreteField, StageRecord]:
    """Descend eval_JM(., M) from `start` until the residual is below tol.

    `precond` is `Preconditioner(spec)`, shared by the stages of one outer
    solve. Its live factor outlasts this call: in 2D the next stage starts
    from it, in 1D the first iteration factors anew. `pieces`, when given,
    must be energy_pieces(spec, start, M).
    """
    if start.grid is not spec.grid:
        raise ValueError("start field must live on the spec grid")
    if not start.zero_trace:
        raise ValueError("start field must vanish on the boundary")

    v = start
    pieces = pieces if pieces is not None else energy_pieces(spec, v, M)
    history = [eval_JM(spec, v, M, pieces=pieces)]
    r = residual(spec, v, M, pieces=pieces)
    # the last ten accepted steps as (s, y, 1/sᵀy), with None for 1/sᵀy
    # without positive curvature (the pair still fills its slot)
    memory = deque(maxlen=10)

    # the stop test; a NaN residual never counts as converged
    while (not (res_linf := float(np.max(np.abs(r)))) <= spec.solver_tol
           and len(history) <= spec.max_iter):
        damp = precond.damping(pieces.vq, M)
        apply_P = precond.live(damp, stage_start=len(history) == 1)
        d = -two_loop(r, memory, apply_P)
        slope = float(r @ d)
        if slope >= 0.0:               # memory turned sour: fall back
            memory.clear()
            d = -apply_P(r)
            slope = float(r @ d)
        step = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = DiscreteField(grid=spec.grid, values=v.values + step * d)
            pieces = energy_pieces(spec, trial, M)
            trial_energy = eval_JM(spec, trial, M, pieces=pieces)
            if trial_energy <= history[-1] + ARMIJO_C * step * slope:
                break
            step *= BACKTRACK
        else:
            break   # reported as a non-converged stage, never a crash
        r_new = residual(spec, trial, M, pieces=pieces)
        s, y = step * d, r_new - r
        curv = s @ y
        ok = curv > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y))
        memory.append((s, y, 1.0 / curv if ok else None))
        v, r = trial, r_new
        history.append(trial_energy)

    return v, StageRecord(
        m_level=float(M), field=v, iterations=len(history) - 1,
        converged=res_linf <= spec.solver_tol, residual_linf=res_linf,
        energy_history=tuple(history))


# ------------------------------------------------------------ clamp stage


def solve_stage(spec: ProblemSpec, datum: Datum, M: float,
                precond: Preconditioner, start: Optional[DiscreteField] = None
                ) -> Tuple[DiscreteField, MScheduleTrace]:
    """Minimize J_M for one datum at the clamp level M from `start` (or
    zero), and certify the clamp inactive when ‖v‖∞ < M. `precond` is
    `Preconditioner(spec)`; it does not depend on the datum."""
    if datum.linf_bound is None:
        raise ValueError("a clamp stage needs a datum with a finite sup "
                         "bound; clamp the datum first")
    stage_spec = replace(spec, f=datum)
    v = start if start is not None else zero_field(spec.grid)
    pieces = energy_pieces(stage_spec, v, M)
    # a warm start that begins above the zero field's energy would break the
    # zero-comparison guarantee (final energy ≤ 0); fall back to cold start
    if eval_JM(stage_spec, v, M, pieces=pieces) > 0.0:
        v, pieces = zero_field(spec.grid), None
    v, rec = minimize_inner(stage_spec, M, v, precond, pieces)
    return v, MScheduleTrace(records=(rec,), clamp_certified=v.linf() < M)


# ------------------------------------------------------------- outer solver


def _power_at_least(target: float) -> float:
    """The first of 1, 2, 4, … that is ≥ target."""
    level = 1.0
    while level < target:
        level *= 2.0
    return level


def solve_outer(spec: ProblemSpec) -> Tuple[DiscreteField, SolveTrace]:
    """Clamp the datum along n_schedule and chase the minimizers."""
    if spec.n_schedule is not None:
        n_schedule = spec.n_schedule
    elif spec.f.linf_bound is None:
        n_schedule = (1.0, 2.0, 4.0, 8.0, 16.0)
    else:
        n_schedule = (_power_at_least(spec.f.linf_bound),)

    precond = Preconditioner(spec)
    stages = []
    stabilization = []
    current: Optional[DiscreteField] = None
    for n in n_schedule:
        datum = make_Jn_datum(spec.f, n)
        v, inner = solve_stage(spec, datum, 2.0 * n, precond, start=current)
        stages.append(OuterStageResult(
            n_level=float(n), field=v, inner=inner,
            energy=inner.records[0].energy_history[-1]))
        if current is not None:
            diff = DiscreteField(grid=spec.grid, values=v.values - current.values)
            stabilization.append(norm(diff, "L2"))
        current = v
    return current, SolveTrace(stages=tuple(stages),
                               stabilization_history=tuple(stabilization))
