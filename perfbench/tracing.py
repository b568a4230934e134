"""Spans recorded from outside the program, and the per-layer metrics.

``installed(tracer)`` replaces each public function of ``varlab`` at the
binding its caller uses (``varlab.cli.solve_outer``, ``varlab.solver.eval_JM``,
``scipy.sparse.linalg.splu`` as seen by ``varlab.solver``, ...) with a
wrapper that records a span: name, start, end and the id of the span that
was open when it started.  Spans stay in memory; ``write_spans`` writes
them out when the run ends.  The originals are restored on exit, so a
round run outside the context is not traced at all.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

_STAGE_AUDITS = ("audit_linf", "audit_primastima", "audit_secondastima",
                 "audit_terzastima", "audit_tk", "audit_gk")
_QUADRATURE = ("w11_seminorm", "coercive_functional_value", "amplitude_mass")


class Tracer:
    """In-memory span store: rows of [id, parent id, name, start, end]."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._open: list = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``count(counters, args,
        result)`` adds to the tracer's counters after each call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None,
                    name, time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced


def _count_quad_points(counters, args, result):
    # elements x quadrature points of the field's grid: args[0] is the spec
    counters["functional.quad_points"] += args[0].grid.quad_weights.size


def _count_iterations(counters, args, result):
    _, trace = result
    counters["solver.iterations"] += sum(
        rec.iterations for stage in trace.stages for rec in stage.inner.records)


class _ModuleView:
    """A module as one caller sees it, with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _bindings():
    """(module name, attribute, span name, counter) for every traced call."""
    rows = [
        ("varlab.cli", "main", "cli.main", None),
        ("varlab.cli", "parse_config", "cli.parse_config", None),
        ("varlab.cli", "render_config", "cli.render_config", None),
        ("varlab.cli", "build_interval_grid", "grid.build_interval_grid", None),
        ("varlab.cli", "build_rect_grid", "grid.build_rect_grid", None),
        ("varlab.cli", "make_integrand", "library.make_integrand", None),
        ("varlab.cli", "make_coefficient", "library.make_coefficient", None),
        ("varlab.cli", "make_library_datum", "library.make_library_datum", None),
        ("varlab.cli", "solve_outer", "solver.solve_outer", _count_iterations),
        ("varlab.cli", "minimality_check", "solver.minimality_check", None),
        ("varlab.cli", "audit_battery", "auditor.audit_battery", None),
        ("varlab.cli", "certify", "functional.certify", None),
        ("varlab.cli", "divergence_report", "counterexample.divergence_report",
         None),
        ("varlab.solver", "eval_JM", "functional.eval_JM", _count_quad_points),
        ("varlab.solver", "residual", "functional.residual", _count_quad_points),
        # minimality_check imports eval_J from varlab.functional at call time
        ("varlab.functional", "eval_J", "functional.eval_J", _count_quad_points),
        ("varlab.auditor", "eval_J", "functional.eval_J", _count_quad_points),
        ("varlab.auditor", "audit_coercivity_chain", "auditor.coercivity_chain",
         None),
        ("varlab.auditor", "audit_testclass", "auditor.testclass", None),
        ("varlab.auditor", "audit_stabilization", "auditor.stabilization", None),
    ]
    rows += [("varlab.auditor", fn, f"auditor.{fn}", None) for fn in _STAGE_AUDITS]
    rows += [("varlab.counterexample", fn, f"counterexample.{fn}", None)
             for fn in _QUADRATURE]
    return rows


@contextlib.contextmanager
def installed(tracer: Tracer, missing: Optional[list] = None):
    """Trace every binding inside the block; names of bindings that no longer
    exist are appended to ``missing`` and their metrics read 0."""
    saved = []
    try:
        for module_name, attr, span, count in _bindings():
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                if missing is not None:
                    missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, count))
        solver = importlib.import_module("varlab.solver")
        spla = getattr(solver, "spla", None)
        if spla is None:
            if missing is not None:
                missing.append("varlab.solver.spla")
        else:
            saved.append((solver, "spla", spla))
            solver.spla = _ModuleView(
                spla, splu=tracer.wrap("solver.splu", spla.splu))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def write_spans(spans: Iterable, path: str):
    with open(path, "w") as fh:
        for sid, parent, name, start, end in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


# -------------------------------------------------------------- arithmetic


def covered(intervals: Iterable, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [(end - start) - covered(children[sid], start, end)
            for sid, _, _, start, end in spans]


def layer_metrics(spans: list, counters: dict, rounds: int) -> dict:
    """Per-layer metrics per traced round, as {name: (value, unit)}."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name = span[2]
        calls[name] += 1
        total[name] += span[4] - span[3]
        own[name] += self_s

    def s(*names):
        return sum(total[n] for n in names) / rounds

    def n(*names):
        return sum(calls[n] for n in names) / rounds

    stage_audits = [f"auditor.{fn}" for fn in _STAGE_AUDITS]
    quadrature = [f"counterexample.{fn}" for fn in _QUADRATURE]
    jm_calls = calls["functional.eval_JM"]
    return {
        "auditor.coercivity_chain.calls": (n("auditor.coercivity_chain"), "count"),
        "auditor.coercivity_chain.s": (s("auditor.coercivity_chain"), "s"),
        "auditor.audit_battery.s": (s("auditor.audit_battery"), "s"),
        "auditor.testclass.s": (s("auditor.testclass"), "s"),
        "auditor.stabilization.s": (s("auditor.stabilization"), "s"),
        "auditor.stage_audits.s": (s(*stage_audits), "s"),
        "solver.minimality_check.s": (s("solver.minimality_check"), "s"),
        "functional.eval_J.calls": (n("functional.eval_J"), "count"),
        "functional.eval_J.s": (s("functional.eval_J"), "s"),
        "cli.parse_config.calls": (n("cli.parse_config"), "count"),
        "cli.parse_config.s": (s("cli.parse_config"), "s"),
        "cli.render_config.calls": (n("cli.render_config"), "count"),
        "cli.render_config.s": (s("cli.render_config"), "s"),
        "cli.self.s": (own["cli.main"] / rounds, "s"),
        "solver.splu.calls": (n("solver.splu"), "count"),
        "solver.splu.s": (s("solver.splu"), "s"),
        "solver.solve_outer.calls": (n("solver.solve_outer"), "count"),
        "solver.solve_outer.s": (s("solver.solve_outer"), "s"),
        "solver.self.s": (own["solver.solve_outer"] / rounds, "s"),
        "functional.eval_JM.calls": (n("functional.eval_JM"), "count"),
        "functional.eval_JM.s": (s("functional.eval_JM"), "s"),
        "functional.residual.calls": (n("functional.residual"), "count"),
        "functional.residual.s": (s("functional.residual"), "s"),
        "functional.quad_points": (
            counters.get("functional.quad_points", 0.0) / rounds, "count"),
        "solver.iterations": (
            counters.get("solver.iterations", 0.0) / rounds, "count"),
        "solver.accept_ratio": (
            counters.get("solver.iterations", 0.0) / jm_calls if jm_calls
            else 0.0, "ratio"),
        "functional.certify.s": (s("functional.certify"), "s"),
        "grid.build.s": (s("grid.build_interval_grid", "grid.build_rect_grid"),
                         "s"),
        "library.make.s": (s("library.make_integrand", "library.make_coefficient",
                             "library.make_library_datum"), "s"),
        "counterexample.divergence_report.s": (
            s("counterexample.divergence_report"), "s"),
        "counterexample.quadrature.calls": (n(*quadrature), "count"),
        "counterexample.quadrature.s": (s(*quadrature), "s"),
    }
