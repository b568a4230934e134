"""The benchmark's view of the program.

``perfbench/tracing.py`` times each layer by replacing a varlab function at
the binding its caller uses.  A binding that no longer exists is skipped and
its metrics read 0, so a rename in ``src/`` silently blinds a layer of the
benchmark.  These tests fail on such a rename instead.
"""

import importlib.util
from pathlib import Path

import varlab.cli as cli
from varlab.functional import ProblemSpec
from varlab.grid import build_interval_grid, build_rect_grid
from varlab.library import make_coefficient, make_integrand, make_library_datum
from varlab.solver import Preconditioner

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

#: Known stale: these quadrature helpers were folded into
#: counterexample._converged_shells, so the witness's quadrature metrics read
#: 0.  Rebinding them changes perfbench itself, which is the benchmark repair
#: of ROADMAP item 1; until then they are left out here.
STALE = {f"varlab.counterexample.{fn}" for fn in tracing._QUADRATURE}


def test_every_traced_binding_resolves():
    modules = {module for module, *_ in tracing._bindings()}
    assert {"varlab.cli", "varlab.solver", "varlab.functional",
            "varlab.auditor"} <= modules
    missing = []
    with tracing.installed(tracing.Tracer(), missing):
        pass
    # varlab.solver.spla (the 2D factorization) is reported here too
    assert set(missing) - STALE == set()


def test_iteration_counter_reads_a_solve_trace():
    grid = build_interval_grid(0.0, 1.0, 8)
    spec = ProblemSpec(grid=grid, integrand=make_integrand("logaug"),
                       b=make_coefficient(grid, "constant", {"value": 1.0}),
                       f=make_library_datum(grid, "sine"),
                       solver_tol=1e-8, max_iter=200)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, trace = cli.solve_outer(spec)
    iterations = sum(rec.iterations for stage in trace.stages
                     for rec in stage.inner.records)
    assert iterations > 0
    assert tracer.counters["solver.iterations"] == iterations
    assert [span[2] for span in tracer.spans].count("solver.solve_outer") == 1


def test_factorization_spans_match_the_factor_count(monkeypatch):
    # solver.spla is bound by name and imported at first use; the traced
    # view must still see every 2D factorization
    factors = []
    factor = Preconditioner.factor

    def counted(self, damp):
        factors.append(damp)
        return factor(self, damp)

    monkeypatch.setattr(Preconditioner, "factor", counted)
    grid = build_rect_grid(4, 4, 1.0, 1.0)
    spec = ProblemSpec(grid=grid, integrand=make_integrand("logaug"),
                       b=make_coefficient(grid, "constant", {"value": 1.0}),
                       f=make_library_datum(grid, "constant"),
                       solver_tol=1e-8, max_iter=200)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        cli.solve_outer(spec)
    assert len(factors) >= 1
    assert [span[2] for span in tracer.spans].count("solver.splu") \
        == len(factors)
