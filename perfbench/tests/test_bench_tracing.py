"""Self-time arithmetic and span recording of the traced run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Tracer, covered, layer_metrics, self_times  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered([(5.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == 2.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(1.0, 5.0), (2.0, 3.0)], 0.0, 10.0) == 4.0


def test_self_time_subtracts_direct_children_only():
    # 0: root [0, 10]; 1: child [1, 4]; 2: grandchild [2, 3]; 3: child [6, 7]
    spans = [[0, None, "cli.main", 0.0, 10.0],
             [1, 0, "solver.solve_outer", 1.0, 4.0],
             [2, 1, "functional.eval_JM", 2.0, 3.0],
             [3, 0, "cli.parse_config", 6.0, 7.0]]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_layer_metrics_are_per_round_and_use_self_time():
    spans = [[0, None, "cli.main", 0.0, 10.0],
             [1, 0, "solver.solve_outer", 1.0, 4.0],
             [2, 1, "functional.eval_JM", 2.0, 3.0],
             [3, 1, "solver.splu", 3.0, 3.5],
             [4, None, "cli.main", 20.0, 22.0]]
    counters = {"solver.iterations": 4.0, "functional.quad_points": 100.0}
    m = layer_metrics(spans, counters, rounds=2)
    assert m["cli.self.s"] == (pytest.approx((7.0 + 2.0) / 2), "s")
    assert m["solver.solve_outer.s"] == (pytest.approx(1.5), "s")
    assert m["solver.self.s"] == (pytest.approx(0.75), "s")
    assert m["solver.splu.calls"] == (0.5, "count")
    assert m["functional.eval_JM.calls"] == (0.5, "count")
    assert m["solver.iterations"] == (2.0, "count")
    assert m["functional.quad_points"] == (50.0, "count")
    # iterations per eval_JM call, not per round
    assert m["solver.accept_ratio"] == (4.0, "ratio")
    assert m["counterexample.quadrature.calls"] == (0.0, "count")


def test_tracer_records_parent_ids_and_closes_spans_on_error():
    tracer = Tracer()

    def inner():
        raise RuntimeError("boom")

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        try:
            traced_inner()
        except RuntimeError:
            pass
        return 7

    counts = []
    assert tracer.wrap("outer", outer,
                       count=lambda c, a, r: counts.append(r))() == 7
    (o_id, o_parent, o_name, o_start, o_end), (i_id, i_parent, i_name, i_start, i_end) = tracer.spans
    assert (o_name, o_parent) == ("outer", None)
    assert (i_name, i_parent) == ("inner", o_id)
    assert o_start <= i_start <= i_end <= o_end
    assert counts == [7]
