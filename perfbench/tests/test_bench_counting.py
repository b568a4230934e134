"""Counting attempted and failed operations."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from workloads import WORKLOADS, Operation, count_outcome  # noqa: E402

SWEEP = Operation("s", "sweep", "", "sweep", units=12)
SOLVE = Operation("x", "solve", "", "damped")


def test_single_command_counts_one():
    assert count_outcome(SOLVE, 0, []) == (1, 0)
    assert count_outcome(SOLVE, 2, []) == (1, 1)
    assert count_outcome(SOLVE, None, []) == (1, 1)   # raised


def test_sweep_counts_each_point_from_its_matrix():
    assert count_outcome(SWEEP, 0, [0] * 12) == (12, 0)
    assert count_outcome(SWEEP, 2, [0] * 10 + [2, 3]) == (12, 2)


def test_sweep_without_a_full_matrix_failed_entirely():
    assert count_outcome(SWEEP, None, []) == (12, 12)
    assert count_outcome(SWEEP, 0, [0] * 11) == (12, 12)


def test_failed_share_is_fixed_by_the_round():
    # every round attempts the same operations, so the failed share is the
    # same whatever the number of rounds
    ops = WORKLOADS["witness"]
    per_round = [count_outcome(op, None if op.known_fault else 0, [])
                 for op in ops]
    attempted = sum(a for a, _ in per_round)
    failed = sum(f for _, f in per_round)
    assert (attempted, failed) == (5, 1)
    for rounds in (1, 3, 7):
        assert (failed * rounds) / (attempted * rounds) == failed / attempted


def test_workload_labels_are_unique():
    for ops in WORKLOADS.values():
        labels = [op.label for op in ops]
        assert len(labels) == len(set(labels))
