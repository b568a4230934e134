"""Run one benchmark workload of varlab and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Run from the root of a varlab source tree (the code is imported from
``src/``; nothing is installed).  Each workload runs in fresh worker
processes (worker.py) with BLAS/OpenMP pools at one thread.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Output
files go under ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import summarize
from workloads import WORKLOADS, count_outcome

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4            # extra set-ups; setup_s is the median of five
TIME_LIMIT_S = 170.0        # the whole run, including every worker
MIB = float(1 << 20)
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(root: Path, args, mode: str, work: Path, deadline: float,
          spans: Path = None) -> dict:
    """Run one worker process to its end; return its result with setup_s."""
    result = work / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--work", str(work / result.stem), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    try:
        # the worker's stdout goes to stderr: this process's last stdout
        # line is the result
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    data = json.loads(result.read_text())
    data["setup_s"] = data["ready"] - spawned
    data["work"] = str(work / result.stem)
    return data


def code_digest(root: Path) -> str:
    """Digest of the program and the workload definitions."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "varlab").rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def verify(ops, rounds, round0: Path, record: Path) -> tuple:
    """(attempted, failed, problems) over every round, with output checks
    on the first round and artifact digests compared across rounds and
    across runs of the same code and seed."""
    from checks import CHECKS   # numpy/scipy: loaded after the workers end

    by_label = {op.label: op for op in ops}
    first = {rec["label"]: rec for rec in rounds[0]["ops"]}
    attempted = failed = 0
    problems = []
    for rnd in rounds:
        for rec in rnd["ops"]:
            op = by_label[rec["label"]]
            a, f = count_outcome(op, rec["code"], rec["point_codes"])
            attempted += a
            failed += f
            if f and op.known_fault is None:
                problems.append(f"{op.label}: {f} of {a} failed "
                                f"({rec['error'] or 'exit ' + str(rec['code'])})")
            if rec["digest"] != first[op.label]["digest"]:
                problems.append(f"{op.label}: artifacts differ between rounds")
    for op in ops:
        rec = first[op.label]
        if count_outcome(op, rec["code"], rec["point_codes"])[1] == 0:
            try:
                found = CHECKS[op.check](op, round0 / op.label)
            except (OSError, ValueError, KeyError) as exc:
                found = [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
            problems += [f"{op.label}: {p}" for p in found]
    digests = {label: rec["digest"] for label, rec in first.items()}
    if record.is_file():
        earlier = json.loads(record.read_text())
        problems += [f"{label}: artifacts differ from an earlier run of this "
                     f"code and seed" for label in digests
                     if earlier.get(label) != digests[label]]
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return attempted, failed, problems


def pass_seconds(rnd) -> float:
    return sum(rec["seconds"] for rec in rnd["ops"])


def end_to_end(ops, result, setups) -> dict:
    by_label = {op.label: op for op in ops}
    rounds = result["rounds"]
    rates = []
    for rnd in rounds:
        work = 0
        for rec in rnd["ops"]:
            op = by_label[rec["label"]]
            a, f = count_outcome(op, rec["code"], rec["point_codes"])
            work += (a - f) * op.work
        rates.append(work / pass_seconds(rnd))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(pass_seconds(r) for r in rounds), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "artifact_mib": (statistics.median(
            sum(rec["bytes"] for rec in r["ops"]) for r in rounds) / MIB, "MiB"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
    }


def per_layer(result) -> dict:
    rounds = result["rounds"]
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    metrics = {name: tuple(v) for name, v in result["layers"].items()}
    for kind in ("csv", "json"):
        metrics[f"cli.{kind}_mib"] = (statistics.median(
            sum(rec[f"{kind}_bytes"] for rec in r["ops"]) for r in traced) / MIB,
            "MiB")
    plain = statistics.median(pass_seconds(r) for r in untraced)
    overhead = statistics.median(pass_seconds(r) for r in traced) - plain
    metrics["trace.spans"] = (result["spans_per_round"], "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain, "%")
    return metrics


def report(args, ops, result, setups, metrics, attempted, failed, problems):
    rounds = result["rounds"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  attempted {attempted}  failed {failed}")
    if setups:
        print(f"  set-up samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
    print("  pass times (s): " + " ".join(
        f"{pass_seconds(r):.4f}{'t' if r['traced'] else ''}" for r in rounds)
        + ("  (t: traced)" if args.trace else ""))
    for op in ops:
        recs = [rec for r in rounds for rec in r["ops"] if rec["label"] == op.label]
        times = summarize([rec["seconds"] for rec in recs])
        tail = "".join(f"  {k} {v:.4f} s" for k, v in times.items()
                       if k not in ("n", "median"))
        print(f"  {op.label:<18} median {times['median']:.4f} s (n={times['n']})"
              f"{tail}  exit {recs[0]['code']}"
              + (f"  known fault: {op.known_fault}" if op.known_fault else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:.6g} {unit}")
    for bind in result.get("missing_bindings", []):
        print(f"  trace: binding {bind} not found; its metrics read 0")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    print(f"  checks: {'pass' if not problems else 'FAIL'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "varlab" / "cli.py").is_file():
        print("perfbench: no varlab source tree here (src/varlab/cli.py); "
              "run from the repository root", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload]
    out = root / ".perfbench"
    work = out / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = out / "trace" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            result = spawn(root, args, "trace", work, deadline, spans)
            setups = []
        else:
            setups = [spawn(root, args, "setup", work, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = spawn(root, args, "measure", work, deadline)
            setups.append(result["setup_s"])
        round0 = Path(result["work"]) / "round0"
        record = (out / "digests" /
                  f"{args.workload}-seed{args.seed}-{code_digest(root)}.json")
        attempted, failed, problems = verify(ops, result["rounds"], round0, record)
        metrics = per_layer(result) if args.trace else end_to_end(ops, result, setups)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args, ops, result, setups, metrics, attempted, failed, problems)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
