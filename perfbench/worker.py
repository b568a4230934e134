"""One workload process: import varlab once, then run whole rounds.

Started by run.py in a fresh process with one BLAS/OpenMP thread.  Modes:

setup    import ``varlab.cli``, write the inputs, record the time, exit
measure  the same, then untraced rounds until ``--seconds`` of timed work
trace    the same, then untraced and traced rounds in pairs

Every command goes through ``varlab.cli.main(argv)``.  A round's output
goes under ``--work``; the first round's is kept for run.py's checks, the
others are hashed and removed outside the timed region.  The result is a
JSON file at ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS


def write_inputs(ops, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = directory / f"{op.label}.yaml"
        path.write_text(op.config)
        paths.append(str(path))
    return paths


def artifact_facts(out: Path) -> dict:
    """Bytes written by kind, a digest of every file, and sweep point codes."""
    digest = hashlib.sha256()
    sizes = {"csv": 0, "json": 0, "all": 0}
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            digest.update(b"\0")
            size = path.stat().st_size
            sizes["all"] += size
            kind = path.suffix.lstrip(".")
            if kind in sizes:
                sizes[kind] += size
    point_codes = []
    matrix = out / "sweep_matrix.csv"
    if matrix.is_file():
        with open(matrix, newline="") as fh:
            point_codes = [int(row["exit_status"]) for row in csv.DictReader(fh)]
    return {"csv_bytes": sizes["csv"], "json_bytes": sizes["json"],
            "bytes": sizes["all"], "digest": digest.hexdigest(),
            "point_codes": point_codes}


def run_round(cli, ops, configs, seed: int, out_root: Path, keep: bool) -> list:
    records = []
    for op, config in zip(ops, configs):
        out = out_root / op.label
        argv = [op.subcommand, "--config", config, "--out", str(out),
                "--seed", str(seed)]
        if op.subcommand == "sweep":
            argv += ["--jobs", "1"]
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a program fault: counted as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        records.append({"label": op.label, "seconds": seconds, "code": code,
                        "error": error, **artifact_facts(out)})
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a trace run writes its spans")
    args = parser.parse_args(argv)

    import varlab.cli as cli

    ops = WORKLOADS[args.workload]
    work = Path(args.work)
    configs = write_inputs(ops, work / "inputs")
    result = {"ready": time.monotonic(), "rounds": []}

    if args.mode != "setup":
        tracer = tracing.Tracer()
        missing: list = []
        elapsed = 0.0
        index = 0
        # a trace run ends on a traced round, so it always has a pair
        while (index == 0 or elapsed < args.seconds
               or (args.mode == "trace" and index % 2 == 1)):
            traced = args.mode == "trace" and index % 2 == 1
            context = (tracing.installed(tracer, missing) if traced
                       else contextlib.nullcontext())
            with context:
                records = run_round(cli, ops, configs, args.seed,
                                    work / f"round{index}", keep=index == 0)
            elapsed += sum(r["seconds"] for r in records)
            result["rounds"].append({"traced": traced, "ops": records})
            index += 1
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.mode == "trace":
            traced_rounds = index // 2
            result["layers"] = tracing.layer_metrics(
                tracer.spans, tracer.counters, traced_rounds)
            result["spans_per_round"] = len(tracer.spans) / traced_rounds
            result["missing_bindings"] = sorted(set(missing))
            tracing.write_spans(tracer.spans, args.spans)

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
