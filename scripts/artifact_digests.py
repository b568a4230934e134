#!/usr/bin/env python3
"""Print a sha256 manifest of the artifacts of a fixed set of varlab runs.

The set is the one a change that keeps iterates and tables bit for bit
must leave unchanged:

  - the perfbench sweep config (12 audited points) at seeds 1, 2 and 3;
  - the default 48-point `varlab sweep` at seed 4 with two worker
    processes (`--jobs 2`);
  - the default `varlab audit`;
  - a `varlab audit` of the constant datum 20, whose solution rises to
    about 19.5, far above the clamp levels of the other runs;
  - a 2D 24x24 `varlab audit`;
  - the smallest accepted domains, a 1D 2-cell and a 2D 2x2 `varlab
    audit`, whose one interior node leaves the preconditioner only its
    boundary identity and a single interior diagonal entry;
  - a 1D 4-cell `varlab audit` of length 1e-300, on which ∫|∇v| and the
    damped integral of every coercivity sample overflow: its chain and
    TESTCLASS fail with a NaN right-hand side, and it exits 2 without a
    warning;
  - a linear 1D `varlab solve` (quadratic integrand, zero coefficient,
    constant datum) at 2·10⁵ cells without the solution CSV, where a
    decrease test that shrinks with the mesh stops converging in one step;
  - a damped 2D 64x64 `varlab solve` (logaug integrand, constant
    coefficient 1, constant datum 20), whose stage refactors the
    preconditioner as its damping weights fall;
  - a damped 2D 32x32 `varlab solve` (logaug integrand, constant
    coefficient 1, power-singularity datum), whose five outer stages
    share one preconditioner factor;
  - the default `varlab counterexample`, and the three deep tables
    (dimension, rho, n_max) = (3, 1/4, 300), (5, 1/2, 330) and (8, 1, 335);
  - `varlab counterexample` at (3, 1/4, 350), whose damped integrand
    overflows: it exits 3 and writes no file;
  - the small-rho witnesses (3, 0.0009, 1), (3, 0.0015, 1) and
    (3, 0.01, 350): each exits 3, and its standard error line names the
    integral and level that did not settle ('w11' level 1, 'damped'
    level 1, and 'w11' level 187, the one failure of the first shell
    column in the middle of a table);
  - the default `varlab certify`, and one that adds the quadratic
    integrand at scale 2;
  - each `configs/*.yaml`, run as the subcommand it names.

Each run writes into its own directory of a temporary tree, which is
removed at the end. The output is one `sha256  run/path` line per
artifact, sorted by path, so two trees compare with one `diff`:

    python scripts/artifact_digests.py > after.txt
    (cd ../parent && python scripts/artifact_digests.py) > before.txt
    diff before.txt after.txt

The script imports varlab and perfbench from the tree it sits in. Each
run's exit code goes to standard error, after any message the run itself
prints there (a witness that does not settle names its integral and
level), followed by one line per audited
report it wrote (each sweep point and each audit run): the report's exit
code and its `estimates_failed` list. A change that moves bits must keep
that stream unchanged, so the verdicts of two trees compare with a second
`diff` of their standard error:

    python scripts/artifact_digests.py > after.txt 2> after.err
    diff before.err after.err
"""

import hashlib
import json
import os
import sys
import tempfile

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import SWEEP_CONFIG  # noqa: E402
from varlab.cli import main as cli_main  # noqa: E402

AUDIT_2D = ("subcommand: audit\n"
            "domain: {dimension: 2, x_cells: 24, y_cells: 24}\n")
AUDIT_1D_2 = ("subcommand: audit\n"
              "domain: {dimension: 1, cells: 2}\n")
AUDIT_2D_2 = ("subcommand: audit\n"
              "domain: {dimension: 2, x_cells: 2, y_cells: 2}\n")
AUDIT_1D_TINY = ("subcommand: audit\n"
                 "domain: {dimension: 1, cells: 4, length: 1e-300}\n")
AUDIT_CONSTANT20 = ("subcommand: audit\n"
                    "datum: {kind: constant, params: {value: 20}}\n")
SOLVE_LINEAR_200K = ("subcommand: solve\n"
                     "domain: {dimension: 1, cells: 200000}\n"
                     "integrand: {kind: quadratic}\n"
                     "coefficient: {kind: zero}\n"
                     "datum: {kind: constant}\n"
                     "output: {csv: false}\n")
SOLVE_2D_CONSTANT20 = ("subcommand: solve\n"
                       "domain: {dimension: 2, x_cells: 64, y_cells: 64}\n"
                       "integrand: {kind: logaug}\n"
                       "coefficient: {kind: constant, params: {value: 1}}\n"
                       "datum: {kind: constant, params: {value: 20}}\n")
SOLVE_2D_SINGULAR = ("subcommand: solve\n"
                     "domain: {dimension: 2, x_cells: 32, y_cells: 32}\n"
                     "integrand: {kind: logaug}\n"
                     "coefficient: {kind: constant, params: {value: 1}}\n"
                     "datum: {kind: power-singularity}\n")
CERTIFY_SCALED = ("subcommand: certify\n"
                  "integrand: {kind: quadratic, params: {scale: 2}}\n")
DEEP_WITNESSES = ((3, 0.25, 300), (5, 0.5, 330), (8, 1.0, 335),
                  (3, 0.25, 350))
SMALL_RHO_WITNESSES = ((3, 0.0009, 1), (3, 0.0015, 1), (3, 0.01, 350))


def runs() -> list:
    """(run name, subcommand, config text or None, extra arguments)."""
    out = [(f"sweep-seed{seed}", "sweep", SWEEP_CONFIG, ["--seed", str(seed)])
           for seed in (1, 2, 3)]
    out += [("sweep-default-jobs2", "sweep", None,
             ["--jobs", "2", "--seed", "4"]),
            ("audit-default", "audit", None, []),
            ("audit-constant20", "audit", AUDIT_CONSTANT20, []),
            ("audit-2d-24", "audit", AUDIT_2D, []),
            ("audit-1d-2", "audit", AUDIT_1D_2, []),
            ("audit-2d-2", "audit", AUDIT_2D_2, []),
            ("audit-1d-tiny", "audit", AUDIT_1D_TINY, []),
            ("solve-linear-200k", "solve", SOLVE_LINEAR_200K, []),
            ("solve-2d-64-constant20", "solve", SOLVE_2D_CONSTANT20, []),
            ("solve-2d-32-singular", "solve", SOLVE_2D_SINGULAR, []),
            ("counterexample-default", "counterexample", None, [])]
    out += [(f"counterexample-d{dim}-rho{rho:g}-n{n_max}", "counterexample",
             f"subcommand: counterexample\ncounterexample: {{dimension: {dim}, "
             f"rho: {rho}, n_max: {n_max}}}\n", [])
            for dim, rho, n_max in DEEP_WITNESSES + SMALL_RHO_WITNESSES]
    out += [("certify-default", "certify", None, []),
            ("certify-scale2", "certify", CERTIFY_SCALED, [])]
    configs = os.path.join(ROOT, "configs")
    for name in sorted(os.listdir(configs)):
        if name.endswith(".yaml"):
            with open(os.path.join(configs, name)) as fh:
                text = fh.read()
            out.append((f"configs-{name[:-5]}",
                        yaml.safe_load(text)["subcommand"], text, []))
    return out


def manifest(directory: str) -> list:
    """`sha256  relative/path` for every file under `directory`, by path."""
    lines = []
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, directory).replace(os.sep, "/"),
                          digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def verdicts(name: str, directory: str) -> list:
    """`run/dir: exit N failed [...]` for every audited report, by path."""
    lines = []
    for base, _, files in os.walk(directory):
        if "report.json" not in files:
            continue
        with open(os.path.join(base, "report.json")) as fh:
            report = json.load(fh)
        if "estimates_failed" in report:
            rel = os.path.relpath(base, directory).replace(os.sep, "/")
            lines.append(f"{name}/{rel}: exit {report['exit_status']} "
                         f"failed {report['estimates_failed']}")
    return sorted(lines)


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        inputs, outputs = os.path.join(work, "in"), os.path.join(work, "out")
        os.makedirs(inputs)
        for name, subcommand, text, extra in runs():
            argv = [subcommand, "--out", os.path.join(outputs, name), *extra]
            if text is not None:
                config = os.path.join(inputs, name + ".yaml")
                with open(config, "w") as fh:
                    fh.write(text)
                argv += ["--config", config]
            print(f"{name}: exit {cli_main(argv)}", file=sys.stderr)
            for line in verdicts(name, os.path.join(outputs, name)):
                print(line, file=sys.stderr)
        lines = manifest(outputs)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
