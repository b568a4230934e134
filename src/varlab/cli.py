"""Command-line front end: config parsing, artifact writing, exit discipline.

Subcommands
-----------
solve           minimize and write the solution/energy traces
audit           solve, then run the full estimate battery and minimality check
counterexample  tabulate the radial divergence witness
sweep           Cartesian product of integrand/coefficient/datum lists
certify         randomized admissibility checks for the built-in integrands

Exit codes: 0 success, 1 usage or I/O error, 2 audit failure,
3 non-converged stage (takes precedence over 2).

Determinism contract: a config document plus a seed fully determines every
artifact byte.  JSON is emitted by a deterministic writer (sorted keys,
floats at 17 significant digits, non-finite values as the strings "inf",
"-inf", "nan"); no timestamps or absolute paths appear in any artifact.
The artifact directory itself is a command-line concern (``--out``), never
part of the config document.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Tuple

import numpy as np
import yaml

from .auditor import audit_battery
from .counterexample import DivergenceReport, divergence_report
from .functional import ProblemSpec, certify
from .grid import Grid, build_interval_grid, build_rect_grid
from .library import (COEFFICIENTS, DATA, INTEGRANDS, make_coefficient,
                      make_integrand, make_library_datum)
from .solver import SolveTrace, minimality_check, solve_outer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT_FAIL = 2
EXIT_NOT_CONVERGED = 3

SUBCOMMANDS = ("solve", "audit", "counterexample", "sweep", "certify")
SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Raised for any malformed, unknown, or out-of-range config content."""


# ----------------------------------------------------------- config model


@dataclass(frozen=True)
class DomainConfig:
    dimension: int = 1
    cells: int = 128
    length: float = 1.0
    x_cells: int = 16
    y_cells: int = 16
    lx: float = 1.0
    ly: float = 1.0


@dataclass(frozen=True)
class ComponentConfig:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 50000
    m_schedule: Optional[tuple] = None
    n_schedule: Optional[tuple] = None


@dataclass(frozen=True)
class CounterexampleConfig:
    dimension: int = 3
    rho: float = 0.25
    n_max: int = 12
    quad_points: int = 512


@dataclass(frozen=True)
class AuditConfig:
    coercivity_samples: int = 200
    minimality_samples: int = 50


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."
    csv: bool = True
    json: bool = True


def _default_sweep_integrands():
    return (ComponentConfig("quadratic"), ComponentConfig("anisotropic"),
            ComponentConfig("logaug"))


def _default_sweep_coefficients():
    return (ComponentConfig("zero"), ComponentConfig("constant", {"value": 1.0}),
            ComponentConfig("step"), ComponentConfig("smooth-bump"))


def _default_sweep_data():
    return (ComponentConfig("constant", {"value": 1.0}), ComponentConfig("sine"),
            ComponentConfig("power-singularity"), ComponentConfig("step"))


@dataclass(frozen=True)
class SweepConfig:
    integrands: tuple = field(default_factory=_default_sweep_integrands)
    coefficients: tuple = field(default_factory=_default_sweep_coefficients)
    data: tuple = field(default_factory=_default_sweep_data)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    domain: DomainConfig = field(default_factory=DomainConfig)
    integrand: ComponentConfig = field(
        default_factory=lambda: ComponentConfig("quadratic"))
    coefficient: ComponentConfig = field(
        default_factory=lambda: ComponentConfig("constant", {"value": 1.0}))
    datum: ComponentConfig = field(
        default_factory=lambda: ComponentConfig("sine"))
    solver: SolverConfig = field(default_factory=SolverConfig)
    counterexample: CounterexampleConfig = field(
        default_factory=CounterexampleConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0


# ------------------------------------------------------------ parse helpers


def _known(keys) -> str:
    return ", ".join(sorted(keys))


def _expect_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, known, where: str):
    for key in mapping:
        if key not in known:
            scope = f" under '{where}'" if where else ""
            raise ConfigError(
                f"unknown key '{where + '.' if where else ''}{key}'; "
                f"known keys{scope}: {_known(known)}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"expected integer for '{where}', got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    # YAML 1.1 resolves exponent literals without a dot ("1e-8") as strings;
    # accept any string that parses as a number rather than punish the user.
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(
                f"expected number for '{where}', got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected number for '{where}', got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"expected finite number for '{where}', got {value!r}")
    return out


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected boolean for '{where}', got {value!r}")
    return value


def _as_schedule(value, where: str) -> Optional[tuple]:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(
            f"'{where}' must be null or a non-empty list of numbers, got {value!r}")
    levels = tuple(_as_float(v, where) for v in value)
    if any(v <= 0 for v in levels):
        raise ConfigError(f"'{where}' levels must be positive, got {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"'{where}' must be strictly increasing, got {levels}")
    return levels


def _as_component(value, registry: dict, where: str) -> ComponentConfig:
    mapping = _expect_mapping(value, where)
    _check_keys(mapping, ("kind", "params"), where)
    if "kind" not in mapping:
        raise ConfigError(f"'{where}' needs a 'kind'; known kinds: "
                          f"{_known(registry)}")
    kind = mapping["kind"]
    if kind not in registry:
        raise ConfigError(
            f"unknown kind '{kind}' for '{where}'; known kinds: {_known(registry)}")
    params = _expect_mapping(mapping.get("params"), f"{where}.params")
    for key in params:
        if not isinstance(key, str):
            raise ConfigError(f"'{where}.params' keys must be strings, got {key!r}")
    return ComponentConfig(kind=kind, params=dict(params))


def _parse_domain(value) -> DomainConfig:
    mapping = _expect_mapping(value, "domain")
    known = ("dimension", "cells", "length", "x_cells", "y_cells", "lx", "ly")
    _check_keys(mapping, known, "domain")
    out = DomainConfig(
        dimension=_as_int(mapping.get("dimension", 1), "domain.dimension"),
        cells=_as_int(mapping.get("cells", 128), "domain.cells"),
        length=_as_float(mapping.get("length", 1.0), "domain.length"),
        x_cells=_as_int(mapping.get("x_cells", 16), "domain.x_cells"),
        y_cells=_as_int(mapping.get("y_cells", 16), "domain.y_cells"),
        lx=_as_float(mapping.get("lx", 1.0), "domain.lx"),
        ly=_as_float(mapping.get("ly", 1.0), "domain.ly"))
    if out.dimension not in (1, 2):
        raise ConfigError(f"'domain.dimension' must be 1 or 2, got {out.dimension}")
    meshed = ("cells",) if out.dimension == 1 else ("x_cells", "y_cells")
    for name in ("cells", "x_cells", "y_cells"):
        value = getattr(out, name)
        if name in meshed and value < 2:
            raise ConfigError(
                f"'domain.{name}' must be >= 2 so that the {out.dimension}D "
                f"mesh has an interior node, got {value}")
        if value < 1:
            raise ConfigError(f"'domain.{name}' must be >= 1, got {value}")
    for name in ("length", "lx", "ly"):
        if getattr(out, name) <= 0:
            raise ConfigError(f"'domain.{name}' must be positive")
    return out


def _parse_solver(value) -> SolverConfig:
    mapping = _expect_mapping(value, "solver")
    _check_keys(mapping, ("tol", "max_iter", "m_schedule", "n_schedule"), "solver")
    tol = _as_float(mapping.get("tol", 1e-8), "solver.tol")
    if tol <= 0:
        raise ConfigError(f"'solver.tol' must be positive, got {tol}")
    max_iter = _as_int(mapping.get("max_iter", 50000), "solver.max_iter")
    if max_iter < 1:
        raise ConfigError(f"'solver.max_iter' must be >= 1, got {max_iter}")
    return SolverConfig(
        tol=tol, max_iter=max_iter,
        m_schedule=_as_schedule(mapping.get("m_schedule"), "solver.m_schedule"),
        n_schedule=_as_schedule(mapping.get("n_schedule"), "solver.n_schedule"))


def _parse_counterexample(value) -> CounterexampleConfig:
    mapping = _expect_mapping(value, "counterexample")
    _check_keys(mapping, ("dimension", "rho", "n_max", "quad_points"),
                "counterexample")
    dim = _as_int(mapping.get("dimension", 3), "counterexample.dimension")
    if dim <= 2:
        raise ConfigError(
            f"'counterexample.dimension' must be an integer > 2, got {dim}")
    rho = _as_float(mapping.get("rho", 0.25), "counterexample.rho")
    hi = (dim - 2) / 2.0
    if not (0 < rho < hi):
        raise ConfigError(
            f"'counterexample.rho' must lie in (0, {hi:g}) for dimension "
            f"{dim}, got {rho}")
    n_max = _as_int(mapping.get("n_max", 12), "counterexample.n_max")
    if n_max < 1:
        raise ConfigError(f"'counterexample.n_max' must be >= 1, got {n_max}")
    quad_points = _as_int(mapping.get("quad_points", 512),
                          "counterexample.quad_points")
    if quad_points < 100:
        raise ConfigError(
            f"'counterexample.quad_points' must be >= 100, got {quad_points}")
    return CounterexampleConfig(dimension=dim, rho=rho, n_max=n_max,
                                quad_points=quad_points)


def _parse_audit(value) -> AuditConfig:
    mapping = _expect_mapping(value, "audit")
    _check_keys(mapping, ("coercivity_samples", "minimality_samples"), "audit")
    out = AuditConfig(
        coercivity_samples=_as_int(mapping.get("coercivity_samples", 200),
                                   "audit.coercivity_samples"),
        minimality_samples=_as_int(mapping.get("minimality_samples", 50),
                                   "audit.minimality_samples"))
    if out.coercivity_samples < 1:
        raise ConfigError("'audit.coercivity_samples' must be >= 1")
    if out.minimality_samples < 1:
        raise ConfigError("'audit.minimality_samples' must be >= 1")
    return out


def _parse_output(value) -> OutputConfig:
    mapping = _expect_mapping(value, "output")
    _check_keys(mapping, ("csv", "json"), "output")
    return OutputConfig(
        csv=_as_bool(mapping.get("csv", True), "output.csv"),
        json=_as_bool(mapping.get("json", True), "output.json"))


def _parse_component_list(value, registry: dict, where: str, default) -> tuple:
    if value is None:
        return default
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{where}' must be a non-empty list")
    return tuple(_as_component(item, registry, f"{where}[{i}]")
                 for i, item in enumerate(value))


def _parse_sweep(value) -> SweepConfig:
    mapping = _expect_mapping(value, "sweep")
    _check_keys(mapping, ("integrands", "coefficients", "data"), "sweep")
    return SweepConfig(
        integrands=_parse_component_list(
            mapping.get("integrands"), INTEGRANDS, "sweep.integrands",
            _default_sweep_integrands()),
        coefficients=_parse_component_list(
            mapping.get("coefficients"), COEFFICIENTS, "sweep.coefficients",
            _default_sweep_coefficients()),
        data=_parse_component_list(
            mapping.get("data"), DATA, "sweep.data", _default_sweep_data()))


_TOP_KEYS = ("subcommand", "domain", "integrand", "coefficient", "datum",
             "solver", "counterexample", "sweep", "audit", "output", "seed")


def parse_config(text: str, default_subcommand: Optional[str] = None) -> RunConfig:
    """Parse a YAML config document into a fully-defaulted RunConfig.

    Unknown keys, unknown kinds, type mismatches, and out-of-range values
    are rejected with errors naming the offending field.  A minimal document
    naming only the subcommand parses to a fully-defaulted run.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    mapping = _expect_mapping(raw, "config")
    _check_keys(mapping, _TOP_KEYS, "")

    sub = mapping.get("subcommand", default_subcommand)
    if sub is None:
        raise ConfigError(
            f"missing 'subcommand'; known subcommands: {_known(SUBCOMMANDS)}")
    if sub not in SUBCOMMANDS:
        raise ConfigError(
            f"unknown subcommand '{sub}'; known subcommands: "
            f"{_known(SUBCOMMANDS)}")

    seed = _as_int(mapping.get("seed", 0), "seed")
    if not (0 <= seed < 2 ** 64):
        raise ConfigError(f"'seed' must fit in 64 unsigned bits, got {seed}")

    return RunConfig(
        subcommand=sub,
        domain=_parse_domain(mapping.get("domain")),
        integrand=_as_component(
            mapping.get("integrand", {"kind": "quadratic"}), INTEGRANDS,
            "integrand"),
        coefficient=_as_component(
            mapping.get("coefficient", {"kind": "constant",
                                        "params": {"value": 1.0}}),
            COEFFICIENTS, "coefficient"),
        datum=_as_component(
            mapping.get("datum", {"kind": "sine"}), DATA, "datum"),
        solver=_parse_solver(mapping.get("solver")),
        counterexample=_parse_counterexample(mapping.get("counterexample")),
        sweep=_parse_sweep(mapping.get("sweep")),
        audit=_parse_audit(mapping.get("audit")),
        output=_parse_output(mapping.get("output")),
        seed=seed)


def config_to_mapping(config: RunConfig) -> dict:
    """Plain-YAML mapping with every default materialized (echo document)."""
    def comp(c: ComponentConfig) -> dict:
        return {"kind": c.kind, "params": dict(c.params)}

    return {
        "subcommand": config.subcommand,
        "seed": config.seed,
        "domain": {
            "dimension": config.domain.dimension, "cells": config.domain.cells,
            "length": config.domain.length, "x_cells": config.domain.x_cells,
            "y_cells": config.domain.y_cells, "lx": config.domain.lx,
            "ly": config.domain.ly},
        "integrand": comp(config.integrand),
        "coefficient": comp(config.coefficient),
        "datum": comp(config.datum),
        "solver": {
            "tol": config.solver.tol, "max_iter": config.solver.max_iter,
            "m_schedule": (None if config.solver.m_schedule is None
                           else list(config.solver.m_schedule)),
            "n_schedule": (None if config.solver.n_schedule is None
                           else list(config.solver.n_schedule))},
        "counterexample": {
            "dimension": config.counterexample.dimension,
            "rho": config.counterexample.rho,
            "n_max": config.counterexample.n_max,
            "quad_points": config.counterexample.quad_points},
        "sweep": {
            "integrands": [comp(c) for c in config.sweep.integrands],
            "coefficients": [comp(c) for c in config.sweep.coefficients],
            "data": [comp(c) for c in config.sweep.data]},
        "audit": {
            "coercivity_samples": config.audit.coercivity_samples,
            "minimality_samples": config.audit.minimality_samples},
        "output": {"csv": config.output.csv, "json": config.output.json},
    }


def render_config(config: RunConfig) -> str:
    """Deterministic YAML text that parses back to an equal RunConfig."""
    return yaml.safe_dump(config_to_mapping(config), sort_keys=True,
                          default_flow_style=False)


# ------------------------------------------------- deterministic serializers


def _coerce(value):
    """Reduce numpy scalars/arrays and containers to plain Python values."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return [_coerce(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _float_token(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _json_text(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats,
    non-finite floats as strings — always valid JSON."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        return _float_token(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k), ensure_ascii=True)}: "
                 f"{_json_text(value[k], indent + 1)}"
                 for k in sorted(value, key=str)]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _write_text(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# --------------------------------------------------------- artifact writers


def _solution_rows(grid: Grid, trace: SolveTrace) -> Tuple[list, list]:
    dim = grid.nodes.shape[1]
    header = (["stage_index", "n_level", "node_index", "x", "value"] if dim == 1
              else ["stage_index", "n_level", "node_index", "x", "y", "value"])
    rows = []
    for si, stage in enumerate(trace.stages):
        for ni in range(grid.n_nodes):
            coords = [grid.nodes[ni, d] for d in range(dim)]
            rows.append([si, stage.n_level, ni, *coords,
                         stage.field.values[ni]])
    return header, rows


def _energy_rows(trace: SolveTrace) -> Tuple[list, list]:
    header = ["stage_index", "n_level", "m_level", "iteration", "energy"]
    rows = []
    for si, stage in enumerate(trace.stages):
        for rec in stage.inner.records:
            for it, energy in enumerate(rec.energy_history):
                rows.append([si, stage.n_level, rec.m_level, it, energy])
    return header, rows


_ESTIMATE_HEADER = ["estimate_id", "n", "M", "k", "lhs", "rhs", "slack",
                    "rhs_tight", "rel_tol", "abs_tol", "severity", "passed",
                    "note"]


def _estimate_rows(reports) -> list:
    rows = []
    for rep in reports:
        params = rep.params
        rows.append([
            rep.estimate_id,
            params.get("n"), params.get("M"), params.get("k"),
            rep.lhs, rep.rhs, rep.slack, params.get("rhs_tight"),
            rep.rel_tol, rep.abs_tol, rep.severity, rep.passed, rep.note])
    return rows


def _estimates_json(reports) -> dict:
    keyed: dict = {}
    for rep in reports:
        entry = {
            "lhs": _coerce(rep.lhs), "rhs": _coerce(rep.rhs),
            "slack": _coerce(rep.slack), "rel_tol": rep.rel_tol,
            "abs_tol": rep.abs_tol, "severity": rep.severity,
            "passed": rep.passed, "note": rep.note,
            "params": _coerce(rep.params)}
        keyed.setdefault(rep.estimate_id, []).append(entry)
    return keyed


def _counterexample_rows(rep: DivergenceReport) -> Tuple[list, list]:
    header = ["level", "radius", "w11_seminorm", "log_h1_seminorm",
              "damped_gradient", "square_mass", "amplitude_mass",
              "identity_rel_error"]
    rows = [[n, rep.r_values[i], rep.w11_values[i], rep.log_h1_values[i],
             rep.damped_grad_values[i], rep.square_mass_values[i],
             rep.amplitude_mass_values[i], rep.identity_rel_errors[i]]
            for i, n in enumerate(rep.levels)]
    return header, rows


# ------------------------------------------------------------ run pipeline


def _build_grid(dom: DomainConfig) -> Grid:
    if dom.dimension == 1:
        return build_interval_grid(0.0, dom.length, dom.cells)
    return build_rect_grid(dom.x_cells, dom.y_cells, dom.lx, dom.ly)


def _build_spec(config: RunConfig) -> ProblemSpec:
    grid = _build_grid(config.domain)
    return ProblemSpec(
        grid=grid,
        integrand=make_integrand(config.integrand.kind, config.integrand.params),
        b=make_coefficient(grid, config.coefficient.kind,
                           config.coefficient.params),
        f=make_library_datum(grid, config.datum.kind, config.datum.params),
        m_schedule=config.solver.m_schedule,
        n_schedule=config.solver.n_schedule,
        solver_tol=config.solver.tol,
        max_iter=config.solver.max_iter)


def _stage_summaries(trace: SolveTrace) -> list:
    out = []
    for stage in trace.stages:
        out.append({
            "n_level": stage.n_level,
            "energy": stage.energy,
            "m_levels": [rec.m_level for rec in stage.inner.records],
            "m_fixpoint_index": stage.inner.m_fixpoint_index,
            "iterations": [rec.iterations for rec in stage.inner.records],
            "converged": stage.inner.converged,
        })
    return out


def _emit(config: RunConfig, basename: str, report: dict,
          csv_files: Optional[dict] = None):
    directory = config.output.directory
    os.makedirs(directory, exist_ok=True)
    _write_text(os.path.join(directory, "config_echo.yaml"),
                render_config(config))
    if config.output.json:
        _write_text(os.path.join(directory, basename + ".json"),
                    _json_text(_coerce(report)))
    if config.output.csv and csv_files:
        for name, (header, rows) in csv_files.items():
            _write_csv(os.path.join(directory, name), header, rows)


def _run_solve(config: RunConfig, with_audit: bool) -> Tuple[int, dict]:
    spec = _build_spec(config)
    u, trace = solve_outer(spec)
    code = EXIT_OK if trace.converged else EXIT_NOT_CONVERGED

    report = {
        "schema": SCHEMA_VERSION,
        "subcommand": "audit" if with_audit else "solve",
        "seed": config.seed,
        "config": config_to_mapping(config),
        "converged": trace.converged,
        "stages": _stage_summaries(trace),
        "stabilization_l2": list(trace.stabilization_history),
    }
    csv_files = {
        "solution.csv": _solution_rows(spec.grid, trace),
        "energies.csv": _energy_rows(trace),
    }

    if with_audit:
        reports = audit_battery(spec, u, trace, seed=config.seed,
                                coercivity_samples=config.audit.coercivity_samples)
        minim = minimality_check(spec, u,
                                 n_samples=config.audit.minimality_samples,
                                 seed=config.seed)
        binding_failed = sorted({r.estimate_id for r in reports
                                 if not r.passed and r.severity == "binding"})
        if code == EXIT_OK and binding_failed:
            code = EXIT_AUDIT_FAIL
        report["estimates"] = _estimates_json(reports)
        report["estimates_total"] = len(reports)
        report["estimates_failed"] = binding_failed
        report["linf_passed"] = all(r.passed for r in reports
                                    if r.estimate_id == "LINF_BOUND")
        report["minimality"] = {
            "energy": minim.energy, "min_slack": minim.min_slack,
            "tolerance": minim.tolerance, "passed": minim.passed,
            "entries": len(minim.entries)}
        csv_files["estimates.csv"] = (_ESTIMATE_HEADER, _estimate_rows(reports))

    report["exit_status"] = code
    _emit(config, "report", report, csv_files)
    return code, report


def _run_counterexample(config: RunConfig) -> Tuple[int, dict]:
    ce = config.counterexample
    rep = divergence_report(ce.dimension, ce.rho, ce.n_max, ce.quad_points)
    code = EXIT_OK if rep.passed else EXIT_AUDIT_FAIL
    header, rows = _counterexample_rows(rep)
    report = {
        "schema": SCHEMA_VERSION,
        "subcommand": "counterexample",
        "seed": config.seed,
        "config": config_to_mapping(config),
        "dimension": rep.dimension, "rho": rep.rho,
        "levels": list(rep.levels),
        "w11_seminorms": list(rep.w11_values),
        "log_h1_seminorms": list(rep.log_h1_values),
        "damped_gradients": list(rep.damped_grad_values),
        "square_masses": list(rep.square_mass_values),
        "amplitude_masses": list(rep.amplitude_mass_values),
        "identity_rel_errors": list(rep.identity_rel_errors),
        "log_h1_limit": rep.log_h1_limit,
        "assertions": dict(rep.assertions),
        "passed": rep.passed,
        "exit_status": code,
    }
    _emit(config, "report", report, {"counterexample.csv": (header, rows)})
    return code, report


def _certify_entries(components, seed: int) -> list:
    entries = []
    seen = set()
    for comp in components:
        key = (comp.kind, tuple(sorted(comp.params.items())))
        if key in seen:
            continue
        seen.add(key)
        rep = certify(make_integrand(comp.kind, comp.params), seed=seed)
        entries.append({
            "kind": comp.kind, "params": dict(comp.params),
            "label": rep.label, "passed": rep.passed,
            "samples": rep.samples, "seed": rep.seed,
            "margins": dict(rep.margins),
            "violations": [dict(v) for v in rep.violations]})
    return entries


def _run_certify(config: RunConfig) -> Tuple[int, dict]:
    components = [ComponentConfig(kind) for kind in sorted(INTEGRANDS)]
    if config.integrand.params:
        components.append(config.integrand)
    entries = _certify_entries(components, config.seed)
    code = EXIT_OK if all(e["passed"] for e in entries) else EXIT_AUDIT_FAIL
    report = {
        "schema": SCHEMA_VERSION,
        "subcommand": "certify",
        "seed": config.seed,
        "config": config_to_mapping(config),
        "certifications": entries,
        "passed": code == EXIT_OK,
        "exit_status": code,
    }
    header = ["kind", "passed", "samples", "seed"]
    rows = [[e["kind"], e["passed"], e["samples"], e["seed"]] for e in entries]
    _emit(config, "report", report, {"certification.csv": (header, rows)})
    return code, report


def _component_label(comp: ComponentConfig) -> str:
    if not comp.params:
        return comp.kind
    inner = ",".join(f"{k}={comp.params[k]!r}" for k in sorted(comp.params))
    return f"{comp.kind}({inner})"


def _run_sweep(config: RunConfig, jobs: int = 1) -> Tuple[int, dict]:
    directory = config.output.directory
    os.makedirs(directory, exist_ok=True)

    certs = _certify_entries(config.sweep.integrands, config.seed)
    report = {
        "schema": SCHEMA_VERSION,
        "subcommand": "sweep",
        "seed": config.seed,
        "config": config_to_mapping(config),
        "certifications": certs,
    }
    matrix_header = ["point", "integrand", "coefficient", "datum", "converged",
                     "estimates_total", "estimates_failed", "failed_ids",
                     "linf_passed", "minimality_passed", "exit_status"]

    if not all(e["passed"] for e in certs):
        report.update({"points": [], "summary": {
            "points": 0, "audit_failures": 0, "non_converged": 0,
            "certification_failed": True}, "exit_status": EXIT_AUDIT_FAIL})
        _emit(config, "sweep_report", report,
              {"sweep_matrix.csv": (matrix_header, [])})
        return EXIT_AUDIT_FAIL, report

    points = []
    for ic in config.sweep.integrands:
        for cc in config.sweep.coefficients:
            for dc in config.sweep.data:
                points.append((ic, cc, dc))

    point_configs = [
        replace(config, subcommand="audit", integrand=ic, coefficient=cc,
                datum=dc, output=replace(config.output, directory=os.path.join(
                    directory, f"point_{index:03d}")))
        for index, (ic, cc, dc) in enumerate(points)]
    run_point = partial(_run_solve, with_audit=True)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_point, point_configs))
    else:
        results = [run_point(c) for c in point_configs]

    matrix_rows, point_entries = [], []
    non_converged = audit_failures = 0
    for index, (code, point_report) in enumerate(results):
        ic, cc, dc = points[index]
        failed = point_report.get("estimates_failed", [])
        if not point_report["converged"]:
            non_converged += 1
        if failed:
            audit_failures += 1
        matrix_rows.append([
            index, _component_label(ic), _component_label(cc),
            _component_label(dc), point_report["converged"],
            point_report.get("estimates_total", 0), len(failed),
            ";".join(failed), point_report.get("linf_passed", True),
            point_report.get("minimality", {}).get("passed", True), code])
        point_entries.append({
            "index": index, "integrand": _component_label(ic),
            "coefficient": _component_label(cc), "datum": _component_label(dc),
            "report": point_report})

    if non_converged:
        code = EXIT_NOT_CONVERGED
    elif audit_failures:
        code = EXIT_AUDIT_FAIL
    else:
        code = EXIT_OK
    report.update({
        "points": point_entries,
        "summary": {"points": len(points), "audit_failures": audit_failures,
                    "non_converged": non_converged,
                    "certification_failed": False},
        "exit_status": code})
    _emit(config, "sweep_report", report,
          {"sweep_matrix.csv": (matrix_header, matrix_rows)})
    return code, report


def run(config: RunConfig, jobs: int = 1) -> int:
    """Execute one subcommand, write its artifacts, return the exit code."""
    if config.subcommand == "solve":
        return _run_solve(config, with_audit=False)[0]
    if config.subcommand == "audit":
        return _run_solve(config, with_audit=True)[0]
    if config.subcommand == "counterexample":
        return _run_counterexample(config)[0]
    if config.subcommand == "sweep":
        return _run_sweep(config, jobs=jobs)[0]
    if config.subcommand == "certify":
        return _run_certify(config)[0]
    raise ConfigError(f"unknown subcommand '{config.subcommand}'")


# -------------------------------------------------------------- entry point


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="varlab",
        description="Discrete variational laboratory: clamped minimization "
                    "with a numerically audited estimate battery.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="YAML config document (defaults apply if omitted)")
        sp.add_argument("--out", default=None,
                        help="artifact directory (default: current directory)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        if name == "sweep":
            sp.add_argument("--jobs", type=int, default=1,
                            help="concurrent sweep points")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        if args.config is not None:
            with open(args.config, "r") as fh:
                text = fh.read()
        else:
            text = f"subcommand: {args.subcommand}\n"
        config = parse_config(text, default_subcommand=args.subcommand)
        if config.subcommand != args.subcommand:
            raise ConfigError(
                f"config names subcommand '{config.subcommand}' but the "
                f"command line says '{args.subcommand}'")
        if args.seed is not None:
            if not (0 <= args.seed < 2 ** 64):
                raise ConfigError(
                    f"'--seed' must fit in 64 unsigned bits, got {args.seed}")
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config,
                             output=replace(config.output, directory=args.out))
        jobs = getattr(args, "jobs", 1)
        if jobs < 1:
            raise ConfigError(f"'--jobs' must be >= 1, got {jobs}")
        return run(config, jobs=jobs)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"varlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
