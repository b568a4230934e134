"""Command-line front end: config parsing, artifact writing, exit discipline.

Subcommands
-----------
solve           minimize and write the solution/energy traces
audit           solve, then run the full estimate battery and minimality check
counterexample  tabulate the radial divergence witness
sweep           Cartesian product of integrand/coefficient/datum lists
certify         randomized admissibility checks for the built-in integrands

Exit codes: 0 success, 1 usage or I/O error, 2 audit failure,
3 non-converged stage (takes precedence over 2).  `_emit` derives the exit
status of every report; only usage errors and an unsettled witness, which
write no report, exit elsewhere.

Determinism contract: a config document plus a seed fully determines every
artifact byte.  JSON is written by the standard library's encoder (sorted
keys, two-space indent, ASCII escapes), with floats in their shortest
round-trip form (integral ones keep their ``.0``) and non-finite values as
the strings "inf", "-inf", "nan"; CSV cells keep floats at 17 significant
digits.  No timestamps or absolute paths appear in any artifact.
The artifact directory is not part of the config document: ``run(config,
directory)`` takes it as an argument, and the command line passes ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache, partial
from itertools import product, repeat
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .auditor import audit_battery, minimality_check
from .counterexample import (MAX_DIMENSION, MAX_LEVEL, MAX_QUAD_POINTS,
                             MIN_QUAD_POINTS, TABLE_COLUMNS, QuadratureError,
                             RadialProfile, divergence_report)
from .functional import ProblemSpec, certify, check_schedule
from .grid import Grid, build_interval_grid, build_rect_grid
from .library import (COEFFICIENTS, DATA, INTEGRANDS, make_coefficient,
                      make_integrand, make_library_datum, parameters)
from .solver import SolveTrace, solve_outer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT_FAIL = 2
EXIT_NOT_CONVERGED = 3

SUBCOMMANDS = ("solve", "audit", "counterexample", "sweep", "certify")
SCHEMA_VERSION = "4"


class ConfigError(ValueError):
    """Raised for any malformed, unknown, or out-of-range config content."""


# ----------------------------------------------------------- config model
#
# Each section is a frozen dataclass, and the fields are the one table of
# the config document: a field's default is the only default of its key,
# and its metadata holds the rules the parser applies to it.  Metadata keys:
#   min, max    inclusive bounds of a number
#   positive    the number must be > 0
#   choices     the allowed values
#   registry    the library registry of a component's kinds and params
#   rule        a domain function that checks (and may normalize) the value
# Rules across fields of one section live in its __post_init__.


def _key(default=MISSING, **rules):
    return field(default=default, metadata=rules)


@contextmanager
def _domain_rule(path: str):
    """Re-raise a domain object's ValueError as a ConfigError naming `path`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"'{path}': {exc}") from None


@dataclass(frozen=True)
class DomainConfig:
    dimension: int = _key(1, min=1, max=2)
    cells: int = _key(128, min=1)
    length: float = _key(1.0, positive=True)
    x_cells: int = _key(16, min=1)
    y_cells: int = _key(16, min=1)
    lx: float = _key(1.0, positive=True)
    ly: float = _key(1.0, positive=True)

    def __post_init__(self):
        for name in ("cells",) if self.dimension == 1 else ("x_cells", "y_cells"):
            value = getattr(self, name)
            if value < 2:
                raise ConfigError(
                    f"'domain.{name}' must be >= 2 so that the {self.dimension}D "
                    f"mesh has an interior node, got {value}")


@dataclass(frozen=True)
class ComponentConfig:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = _key(1e-8, positive=True)
    max_iter: int = _key(50000, min=1)
    n_schedule: Optional[Tuple[float, ...]] = _key(None, rule=check_schedule)


@dataclass(frozen=True)
class CounterexampleConfig:
    dimension: int = _key(3, min=3, max=MAX_DIMENSION)
    rho: float = _key(0.25)
    n_max: int = _key(12, min=1, max=MAX_LEVEL)
    quad_points: int = _key(512, min=MIN_QUAD_POINTS, max=MAX_QUAD_POINTS)

    def __post_init__(self):
        # the range of rho depends on the dimension
        with _domain_rule("counterexample.rho"):
            RadialProfile(self.dimension, self.rho, 0)


@dataclass(frozen=True)
class AuditConfig:
    coercivity_samples: int = _key(200, min=1)
    minimality_samples: int = _key(50, min=1)


@dataclass(frozen=True)
class OutputConfig:
    csv: bool = True


@dataclass(frozen=True)
class SweepConfig:
    integrands: Tuple[ComponentConfig, ...] = _key(
        (ComponentConfig("quadratic"), ComponentConfig("anisotropic"),
         ComponentConfig("logaug")),
        registry=INTEGRANDS)
    coefficients: Tuple[ComponentConfig, ...] = _key(
        (ComponentConfig("zero"), ComponentConfig("constant", {"value": 1.0}),
         ComponentConfig("step"), ComponentConfig("smooth-bump")),
        registry=COEFFICIENTS)
    data: Tuple[ComponentConfig, ...] = _key(
        (ComponentConfig("constant", {"value": 1.0}), ComponentConfig("sine"),
         ComponentConfig("power-singularity"), ComponentConfig("step")),
        registry=DATA)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str = _key(choices=SUBCOMMANDS)
    domain: DomainConfig = DomainConfig()
    integrand: ComponentConfig = _key(ComponentConfig("quadratic"),
                                      registry=INTEGRANDS)
    coefficient: ComponentConfig = _key(
        ComponentConfig("constant", {"value": 1.0}), registry=COEFFICIENTS)
    datum: ComponentConfig = _key(ComponentConfig("sine"), registry=DATA)
    solver: SolverConfig = SolverConfig()
    counterexample: CounterexampleConfig = CounterexampleConfig()
    sweep: SweepConfig = SweepConfig()
    audit: AuditConfig = AuditConfig()
    output: OutputConfig = OutputConfig()
    seed: int = _key(0, min=0, max=2 ** 64 - 1)


# ------------------------------------------------------------ parse helpers


def _known(keys) -> str:
    return ", ".join(sorted(map(str, keys))) or "none"


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


def _check_choice(value, choices, what: str, where: str = ""):
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"unknown {what} {value!r}{where}; "
                          f"known {what}s: {_known(choices)}")


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
    try:
        out = float(value)
    except OverflowError:           # an int beyond the double range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"expected finite number for '{where}', got {value!r}")
    return out


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected boolean for '{where}', got {value!r}")
    return value


_SCALARS = {int: _as_int, float: _as_float, bool: _as_bool}


def _as_component(value, registry: dict, where: str) -> ComponentConfig:
    mapping = _expect_mapping(value, where)
    _check_keys(mapping, _document_fields(ComponentConfig), where)
    if "kind" not in mapping:
        raise ConfigError(f"'{where}' needs a 'kind'; known kinds: "
                          f"{_known(registry)}")
    kind = mapping["kind"]
    _check_choice(kind, registry, "kind", f" for '{where}'")
    params = _expect_mapping(mapping.get("params"), f"{where}.params")
    _check_keys(params, parameters(registry[kind]), f"{where}.params")
    for name, param in params.items():
        _as_float(param, f"{where}.params.{name}")
    # stored as written, so the echo and the sweep labels keep their bytes
    return ComponentConfig(kind=kind, params=dict(params))


@lru_cache(maxsize=None)
def _document_fields(cls) -> dict:
    """name -> (field, resolved type) for each document key of a section."""
    types = get_type_hints(cls)
    return {f.name: (f, types[f.name]) for f in fields(cls)}


def _as_type(tp, value, registry, where: str):
    """Convert a YAML value to the field type `tp`."""
    if get_origin(tp) is Union:                   # Optional[...]
        if value is None:
            return None
        tp = get_args(tp)[0]
    if tp is ComponentConfig:
        return _as_component(value, registry, where)
    if is_dataclass(tp):
        return _parse_section(tp, value, where)
    if get_origin(tp) is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{where}' must be a non-empty list, got {value!r}")
        return tuple(_as_type(get_args(tp)[0], item, registry, f"{where}[{i}]")
                     for i, item in enumerate(value))
    return _SCALARS[tp](value, where) if tp in _SCALARS else value


def _parse_field(f, tp, value, where: str):
    """Coerce one field's value, then apply the rules in its metadata."""
    rules = f.metadata
    value = _as_type(tp, value, rules.get("registry"), where)
    if "choices" in rules:
        _check_choice(value, rules["choices"], f.name)
    if "min" in rules and value < rules["min"]:
        raise ConfigError(f"'{where}' must be >= {rules['min']}, got {value}")
    if "max" in rules and value > rules["max"]:
        raise ConfigError(f"'{where}' must be <= {rules['max']}, got {value}")
    if rules.get("positive") and value <= 0:
        raise ConfigError(f"'{where}' must be positive, got {value}")
    if "rule" in rules and value is not None:
        with _domain_rule(where):
            value = rules["rule"](value)
    return value


def _parse_section(cls, value, path: str):
    mapping = _expect_mapping(value, path or "config")
    known = _document_fields(cls)
    _check_keys(mapping, known, path)
    values = {}
    for name, (f, tp) in known.items():
        where = f"{path}.{name}" if path else name
        # a null list stands for its default, as an absent one does
        if name in mapping and not (mapping[name] is None
                                    and get_origin(tp) is tuple):
            values[name] = _parse_field(f, tp, mapping[name], where)
        elif f.default is MISSING:
            raise ConfigError(f"missing '{where}'; known {name}s: "
                              f"{_known(f.metadata['choices'])}")
    return cls(**values)


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
    if "subcommand" not in mapping and default_subcommand is not None:
        mapping = {**mapping, "subcommand": default_subcommand}
    return _parse_section(RunConfig, mapping, "")


def config_to_mapping(config) -> dict:
    """Plain-YAML mapping with every default materialized (echo document)."""
    if is_dataclass(config):
        return {name: config_to_mapping(getattr(config, name))
                for name in _document_fields(type(config))}
    if isinstance(config, tuple):
        return [config_to_mapping(item) for item in config]
    if isinstance(config, dict):
        return dict(config)
    return config


def render_config(config: RunConfig) -> str:
    """Deterministic YAML text that parses back to an equal RunConfig."""
    return yaml.dump(config_to_mapping(config), Dumper=getattr(
        yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=True, default_flow_style=False)


# ------------------------------------------------- deterministic serializers


def _plain(value):
    """`value` with numpy scalars as the Python values they hold and
    non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)                      # 'inf', '-inf' or 'nan'
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_plain, value))
    return value


def _csv_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits (`nan`, `inf`, `-inf`
    when non-finite), `true`/`false`, blank for None, other values as str
    with csv.writer's minimal quoting."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if _MAY_NEED_QUOTES(text):
        # csv.writer decides, so the quoting is its QUOTE_MINIMAL exactly
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text, ""])
        return buffer.getvalue()[:-2]
    return text


_MAY_NEED_QUOTES = re.compile('[,"\r\n]').search
# float64 and int64 arrays are formatted in one pass, with _csv_cell's rules
_COLUMN_FORMATS = {np.dtype(np.float64): "{:.17g}".format,
                   np.dtype(np.int64): str}


def _csv_column(values) -> list:
    """The cells of one column."""
    fmt = _COLUMN_FORMATS.get(getattr(values, "dtype", None))
    if fmt is not None:
        return list(map(fmt, values.tolist()))
    return [_csv_cell(v) for v in values]


#: rows that _write_csv formats at once
CSV_CHUNK_ROWS = 8192


def _write_csv(path: str, header: list, blocks):
    """Write a CSV table CSV_CHUNK_ROWS rows at a time, so that no more than
    one chunk's text is held at once.  A block is a list of columns: a
    sequence (list, tuple or array) of values, or one value that repeats
    down the block.  A block without columns writes nothing."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_cell, header)) + "\n")
        for columns in filter(None, blocks):
            listed = [isinstance(c, (list, tuple, np.ndarray)) for c in columns]
            rows = min(len(c) for c, is_list in zip(columns, listed) if is_list)
            for lo in range(0, rows, CSV_CHUNK_ROWS):
                hi = min(lo + CSV_CHUNK_ROWS, rows)
                cells = [_csv_column(c[lo:hi]) if is_list
                         else repeat(_csv_cell(c), hi - lo)
                         for c, is_list in zip(columns, listed)]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_text(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# --------------------------------------------------------- artifact writers


def _solution_table(grid: Grid, trace: SolveTrace) -> Tuple[list, list]:
    """Header and the one block of solution.csv: the final outer stage."""
    dim = grid.nodes.shape[1]
    header = (["stage_index", "n_level", "node_index", "x", "value"] if dim == 1
              else ["stage_index", "n_level", "node_index", "x", "y", "value"])
    final = trace.stages[-1]
    return header, [[len(trace.stages) - 1, final.n_level, np.arange(grid.n_nodes),
                     *(grid.nodes[:, d] for d in range(dim)), final.field.values]]


def _earlier_stages(grid: Grid, trace: SolveTrace) -> np.ndarray:
    """stages.npy: the (S-1, P) float64 nodal fields of every outer stage
    but the last, row i being stage i."""
    return np.reshape([stage.field.values for stage in trace.stages[:-1]],
                      (-1, grid.n_nodes))


def _energy_table(trace: SolveTrace) -> Tuple[list, list]:
    """Header and blocks of energies.csv, one block per clamp stage."""
    header = ["stage_index", "n_level", "m_level", "iteration", "energy"]
    blocks = [[si, stage.n_level, rec.m_level,
               np.arange(len(rec.energy_history)), rec.energy_history]
              for si, stage in enumerate(trace.stages)
              for rec in stage.inner.records]
    return header, blocks


def _entry(record, drop=(), add=()) -> dict:
    """The fields of the dataclass `record` but `drop`, then `add`."""
    names = [f.name for f in fields(record) if f.name not in drop]
    return {name: getattr(record, name) for name in (*names, *add)}


def _estimates_json(reports) -> dict:
    keyed: dict = {}
    for rep in reports:
        keyed.setdefault(rep.estimate_id, []).append(
            _entry(rep, drop=("estimate_id",), add=("slack", "passed")))
    return keyed


# ------------------------------------------------------------ run pipeline


def _build_grid(dom: DomainConfig) -> Grid:
    with _domain_rule("domain"):
        if dom.dimension == 1:
            return build_interval_grid(0.0, dom.length, dom.cells)
        return build_rect_grid(dom.x_cells, dom.y_cells, dom.lx, dom.ly)


def _build_spec(config: RunConfig) -> ProblemSpec:
    grid = _build_grid(config.domain)
    # a factory's range error names the component it came from
    with _domain_rule("integrand"):
        integrand = make_integrand(config.integrand.kind,
                                   config.integrand.params)
    with _domain_rule("coefficient"):
        b = make_coefficient(grid, config.coefficient.kind,
                             config.coefficient.params)
    with _domain_rule("datum"):
        f = make_library_datum(grid, config.datum.kind, config.datum.params)
    return ProblemSpec(
        grid=grid, integrand=integrand, b=b, f=f,
        solver_tol=config.solver.tol, max_iter=config.solver.max_iter,
        n_schedule=config.solver.n_schedule)


def _emit(config: RunConfig, directory: str, basename: str, report: dict,
          tables: dict, converged=True, passed=True) -> Tuple[int, dict]:
    """Open `report` with the keys of every report and close it with the
    exit status: 3 unless the run `converged`, else 2 unless it `passed`,
    else 0.  Write it, the config echo and the tables, and return (exit
    status, report).  `tables` maps each file name to a function that
    builds its content, (header, blocks) for a `.csv` file and an array for
    a `.npy` file, so that nothing is built when the config writes no
    tables."""
    code = (EXIT_NOT_CONVERGED if not converged
            else EXIT_OK if passed else EXIT_AUDIT_FAIL)
    report = {"schema": SCHEMA_VERSION, "subcommand": config.subcommand,
              "seed": config.seed, **report, "exit_status": code}
    os.makedirs(directory, exist_ok=True)
    _write_text(os.path.join(directory, "config_echo.yaml"),
                render_config(config))
    _write_text(os.path.join(directory, basename + ".json"), json.dumps(
        _plain(report), indent=2, sort_keys=True, allow_nan=False))
    if config.output.csv:
        for name, table in tables.items():
            path = os.path.join(directory, name)
            if name.endswith(".npy"):
                np.save(path, table(), allow_pickle=False)
            else:
                _write_csv(path, *table())
    return code, report


# a huge coefficient overflows to inf, which every verdict handles, so the
# overflow is no fault to warn of; this covers solve, audit and sweep workers
@np.errstate(over="ignore")
def _run_solve(config: RunConfig, directory: str) -> Tuple[int, dict]:
    """`solve`, or `audit` when the config names it."""
    spec = _build_spec(config)
    u, trace = solve_outer(spec)
    report = {
        "converged": trace.converged,
        "stages": [{"n_level": stage.n_level, "energy": stage.energy,
                    "m_level": stage.inner.records[0].m_level,
                    "clamp_certified": stage.inner.clamp_certified,
                    "iterations": stage.inner.records[0].iterations,
                    "converged": stage.inner.converged}
                   for stage in trace.stages],
        "stabilization_l2": list(trace.stabilization_history),
    }
    tables = {
        "solution.csv": lambda: _solution_table(spec.grid, trace),
        "stages.npy": lambda: _earlier_stages(spec.grid, trace),
        "energies.csv": lambda: _energy_table(trace),
    }

    if config.subcommand == "audit":
        reports = audit_battery(spec, u, trace, seed=config.seed,
                                coercivity_samples=config.audit.coercivity_samples)
        minim = minimality_check(spec, u,
                                 n_samples=config.audit.minimality_samples,
                                 seed=config.seed)
        report["estimates"] = _estimates_json(reports)
        report["estimates_total"] = len(reports)
        report["estimates_failed"] = sorted({
            r.estimate_id for r in reports
            if not r.passed and r.severity == "binding"})
        report["linf_passed"] = all(r.passed for r in reports
                                    if r.estimate_id == "LINF_BOUND")
        report["minimality"] = {**_entry(minim, drop=("entries",), add=(
            "min_slack", "tolerance", "passed")), "entries": len(minim.entries)}

    return _emit(config, directory, "report", report, tables,
                 converged=trace.converged,
                 passed=not report.get("estimates_failed"))


def _run_counterexample(config: RunConfig, directory: str) -> Tuple[int, dict]:
    ce = config.counterexample
    try:
        rep = divergence_report(ce.dimension, ce.rho, ce.n_max, ce.quad_points)
    except QuadratureError as exc:      # no table to write
        print(f"varlab: counterexample: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED, {}
    report = _entry(rep, drop=TABLE_COLUMNS, add=("passed",))
    return _emit(config, directory, "report", report, {
        "counterexample.csv": lambda: (
            list(TABLE_COLUMNS), [[getattr(rep, name) for name in TABLE_COLUMNS]])},
        passed=rep.passed)


def _distinct(components):
    """The (config path, component) pairs whose component comes first."""
    seen = set()
    for where, comp in components:
        key = (comp.kind, tuple(sorted(comp.params.items())))
        if key not in seen:
            seen.add(key)
            yield where, comp


def _sweep_entries(config: RunConfig, name: str) -> list:
    """(config path, component) pairs of one sweep list."""
    return [(f"sweep.{name}[{i}]", comp)
            for i, comp in enumerate(getattr(config.sweep, name))]


def _certify_entries(components, seed: int) -> list:
    """Certify each distinct integrand of (config path, component) pairs."""
    entries = []
    for where, comp in _distinct(components):
        with _domain_rule(where):
            integrand = make_integrand(comp.kind, comp.params)
        rep = certify(integrand, seed=seed)
        entries.append({"kind": comp.kind, "params": dict(comp.params),
                        **_entry(rep)})
    return entries


def _run_certify(config: RunConfig, directory: str) -> Tuple[int, dict]:
    components = [(kind, ComponentConfig(kind)) for kind in sorted(INTEGRANDS)]
    if config.integrand.params:
        components.append(("integrand", config.integrand))
    entries = _certify_entries(components, config.seed)
    passed = all(e["passed"] for e in entries)
    report = {"certifications": entries, "passed": passed}
    return _emit(config, directory, "report", report, {}, passed=passed)


def _component_label(comp: ComponentConfig) -> str:
    if not comp.params:
        return comp.kind
    inner = ",".join(f"{k}={comp.params[k]!r}" for k in sorted(comp.params))
    return f"{comp.kind}({inner})"


def _run_sweep(config: RunConfig, directory: str,
               jobs: int) -> Tuple[int, dict]:
    """Audit every point of the sweep product into `directory`/point_NNN;
    when an integrand fails its certification, the sweep has no point."""
    # build each distinct coefficient and datum once, so that a range error
    # names its sweep entry before any point is written
    grid = _build_grid(config.domain)
    for name, make in (("coefficients", make_coefficient),
                       ("data", make_library_datum)):
        for where, comp in _distinct(_sweep_entries(config, name)):
            with _domain_rule(where):
                make(grid, comp.kind, comp.params)
    certs = _certify_entries(_sweep_entries(config, "integrands"), config.seed)
    certified = all(e["passed"] for e in certs)
    sweep = config.sweep
    points = (list(product(sweep.integrands, sweep.coefficients, sweep.data))
              if certified else [])

    point_configs = [replace(config, subcommand="audit", integrand=ic,
                             coefficient=cc, datum=dc) for ic, cc, dc in points]
    names = [f"point_{index:03d}" for index in range(len(points))]
    point_dirs = [os.path.join(directory, name) for name in names]
    # a fork pool starts every worker on its first submit
    workers = min(jobs, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_solve, point_configs, point_dirs))
    else:
        results = list(map(_run_solve, point_configs, point_dirs))

    # the index and the matrix row both read each point's report head
    matrix_rows, point_entries = [], []
    non_converged = audit_failures = 0
    for index, (components, name, (_, point_report)) in enumerate(
            zip(points, names, results)):
        head = {key: point_report[key] for key in (
            "converged", "estimates_total", "estimates_failed", "linf_passed",
            "exit_status")}
        head.update(path=f"{name}/report.json",
                    minimality_passed=point_report["minimality"]["passed"])
        failed = head["estimates_failed"]
        non_converged += not head["converged"]
        audit_failures += bool(failed)
        labels = [_component_label(c) for c in components]
        matrix_rows.append([
            index, *labels, head["converged"], head["estimates_total"],
            len(failed), ";".join(failed), head["linf_passed"],
            head["minimality_passed"], head["exit_status"]])
        point_entries.append({
            "index": index, "integrand": labels[0], "coefficient": labels[1],
            "datum": labels[2], "report": head})

    report = {
        "certifications": certs,
        "points": point_entries,
        "summary": {"points": len(points), "audit_failures": audit_failures,
                    "non_converged": non_converged,
                    "certification_failed": not certified}}
    header = ["point", "integrand", "coefficient", "datum", "converged",
              "estimates_total", "estimates_failed", "failed_ids",
              "linf_passed", "minimality_passed", "exit_status"]
    return _emit(config, directory, "sweep_report", report, {
        "sweep_matrix.csv": lambda: (header, [list(zip(*matrix_rows))])},
        converged=not non_converged, passed=certified and not audit_failures)


def run(config: RunConfig, directory: str = ".", jobs: int = 1) -> int:
    """Execute one subcommand, write its artifacts into `directory`, return
    the exit code."""
    runners = {"solve": _run_solve, "audit": _run_solve,
               "counterexample": _run_counterexample,
               "sweep": partial(_run_sweep, jobs=jobs),
               "certify": _run_certify}
    if config.subcommand not in runners:
        raise ConfigError(f"unknown subcommand '{config.subcommand}'")
    return runners[config.subcommand](config, directory)[0]


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
        sp.add_argument("--out", default=".",
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
            config = replace(config, seed=_parse_field(
                *_document_fields(RunConfig)["seed"], args.seed, "--seed"))
        jobs = getattr(args, "jobs", 1)
        if jobs < 1:
            raise ConfigError(f"'--jobs' must be >= 1, got {jobs}")
        return run(config, args.out, jobs=jobs)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"varlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
