"""Config parsing, artifact writing, determinism, and exit-code discipline."""

import csv
import importlib.util
import json
import math
import os
import sys
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from varlab.auditor import ESTIMATE_IDS, OVERFLOW_NOTE, EstimateReport
from varlab.cli import (
    CSV_CHUNK_ROWS,
    EXIT_AUDIT_FAIL,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    ComponentConfig,
    ConfigError,
    SUBCOMMANDS,
    RunConfig,
    _csv_cell,
    _write_csv,
    config_to_mapping,
    main,
    parse_config,
    render_config,
    run,
)
from varlab.counterexample import TABLE_COLUMNS, DivergenceReport
from varlab.functional import CERTIFY_SAMPLES, eval_J
from varlab.grid import field_from_values
from varlab.library import COEFFICIENTS, DATA, INTEGRANDS, parameters
from varlab.solver import solve_outer


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


FAST_AUDIT = "audit: {coercivity_samples: 5, minimality_samples: 5}\n"
#: an integer literal beyond the double range
HUGE = "1" + "0" * 400
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ------------------------------------------------------------------ parsing


def test_minimal_document_parses_to_fully_defaulted_run():
    cfg = parse_config("subcommand: counterexample\n")
    assert cfg.subcommand == "counterexample"
    assert cfg.counterexample.dimension == 3
    assert cfg.counterexample.rho == 0.25
    assert cfg.counterexample.n_max == 12
    assert cfg.counterexample.quad_points == 512
    assert cfg.domain.dimension == 1 and cfg.domain.cells == 128
    assert cfg.integrand.kind == "quadratic"
    assert cfg.coefficient == ComponentConfig("constant", {"value": 1.0})
    assert cfg.datum.kind == "sine"
    assert cfg.solver.tol == 1e-8 and cfg.solver.max_iter == 50000
    assert cfg.solver.n_schedule is None
    assert cfg.seed == 0
    assert len(cfg.sweep.integrands) == 3
    assert len(cfg.sweep.coefficients) == 4
    assert len(cfg.sweep.data) == 4


def test_subcommand_default_and_requirement():
    assert parse_config("", default_subcommand="solve").subcommand == "solve"
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config("seed: 1\n")
    with pytest.raises(ConfigError, match="known subcommands"):
        parse_config("subcommand: minimize\n")


def test_unknown_keys_rejected_with_field_path_and_known_list():
    with pytest.raises(ConfigError, match=r"unknown key 'solver\.tolerance'"):
        parse_config("subcommand: solve\nsolver: {tolerance: 1e-9}\n")
    with pytest.raises(ConfigError) as err:
        parse_config("subcommand: solve\nsolver: {tolerance: 1e-9}\n")
    assert "max_iter, n_schedule, tol" in str(err.value)
    with pytest.raises(ConfigError, match=r"unknown key 'solver\.m_schedule'"):
        parse_config("subcommand: solve\nsolver: {m_schedule: [1, 2]}\n")
    with pytest.raises(ConfigError, match=r"unknown key 'output\.json'"):
        parse_config("subcommand: solve\noutput: {json: false}\n")
    with pytest.raises(ConfigError, match="unknown key 'grids'"):
        parse_config("subcommand: solve\ngrids: {}\n")
    with pytest.raises(ConfigError, match=r"domain\.cellz"):
        parse_config("subcommand: solve\ndomain: {cellz: 4}\n")


def test_unknown_kinds_rejected_with_known_list():
    with pytest.raises(ConfigError, match="quadratic"):
        parse_config("subcommand: solve\nintegrand: {kind: cubic}\n")
    with pytest.raises(ConfigError, match="smooth-bump"):
        parse_config("subcommand: solve\ncoefficient: {kind: wavelet}\n")
    with pytest.raises(ConfigError, match="power-singularity"):
        parse_config("subcommand: solve\ndatum: {kind: delta}\n")
    with pytest.raises(ConfigError, match=r"sweep\.data\[1\]"):
        parse_config("subcommand: sweep\n"
                     "sweep: {data: [{kind: sine}, {kind: delta}]}\n")


def test_type_and_range_validation():
    with pytest.raises(ConfigError, match=r"domain\.cells"):
        parse_config("subcommand: solve\ndomain: {cells: many}\n")
    with pytest.raises(ConfigError, match=r"domain\.dimension"):
        parse_config("subcommand: solve\ndomain: {dimension: 3}\n")
    with pytest.raises(ConfigError, match=r"solver\.tol"):
        parse_config("subcommand: solve\nsolver: {tol: 0.0}\n")
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config("subcommand: solve\nsolver: {n_schedule: [4, 2]}\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("subcommand: solve\nsolver: {n_schedule: [-1, 2]}\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("subcommand: solve\nseed: -3\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("subcommand: solve\nseed: yes\n")
    with pytest.raises(ConfigError, match=r"counterexample\.rho"):
        parse_config("subcommand: counterexample\n"
                     "counterexample: {rho: 0.6}\n")
    with pytest.raises(ConfigError, match=r"counterexample\.quad_points"):
        parse_config("subcommand: counterexample\n"
                     "counterexample: {quad_points: 99}\n")
    with pytest.raises(ConfigError,
                       match=r"'counterexample\.n_max' must be <= 350"):
        parse_config("subcommand: counterexample\n"
                     "counterexample: {n_max: 351}\n")
    with pytest.raises(ConfigError, match=r"output\.csv"):
        parse_config("subcommand: solve\noutput: {csv: 1}\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config("subcommand: [unclosed\n")


@pytest.mark.parametrize("domain, name", [
    ("{dimension: 1, cells: 1}", "cells"),
    ("{dimension: 2, x_cells: 1, y_cells: 4}", "x_cells"),
    ("{dimension: 2, x_cells: 4, y_cells: 1}", "y_cells"),
])
def test_domain_without_interior_node_rejected(domain, name, tmp_path, capsys):
    text = f"subcommand: audit\ndomain: {domain}\n"
    with pytest.raises(ConfigError, match=rf"'domain\.{name}' must be >= 2"):
        parse_config(text)
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(text)
    assert main(["audit", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"'domain.{name}' must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, argv, path", [
    pytest.param(text, argv, path, id=path) for text, argv, path in (
        ("subcommand: counterexample\ncounterexample: {n_max: 351}\n", [],
         "counterexample.n_max"),
        ("subcommand: solve\n"
         "integrand: {kind: quadratic, params: {scal: 2}}\n", [],
         "integrand.params.scal"),
        ("subcommand: solve\n"
         "coefficient: {kind: constant, params: {value: [1]}}\n", [],
         "coefficient.params.value"),
        ("subcommand: solve\n"
         "datum: {kind: sine, params: {amplitude: null}}\n", [],
         "datum.params.amplitude"),
        ("subcommand: solve\n"
         "integrand: {kind: quadratic, params: {scale: -1}}\n", [],
         "integrand"),
        ("subcommand: sweep\nsweep: {integrands: [{kind: quadratic}, "
         "{kind: logaug, params: {scale: 2}}]}\n", [],
         "sweep.integrands[1].params.scale"),
        ("subcommand: sweep\nsweep: {integrands: [{kind: quadratic}, "
         "{kind: quadratic, params: {scale: -1}}]}\n", [],
         "sweep.integrands[1]"),
        ("subcommand: solve\n", ["--seed", "-1"], "--seed"),
        (f"subcommand: solve\nsolver: {{tol: {HUGE}}}\n", [], "solver.tol"),
        ("subcommand: solve\n"
         f"integrand: {{kind: quadratic, params: {{scale: {HUGE}}}}}\n", [],
         "integrand.params.scale"),
        (f"subcommand: solve\nsolver: {{n_schedule: [{HUGE}]}}\n", [],
         "solver.n_schedule[0]"),
        ("subcommand: solve\nsolver: {m_schedule: [1, 2]}\n", [],
         "solver.m_schedule"),
        ("subcommand: audit\noutput: {json: false}\n", [], "output.json"),
        ("subcommand: counterexample\n"
         "counterexample: {quad_points: 1048577}\n", [],
         "counterexample.quad_points"),
    )
] + [
    pytest.param(text, [], path, id=name) for text, path, name in (
        ("subcommand: solve\ndomain: 3\n", "domain", "domain-not-a-mapping"),
        ("subcommand: solve\nsolver: {tol: abc}\n", "solver.tol",
         "solver.tol-not-a-number"),
        ("subcommand: solve\nintegrand: {params: {scale: 2}}\n", "integrand",
         "integrand-without-kind"),
        ("subcommand: sweep\nsweep: {integrands: []}\n", "sweep.integrands",
         "sweep.integrands-empty"),
        # certify builds the integrand only when it runs
        ("subcommand: certify\n"
         "integrand: {kind: quadratic, params: {scale: -1}}\n", "integrand",
         "certify-integrand-scale"),
        ("subcommand: solve\n"
         "integrand: {kind: anisotropic, params: {contrast: 0}}\n",
         "integrand", "anisotropic-contrast"),
        ("subcommand: solve\n"
         "coefficient: {kind: constant, params: {value: -1}}\n",
         "coefficient", "constant-value"),
        ("subcommand: solve\n"
         "coefficient: {kind: smooth-bump, params: {height: 0}}\n",
         "coefficient", "smooth-bump-height"),
    )
] + [
    # 1/h overflows, or h·0 is NaN, or the cell area underflows to 0: the
    # threshold depends on the cell count, so only the built mesh can tell
    pytest.param(f"subcommand: {subcommand}\ndomain: {domain}\n", [], "domain",
                 id=f"domain-{name}")
    for subcommand, domain, name in (
        ("solve", "{cells: 4, length: 1e-308}", "1d-1e-308"),
        ("solve", "{cells: 4, length: 1e-320}", "1d-1e-320"),
        ("solve", "{dimension: 2, x_cells: 4, y_cells: 4, lx: 1e-170, "
                  "ly: 1e-170}", "2d-1e-170"),
        ("sweep", "{dimension: 2, x_cells: 4, y_cells: 4, lx: 1e-170, "
                  "ly: 1e-170}", "2d-1e-170-sweep"),
    )
])
def test_malformed_config_exits_one_naming_the_field(text, argv, path,
                                                     tmp_path, capsys):
    subcommand = text.split()[1]
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg_file), "--out", str(out),
                 *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"'{path}'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section, registry", [
    ("integrand", INTEGRANDS), ("coefficient", COEFFICIENTS), ("datum", DATA)])
def test_config_params_are_the_factory_keywords(section, registry):
    for kind, factory in registry.items():
        names = parameters(factory)
        params = ", ".join(f"{name}: 1" for name in names)
        cfg = parse_config(f"subcommand: solve\n"
                           f"{section}: {{kind: {kind}, params: {{{params}}}}}\n")
        assert tuple(getattr(cfg, section).params) == names
        with pytest.raises(ConfigError) as err:
            parse_config(f"subcommand: solve\n"
                         f"{section}: {{kind: {kind}, params: {{bogus: 1}}}}\n")
        known = ", ".join(sorted(names)) or "none"
        assert f"known keys under '{section}.params': {known}" in str(err.value)


def test_component_params_are_kept_as_written():
    cfg = parse_config("subcommand: solve\n"
                       "coefficient: {kind: step, params: {height: 3}}\n")
    assert cfg.coefficient.params == {"height": 3}
    assert isinstance(cfg.coefficient.params["height"], int)
    assert "height: 3\n" in render_config(cfg)


def test_rho_range_depends_on_dimension():
    cfg = parse_config("subcommand: counterexample\n"
                       "counterexample: {dimension: 4, rho: 0.9}\n")
    assert cfg.counterexample.rho == 0.9
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        parse_config("subcommand: counterexample\n"
                     "counterexample: {dimension: 4, rho: 1.0}\n")


def test_render_parse_round_trip_defaults_and_custom():
    for text in (
        "subcommand: solve\n",
        "subcommand: audit\n"
        "domain: {dimension: 2, x_cells: 4, y_cells: 6, lx: 2.0, ly: 0.5}\n"
        "integrand: {kind: anisotropic, params: {contrast: 3.0}}\n"
        "coefficient: {kind: step, params: {height: 2.0}}\n"
        "datum: {kind: power-singularity, params: {exponent: 0.3}}\n"
        "solver: {tol: 1e-10, n_schedule: [2, 8]}\n"
        "seed: 123456789\n",
        *(path.read_text() for path in sorted(CONFIGS.glob("*.yaml"))),
    ):
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg


def _echo_corpus() -> list:
    """configs/*.yaml, the perfbench configs, each subcommand's defaults and
    the twelve points of the perfbench sweep."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    texts = [path.read_text() for path in sorted(CONFIGS.glob("*.yaml"))]
    texts += [op.config for ops in workloads.WORKLOADS.values() for op in ops]
    texts += [f"subcommand: {name}\n" for name in SUBCOMMANDS]
    sweep = parse_config(workloads.SWEEP_CONFIG).sweep
    points = [replace(parse_config(workloads.SWEEP_CONFIG), subcommand="audit",
                      integrand=ic, coefficient=cc, datum=dc)
              for ic, cc, dc in product(sweep.integrands, sweep.coefficients,
                                        sweep.data)]
    return [parse_config(text) for text in texts] + points


def _pure_echo(config) -> str:
    return yaml.dump(config_to_mapping(config), Dumper=yaml.SafeDumper,
                     sort_keys=True, default_flow_style=False)


needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                                   reason="PyYAML is built without libyaml")


@needs_libyaml
def test_libyaml_echo_is_the_pure_emitters_bytes():
    corpus = _echo_corpus()
    assert len(corpus) == 35
    for config in corpus:
        assert render_config(config) == _pure_echo(config)
        assert yaml.dump(config_to_mapping(config), Dumper=yaml.CSafeDumper,
                         sort_keys=True, default_flow_style=False) == \
            _pure_echo(config)


#: number-like text, as a config may write a component parameter as a string
_NUMBER_TEXT = st.one_of(
    st.sampled_from([" 1.5", "1e-8", "1_000", "+2", "1.5 ", ".5", "1E+3"]),
    st.tuples(st.sampled_from(["", " ", "+", "  "]),
              st.one_of(st.floats(min_value=0.0, allow_nan=False,
                                  allow_infinity=False).map(repr),
                        st.integers(min_value=0).map("{:_}".format)),
              st.sampled_from(["", " ", "\t"])).map("".join))


@needs_libyaml
@settings(max_examples=200, deadline=None)
@given(value=_NUMBER_TEXT, contrast=_NUMBER_TEXT)
def test_libyaml_echo_matches_on_params_written_as_strings(value, contrast):
    config = replace(
        parse_config("subcommand: audit\n"),
        coefficient=ComponentConfig("constant", {"value": value}),
        integrand=ComponentConfig("anisotropic", {"contrast": contrast}))
    assert render_config(config) == _pure_echo(config)


def test_schema_document_states_the_defaults():
    schema = (CONFIGS / "schema_v1.yaml").read_text()
    assert parse_config(schema) == parse_config("subcommand: solve\n")


def test_config_mapping_has_no_directory():
    cfg = parse_config("subcommand: solve\n")
    mapping = config_to_mapping(cfg)
    assert "directory" not in mapping["output"]
    assert set(mapping["output"]) == {"csv"}


# ---------------------------------------------------------------- csv writer


def _reference_csv(path, header, rows):
    """The row-by-row writer the block writer must match byte for byte."""
    def cell(value):
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

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])


# non-finite values, both zeros, a subnormal, the smallest normal, and
# values whose shortest and 17-digit forms differ
FLOATS = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
          2.2250738585072014e-308, 0.1, 1.0 / 3.0, -1e300, 123456789.0, 2.5]
STRINGS = ["plain", "a,b", 'say "hi"', '",', "", "two\nlines", "cr\rhere",
           " padded ", "tab\there", "ünïcödé", "semi;colon"]


def test_csv_writer_matches_the_row_writer_cell_by_cell(tmp_path):
    rows = []
    for i, x in enumerate(FLOATS):
        rows.append([i, x, np.float64(x), np.float32(i / 7), STRINGS[i % len(STRINGS)],
                     bool(i % 2), np.bool_(i % 3), None, np.int64(-i),
                     (i, "x"), STRINGS[-1 - i % len(STRINGS)]])
    header = ["index", "x", "x64", "x32", "label", "flag", "np_flag", "blank",
              "i64", "pair", "quoted, header"]
    # the one block holds the table's columns, each a tuple of raw values
    _write_csv(tmp_path / "new.csv", header, [list(zip(*rows))])
    _reference_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_csv_writer_columns_match_the_row_writer(tmp_path):
    # repeated values, int and float arrays, and a list, in blocks
    values = np.array(FLOATS * 3)
    blocks = [[k, np.arange(values.size), values, STRINGS[k], values.tolist()]
              for k in range(3)]
    rows = [[k, i, values[i], STRINGS[k], float(values[i])]
            for k in range(3) for i in range(values.size)]
    header = ["k", "i", "array", "label", "list"]
    _write_csv(tmp_path / "new.csv", header, blocks)
    _reference_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("extra", [-1, 0, 1, CSV_CHUNK_ROWS + 1],
                         ids=["below", "at", "above", "two-chunks-and-one"])
def test_csv_writer_chunks_match_the_row_writer(tmp_path, extra):
    # blocks at and around the chunk size, with repeated-value columns
    rows = CSV_CHUNK_ROWS + extra
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    values[:len(FLOATS)] = FLOATS
    labels = [STRINGS[i % len(STRINGS)] for i in range(rows)]
    blocks = [[k, 0.1 * k, STRINGS[k + 1], np.arange(rows), values,
               labels, tuple(values.tolist())] for k in range(2)]
    table = [[k, 0.1 * k, STRINGS[k + 1], i, float(values[i]), labels[i],
              float(values[i])] for k in range(2) for i in range(rows)]
    header = ["k", "tenth", "label", "i", "array", "labels", "tuple"]
    _write_csv(tmp_path / "new.csv", header, blocks)
    _reference_csv(tmp_path / "old.csv", header, table)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("dimension", [1, 2])
def test_solution_table_matches_the_row_writer(tmp_path, dimension):
    # solution.csv is the row writer's table of the final stage alone, and
    # stages.npy holds the earlier stages bit for bit, NaN payloads included
    from types import SimpleNamespace
    from varlab.cli import _earlier_stages, _solution_table
    from varlab.grid import build_interval_grid, build_rect_grid
    grid = (build_interval_grid(0.0, 1.0, 20) if dimension == 1
            else build_rect_grid(5, 4, 1.0, 1.5))
    rng = np.random.default_rng(dimension)
    stages = []
    for n_level in (1.0, 2.0, 4.0):
        values = rng.normal(size=grid.n_nodes)
        values[:len(FLOATS)] = FLOATS
        stages.append(SimpleNamespace(
            n_level=n_level, field=SimpleNamespace(values=values)))
    trace = SimpleNamespace(stages=stages)

    header, blocks = _solution_table(grid, trace)
    _write_csv(tmp_path / "new.csv", header, blocks)
    rows = [[2, 4.0, ni, *grid.nodes[ni], stages[-1].field.values[ni]]
            for ni in range(grid.n_nodes)]
    _reference_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
    assert len((tmp_path / "new.csv").read_text().splitlines()) == \
        1 + grid.n_nodes

    earlier = _earlier_stages(grid, trace)
    assert earlier.dtype == np.float64
    assert earlier.shape == (2, grid.n_nodes)
    for row, stage in zip(earlier, stages):
        assert _bits(row) == _bits(stage.field.values)
    one = SimpleNamespace(stages=stages[:1])
    assert _earlier_stages(grid, one).shape == (0, grid.n_nodes)
    assert _earlier_stages(grid, one).dtype == np.float64


# ---------------------------------------------------------------- artifacts


def _small_audit_config(extra=""):
    return parse_config("subcommand: audit\n"
                        "domain: {dimension: 1, cells: 32, length: 1.0}\n"
                        + FAST_AUDIT + extra)


def test_audit_run_writes_all_artifacts(tmp_path):
    cfg = _small_audit_config()
    assert run(cfg, str(tmp_path)) == EXIT_OK
    names = sorted(os.listdir(tmp_path))
    assert names == ["config_echo.yaml", "energies.csv", "report.json",
                     "solution.csv", "stages.npy"]

    report = _read_json(tmp_path / "report.json")
    assert report["exit_status"] == EXIT_OK
    assert report["converged"] is True
    assert report["seed"] == 0
    assert set(report["estimates"]) <= set(ESTIMATE_IDS)
    assert report["estimates_failed"] == []
    assert report["linf_passed"] is True
    assert report["minimality"]["passed"] is True
    assert report["minimality"]["entries"] == 5

    entries = [entry for group in report["estimates"].values()
               for entry in group]
    assert len(entries) == report["estimates_total"]
    assert all(entry["passed"] is True for entry in entries)
    # an entry is its EstimateReport less the id, plus slack and verdict
    keys = {f.name for f in fields(EstimateReport)} - {"estimate_id"}
    assert all(set(entry) == keys | {"slack", "passed"} for entry in entries)

    echoed = parse_config((tmp_path / "config_echo.yaml").read_text())
    assert echoed.domain.cells == 32
    assert echoed.subcommand == "audit"

    # the bounded datum has one outer stage: the final one, in solution.csv
    assert len(report["stages"]) == 1
    header, rows = _read_csv(tmp_path / "solution.csv")
    assert len(rows) == 33 and {row[0] for row in rows} == {"0"}
    earlier = np.load(tmp_path / "stages.npy", allow_pickle=False)
    assert earlier.dtype == np.float64 and earlier.shape == (0, 33)


def _damped_config(dimension):
    domain = ("{dimension: 1, cells: 48, length: 1.0}" if dimension == 1
              else "{dimension: 2, x_cells: 10, y_cells: 10, lx: 1.0, ly: 1.0}")
    coefficient = "step" if dimension == 1 else "constant"
    return parse_config(f"subcommand: solve\ndomain: {domain}\n"
                        f"integrand: {{kind: logaug}}\n"
                        f"coefficient: {{kind: {coefficient}}}\n"
                        f"datum: {{kind: power-singularity}}\n")


@pytest.mark.parametrize("dimension", [1, 2])
def test_stage_files_hold_the_solver_fields_bit_for_bit(tmp_path, dimension):
    # stages.npy row i is stage i's field, and solution.csv is the final
    # block of the one-block-per-stage table, byte for byte
    from varlab.cli import _build_spec
    cfg = _damped_config(dimension)
    assert run(cfg, str(tmp_path / "run")) == EXIT_OK
    spec = _build_spec(cfg)
    _, trace = solve_outer(spec)
    assert len(trace.stages) == 5
    earlier = np.load(tmp_path / "run" / "stages.npy", allow_pickle=False)
    assert earlier.dtype == np.float64
    assert earlier.shape == (4, spec.grid.n_nodes)
    for row, stage in zip(earlier, trace.stages):
        assert _bits(row) == _bits(stage.field.values)

    header = (["stage_index", "n_level", "node_index", "x", "value"]
              if dimension == 1
              else ["stage_index", "n_level", "node_index", "x", "y", "value"])
    rows = [[si, stage.n_level, ni, *spec.grid.nodes[ni],
             stage.field.values[ni]]
            for si, stage in enumerate(trace.stages)
            for ni in range(spec.grid.n_nodes)]
    _reference_csv(tmp_path / "old.csv", header, rows)
    old = (tmp_path / "old.csv").read_bytes().splitlines(keepends=True)
    final_block = old[:1] + old[-spec.grid.n_nodes:]
    assert (tmp_path / "run" / "solution.csv").read_bytes() == \
        b"".join(final_block)


@pytest.mark.parametrize("dimension", [1, 2])
def test_every_stage_is_bounded_by_its_datum_and_zero_on_the_boundary(
        tmp_path, dimension):
    # ||u_n||inf <= sup|f_n| = n (the datum is unbounded) and u_n = 0 on
    # the boundary, for every row of stages.npy and the final stage
    assert run(_damped_config(dimension), str(tmp_path)) == EXIT_OK
    report = _read_json(tmp_path / "report.json")
    levels = [stage["n_level"] for stage in report["stages"]]
    assert levels == [1, 2, 4, 8, 16]
    header, rows = _read_csv(tmp_path / "solution.csv")
    table = np.array(rows, dtype=float)
    assert set(table[:, 0]) == {4.0} and set(table[:, 1]) == {16.0}
    coords = table[:, 3:3 + dimension]
    boundary = np.any((coords == coords.min(axis=0))
                      | (coords == coords.max(axis=0)), axis=1)
    assert 0 < boundary.sum() < len(rows)
    fields = np.vstack([np.load(tmp_path / "stages.npy", allow_pickle=False),
                        table[:, -1]])
    assert len(fields) == len(levels)
    for n_level, values in zip(levels, fields):
        assert np.max(np.abs(values)) <= n_level
        assert np.all(values[boundary] == 0.0)


def test_solution_csv_reproduces_solver_field_exactly(tmp_path):
    cfg = _small_audit_config()
    run(cfg, str(tmp_path))
    header, rows = _read_csv(tmp_path / "solution.csv")
    assert header == ["stage_index", "n_level", "node_index", "x", "value"]

    from varlab.cli import _build_spec
    spec = _build_spec(cfg)
    u, trace = solve_outer(spec)
    last = max(int(r[0]) for r in rows)
    got = [float(r[4]) for r in rows if int(r[0]) == last]
    assert len(got) == spec.grid.n_nodes
    assert got == list(u.values)          # 17-digit round-trip is exact
    # the stored field really evaluates to the reported energy
    v = field_from_values(spec.grid, got)
    assert eval_J(spec, v) == pytest.approx(
        trace.stages[-1].energy, rel=1e-12)


def test_energies_csv_is_monotone_per_stage(tmp_path):
    cfg = _small_audit_config()
    run(cfg, str(tmp_path))
    header, rows = _read_csv(tmp_path / "energies.csv")
    assert header == ["stage_index", "n_level", "m_level", "iteration",
                      "energy"]
    by_stage = {}
    for r in rows:
        by_stage.setdefault((r[0], r[2]), []).append(float(r[4]))
    for energies in by_stage.values():
        assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_counterexample_run_artifacts(tmp_path):
    cfg = parse_config("subcommand: counterexample\n")
    assert run(cfg, str(tmp_path)) == EXIT_OK
    header, rows = _read_csv(tmp_path / "counterexample.csv")
    assert header[0] == "level" and len(rows) == 13
    w11 = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(w11, w11[1:]))
    report = _read_json(tmp_path / "report.json")
    assert report["passed"] is True
    assert all(report["assertions"].values())
    # the report is the DivergenceReport less its table, plus the verdict
    keys = {f.name for f in fields(DivergenceReport)} - set(TABLE_COLUMNS)
    assert set(report) == keys | {"passed", "schema", "subcommand", "seed",
                                  "exit_status"}
    assert report["log_h1_limit"] == pytest.approx(math.pi / 2, rel=1e-15)


def test_certify_run(tmp_path):
    cfg = parse_config("subcommand: certify\n")
    assert run(cfg, str(tmp_path)) == EXIT_OK
    report = _read_json(tmp_path / "report.json")
    assert report["passed"] is True
    kinds = [e["kind"] for e in report["certifications"]]
    assert kinds == ["anisotropic", "logaug", "quadratic"]
    assert all(e["passed"] is True and e["samples"] == CERTIFY_SAMPLES
               and e["seed"] == 0 for e in report["certifications"])


def test_output_format_flags_suppress_artifacts(tmp_path):
    cfg = _small_audit_config(extra="output: {csv: false}\n")
    run(cfg, str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    assert names == ["config_echo.yaml", "report.json"]


@pytest.mark.parametrize("document", [
    "subcommand: audit\ndomain: {dimension: 1, cells: 32, length: 1.0}\n"
    + FAST_AUDIT,
    "subcommand: counterexample\ncounterexample: {n_max: 5}\n",
], ids=["audit", "counterexample"])
def test_csv_off_formats_no_table(tmp_path, monkeypatch, document):
    calls = []
    monkeypatch.setattr("varlab.cli._csv_column",
                        lambda values: calls.append(values) or [])
    run(parse_config(document + "output: {csv: false}\n"), str(tmp_path))
    assert calls == []
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*.npy"))


# -------------------------------------------------------------- determinism


def test_same_seed_runs_are_byte_identical(tmp_path):
    cfg = _small_audit_config()
    run(cfg, str(tmp_path / "a"))
    run(cfg, str(tmp_path / "b"))
    for name in ("report.json", "solution.csv", "stages.npy",
                 "energies.csv", "config_echo.yaml"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_different_seed_changes_randomized_audits(tmp_path):
    run(_small_audit_config(), str(tmp_path / "a"))
    run(_small_audit_config(extra="seed: 99\n"), str(tmp_path / "b"))
    rep_a = _read_json(tmp_path / "a" / "report.json")
    rep_b = _read_json(tmp_path / "b" / "report.json")
    assert rep_a["seed"] == 0 and rep_b["seed"] == 99
    assert rep_a["estimates"]["COERCIVITY_CHAIN"] != \
        rep_b["estimates"]["COERCIVITY_CHAIN"]


def test_json_writer_emits_valid_json_for_nonfinite_floats():
    from varlab.cli import _json_text
    text = _json_text({"a": float("inf"), "b": float("-inf"),
                       "c": float("nan"), "d": 0.1, "e": [1.5, None, True]})
    doc = json.loads(text)                           # must be valid JSON
    assert doc == {"a": "inf", "b": "-inf", "c": "nan", "d": 0.1,
                   "e": [1.5, None, True]}
    assert "0.10000000000000001" in text             # 17 significant digits


def test_unbounded_datum_audit_reports_final_truncation_bound(tmp_path):
    # the sup-norm audit runs against the final-stage truncated datum,
    # whose bound is the last clamp level of the automatic schedule
    cfg = _small_audit_config(extra="datum: {kind: power-singularity}\n")
    assert run(cfg, str(tmp_path)) == EXIT_OK
    report = _read_json(tmp_path / "report.json")    # json.load must succeed
    linf = report["estimates"]["LINF_BOUND"][0]
    assert linf["rhs"] == 16.0
    assert linf["params"]["n"] == 16.0
    assert linf["passed"] is True
    assert [s["n_level"] for s in report["stages"]] == [1, 2, 4, 8, 16]


# ----------------------------------------------------------------- sweeping


def test_sweep_singleton_grid_matches_standalone_audit(tmp_path):
    text = ("subcommand: sweep\n"
            "domain: {dimension: 1, cells: 32, length: 1.0}\n"
            "sweep:\n"
            "  integrands: [{kind: quadratic}]\n"
            "  coefficients: [{kind: constant, params: {value: 1.0}}]\n"
            "  data: [{kind: sine}]\n" + FAST_AUDIT)
    from dataclasses import replace
    cfg = parse_config(text)
    assert run(cfg, str(tmp_path / "s")) == EXIT_OK

    header, rows = _read_csv(tmp_path / "s" / "sweep_matrix.csv")
    assert len(rows) == 1
    assert rows[0][header.index("converged")] == "true"
    assert rows[0][header.index("exit_status")] == "0"

    # the single point's artifacts coincide byte-for-byte with a standalone
    # audit run of the same problem (sweep of grid size one ≡ plain run)
    run(replace(cfg, subcommand="audit"), str(tmp_path / "solo"))
    point = tmp_path / "s" / "point_000"
    for name in ("report.json", "solution.csv", "stages.npy",
                 "energies.csv"):
        assert (point / name).read_bytes() == \
            (tmp_path / "solo" / name).read_bytes(), name


def test_sweep_report_aggregates_and_certifies(tmp_path):
    text = ("subcommand: sweep\n"
            "domain: {dimension: 1, cells: 32, length: 1.0}\n"
            "sweep:\n"
            "  integrands: [{kind: quadratic}, {kind: logaug}]\n"
            "  coefficients: [{kind: zero}]\n"
            "  data: [{kind: sine}, {kind: step}]\n" + FAST_AUDIT)
    cfg = parse_config(text)
    assert run(cfg, str(tmp_path)) == EXIT_OK
    report = _read_json(tmp_path / "sweep_report.json")
    assert report["summary"] == {
        "points": 4, "audit_failures": 0, "non_converged": 0,
        "certification_failed": False}
    assert [e["kind"] for e in report["certifications"]] == \
        ["quadratic", "logaug"]
    assert all(e["passed"] for e in report["certifications"])
    header, rows = _read_csv(tmp_path / "sweep_matrix.csv")
    assert len(rows) == 4
    assert [r[header.index("integrand")] for r in rows] == \
        ["quadratic", "quadratic", "logaug", "logaug"]
    # each point entry is the head of the report its path names, and the
    # matrix row shows the same head
    for point, row in zip(report["points"], rows):
        head = point["report"]
        assert head["path"] == f"point_{point['index']:03d}/report.json"
        full = _read_json(tmp_path / head["path"])
        assert head == {"path": head["path"],
                        "minimality_passed": full["minimality"]["passed"],
                        **{key: full[key] for key in (
                            "converged", "estimates_total", "estimates_failed",
                            "linf_passed", "exit_status")}}
        failed = head["estimates_failed"]
        assert dict(zip(header, row)) == {
            "point": str(point["index"]), "integrand": point["integrand"],
            "coefficient": point["coefficient"], "datum": point["datum"],
            "converged": _csv_cell(head["converged"]),
            "estimates_total": str(head["estimates_total"]),
            "estimates_failed": str(len(failed)),
            "failed_ids": ";".join(failed),
            "linf_passed": _csv_cell(head["linf_passed"]),
            "minimality_passed": _csv_cell(head["minimality_passed"]),
            "exit_status": str(head["exit_status"])}


def test_sweep_terzastima_slack_grows_with_damping_amplitude(tmp_path):
    text = ("subcommand: sweep\n"
            "domain: {dimension: 1, cells: 32, length: 1.0}\n"
            "sweep:\n"
            "  integrands: [{kind: quadratic}]\n"
            "  coefficients:\n"
            "    - {kind: zero}\n"
            "    - {kind: constant, params: {value: 1.0}}\n"
            "    - {kind: constant, params: {value: 10.0}}\n"
            "  data: [{kind: sine}]\n" + FAST_AUDIT)
    cfg = parse_config(text)
    assert run(cfg, str(tmp_path)) == EXIT_OK
    report = _read_json(tmp_path / "sweep_report.json")
    slacks = [_read_json(tmp_path / p["report"]["path"])
              ["estimates"]["TERZASTIMA"][0]["slack"] for p in report["points"]]
    assert slacks[0] < slacks[1] < slacks[2]


def test_sweep_jobs_do_not_change_artifact_bytes(tmp_path):
    # every artifact, through the command line's --jobs
    cfg_file = tmp_path / "sweep.yaml"
    cfg_file.write_text(
        "subcommand: sweep\n"
        "domain: {dimension: 1, cells: 16, length: 1.0}\n"
        "sweep:\n"
        "  integrands: [{kind: quadratic}, {kind: logaug}]\n"
        "  coefficients: [{kind: constant}]\n"
        "  data: [{kind: sine}, {kind: power-singularity}]\n"
        "audit: {coercivity_samples: 4, minimality_samples: 3}\n")
    trees = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--jobs", str(jobs)]) == EXIT_OK
        trees[jobs] = {p.relative_to(out).as_posix(): p.read_bytes()
                       for p in out.rglob("*") if p.is_file()}
    assert {"sweep_report.json", "sweep_matrix.csv"} <= set(trees[1])
    for index in range(4):
        for name in ("report.json", "solution.csv", "stages.npy",
                     "energies.csv", "config_echo.yaml"):
            assert f"point_{index:03d}/{name}" in trees[1]
    assert sorted(trees[1]) == sorted(trees[2])
    for name, data in trees[1].items():
        assert trees[2][name] == data, name


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the sweep's process pool by one that records its worker count
    and maps in this process, so that no test starts a process.  The sweep
    imports the pool from concurrent.futures only when it opens one."""
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("data, jobs, workers", [
    ("[{kind: sine}, {kind: step}]", 5000, [2]),
    ("[{kind: sine}, {kind: step}]", 2, [2]),
    ("[{kind: sine}]", 5000, []),
    ("[{kind: sine}, {kind: step}]", 1, []),
], ids=["2-points-5000-jobs", "2-points-2-jobs", "1-point-5000-jobs",
        "2-points-1-job"])
def test_sweep_starts_no_more_workers_than_points(tmp_path, serial_pool,
                                                  data, jobs, workers):
    cfg_file = tmp_path / "sweep.yaml"
    cfg_file.write_text(
        "subcommand: sweep\n"
        "domain: {dimension: 1, cells: 16, length: 1.0}\n"
        "sweep:\n"
        "  integrands: [{kind: quadratic}]\n"
        "  coefficients: [{kind: zero}]\n"
        f"  data: {data}\n" + FAST_AUDIT)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                 "--jobs", str(jobs)]) == EXIT_OK
    assert serial_pool == workers
    assert len(_read_json(out / "sweep_report.json")["points"]) == \
        data.count("kind")


def test_sweep_rejects_a_bad_component_before_any_point(tmp_path, capsys):
    cfg_file = tmp_path / "sweep.yaml"
    cfg_file.write_text(
        "subcommand: sweep\n"
        "domain: {dimension: 1, cells: 16, length: 1.0}\n"
        "sweep:\n"
        "  integrands: [{kind: quadratic}]\n"
        "  coefficients: [{kind: zero}, {kind: step, params: {height: -1}}]\n"
        "  data: [{kind: sine}]\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) \
        == EXIT_USAGE
    assert "sweep.coefficients[1]" in capsys.readouterr().err
    assert not (out / "point_000").exists()


def test_sweep_with_an_uncertified_integrand_runs_no_point(tmp_path,
                                                          monkeypatch,
                                                          serial_pool):
    import varlab.library as library
    from varlab.functional import Integrand

    def overgrown():
        # declares beta = 1, but the density is 2|ξ|²: the upper bound fails
        return Integrand(label="bad", alpha=1.0, beta=1.0, gamma=4.0,
                         density=lambda x, xi: 2.0 * np.sum(xi * xi, axis=-1),
                         grad=lambda x, xi: 4.0 * xi)

    monkeypatch.setitem(library.INTEGRANDS, "bad", overgrown)
    cfg_file = tmp_path / "sweep.yaml"
    cfg_file.write_text(
        "subcommand: sweep\n"
        "domain: {dimension: 1, cells: 16, length: 1.0}\n"
        "sweep:\n"
        "  integrands: [{kind: bad}]\n"
        "  coefficients: [{kind: zero}]\n"
        "  data: [{kind: sine}]\n")
    out = tmp_path / "out"
    # no point, so no pool even when workers are asked for
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                 "--jobs", "4"]) == EXIT_AUDIT_FAIL
    assert serial_pool == []
    report = _read_json(out / "sweep_report.json")
    assert report["summary"] == {
        "points": 0, "audit_failures": 0, "non_converged": 0,
        "certification_failed": True}
    assert report["points"] == []
    assert report["exit_status"] == EXIT_AUDIT_FAIL
    assert [e["passed"] for e in report["certifications"]] == [False]
    header, rows = _read_csv(out / "sweep_matrix.csv")
    assert header[0] == "point" and rows == []
    assert not (out / "point_000").exists()


# --------------------------------------------------------------- exit codes


def test_non_convergence_exit_takes_precedence(tmp_path):
    cfg = _small_audit_config(
        extra="solver: {tol: 1e-15, max_iter: 1}\n"
              "coefficient: {kind: constant, params: {value: 5.0}}\n")
    code = run(cfg, str(tmp_path))
    assert code == EXIT_NOT_CONVERGED
    report = _read_json(tmp_path / "report.json")
    assert report["converged"] is False
    assert report["exit_status"] == EXIT_NOT_CONVERGED


@pytest.mark.parametrize("solver, code", [
    ("", EXIT_AUDIT_FAIL),
    ("solver: {tol: 1e-15, max_iter: 1}\n", EXIT_NOT_CONVERGED),
], ids=["audit-failure", "non-converged"])
def test_sweep_exit_takes_the_precedence_of_its_points(tmp_path, monkeypatch,
                                                       solver, code):
    # every point adds one failing binding estimate; a monkeypatch does not
    # reach pool workers, so the sweep runs with one job
    import varlab.cli as cli_mod

    def failing_battery(*args, **kwargs):
        return [*real_battery(*args, **kwargs),
                EstimateReport("PRIMASTIMA", lhs=2.0, rhs=1.0)]

    real_battery = cli_mod.audit_battery
    monkeypatch.setattr(cli_mod, "audit_battery", failing_battery)
    cfg_file = tmp_path / "sweep.yaml"
    cfg_file.write_text(
        "subcommand: sweep\n"
        "domain: {dimension: 1, cells: 16, length: 1.0}\n"
        "sweep:\n"
        "  integrands: [{kind: quadratic}]\n"
        "  coefficients: [{kind: constant, params: {value: 5.0}}]\n"
        "  data: [{kind: sine}, {kind: step}]\n" + solver + FAST_AUDIT)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                 "--jobs", "1"]) == code
    report = _read_json(out / "sweep_report.json")
    assert report["exit_status"] == code
    assert [p["report"]["exit_status"] for p in report["points"]] == [code] * 2
    assert all("PRIMASTIMA" in p["report"]["estimates_failed"]
               for p in report["points"])
    assert report["summary"] == {
        "points": 2, "audit_failures": 2,
        "non_converged": 2 if code == EXIT_NOT_CONVERGED else 0,
        "certification_failed": False}


def test_large_constant_datum_audit_converges(tmp_path):
    # sup u ≈ 19.5: a clamp level below it puts quadrature points on the
    # kink |v| = M, where a stage cannot reach tol and spends max_iter
    cfg_file = tmp_path / "constant20.yaml"
    cfg_file.write_text("subcommand: audit\n"
                        "datum: {kind: constant, params: {value: 20}}\n"
                        "solver: {max_iter: 2000}\n")
    out = tmp_path / "out"
    assert main(["audit", "--config", str(cfg_file), "--out", str(out)]) \
        == EXIT_OK
    report = _read_json(out / "report.json")
    assert report["converged"] is True
    assert report["stages"] and all(s["converged"] for s in report["stages"])


def test_counterexample_assertion_failure_maps_to_audit_exit(
        tmp_path, monkeypatch):
    import varlab.cli as cli_mod

    def fake_report(dimension, rho, n_max, quad_points=512):
        n = n_max + 1
        return DivergenceReport(
            dimension=dimension, rho=rho, level=tuple(range(n)),
            radius=(1.0,) * n, w11_seminorm=(0.0,) * n,
            log_h1_seminorm=(0.0,) * n, damped_gradient=(0.0,) * n,
            square_mass=(0.0,) * n, amplitude_mass=(0.0,) * n,
            identity_rel_error=(0.0,) * n, log_h1_limit=1.0,
            assertions={"w11_strictly_increasing": False})

    monkeypatch.setattr(cli_mod, "divergence_report", fake_report)
    cfg = parse_config("subcommand: counterexample\n")
    assert run(cfg, str(tmp_path)) == EXIT_AUDIT_FAIL


@pytest.mark.parametrize("dimension, rho, level", [
    (3, 0.25, 329), (5, 0.5, 339), (8, 1.0, 344)])
def test_unsettled_witness_exits_not_converged_naming_the_level(
        dimension, rho, level, tmp_path, capsys):
    # the damped integrand overflows near the top of the schema's n_max range
    cfg_file = tmp_path / "deep.yaml"
    cfg_file.write_text(
        "subcommand: counterexample\n"
        f"counterexample: {{dimension: {dimension}, rho: {rho}, n_max: 350}}\n")
    out = tmp_path / "out"
    code = main(["counterexample", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_NOT_CONVERGED
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["varlab: counterexample: radial quadrature did not "
                     f"settle to 1e-8 relative at 'damped' level {level}"]
    assert not out.exists()


SMALL_RHO_FAILURES = [(0.0009, 1, "w11", 1), (0.0015, 1, "damped", 1),
                      (0.01, 350, "w11", 187)]


@pytest.mark.parametrize("rho, n_max, integral, level", SMALL_RHO_FAILURES,
                         ids=[f"{rho}-{integral}"
                              for rho, _, integral, _ in SMALL_RHO_FAILURES])
def test_small_rho_witness_exits_not_converged_without_warnings(
        rho, n_max, integral, level, tmp_path, capsys):
    # r_1 underflows to 0 at rho 0.0009; at 0.0015 the squared gradient
    # overflows where r^(N-1) underflows: non-finite shells, one stderr line.
    # At 0.01 the first shell column fails in the middle of the table.
    cfg_file = tmp_path / "small.yaml"
    cfg_file.write_text("subcommand: counterexample\n"
                        f"counterexample: {{rho: {rho}, n_max: {n_max}}}\n")
    out = tmp_path / "out"
    code = main(["counterexample", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert err.splitlines() == ["varlab: counterexample: radial quadrature did "
                                "not settle to 1e-8 relative at "
                                f"'{integral}' level {level}"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand, coefficient", [
    ("audit", "coefficient: {kind: constant, params: {value: 1.0e300}}\n"),
    ("sweep", "sweep: {integrands: [{kind: quadratic}], data: [{kind: sine}],"
              " coefficients: [{kind: step, params: {height: 1.0e300}}]}\n")])
def test_huge_coefficient_ends_without_a_traceback(subcommand, coefficient,
                                                   tmp_path, capsys):
    # (1 + B·k)² overflows a float for B = 1e300: the TK bound is infinite;
    # so does ∫(1+b|u|)², which makes TERZASTIMA's middle step vacuous
    cfg_file = tmp_path / "huge.yaml"
    cfg_file.write_text(f"subcommand: {subcommand}\ndomain: {{cells: 8}}\n"
                        "solver: {max_iter: 50}\n" + coefficient + FAST_AUDIT)
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg_file), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_AUDIT_FAIL, EXIT_NOT_CONVERGED)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    (report,) = out.rglob("report.json")
    estimates = _read_json(report)["estimates"]
    tk = estimates["TK_BOUND"]
    assert [r["rhs"] for r in tk if r["params"]["k"] > 0] == ["inf"] * 5
    if subcommand == "audit":
        (terza,) = estimates["TERZASTIMA"]
        assert terza["passed"]
        assert terza["params"]["holder_rhs"] == "inf"
        assert terza["note"] == OVERFLOW_NOTE


@pytest.mark.parametrize("dimension", [343, 344])
def test_witness_dimension_stops_where_the_sphere_measure_overflows(
        dimension, tmp_path, capsys):
    # Γ(N/2) overflows from N = 344, so the schema caps the dimension at 343
    cfg_file = tmp_path / "wide.yaml"
    cfg_file.write_text("subcommand: counterexample\n"
                        f"counterexample: {{dimension: {dimension}, n_max: 3}}\n")
    out = tmp_path / "out"
    code = main(["counterexample", "--config", str(cfg_file), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if dimension == 343:
        assert code in (EXIT_OK, EXIT_AUDIT_FAIL, EXIT_NOT_CONVERGED)
        return
    assert code == EXIT_USAGE
    assert err.splitlines() == [
        "varlab: error: 'counterexample.dimension' must be <= 343, got 344"]
    assert not out.exists()


_HEAD_CONFIGS = {
    "solve": "domain: {cells: 8}\n",
    "audit": "domain: {cells: 8}\n" + FAST_AUDIT,
    "counterexample": "counterexample: {n_max: 3}\n",
    "certify": "",
    "sweep": "domain: {cells: 8}\n" + FAST_AUDIT + (
        "sweep: {integrands: [{kind: quadratic}], data: [{kind: sine}],"
        " coefficients: [{kind: zero}, {kind: constant}]}\n"),
}


@pytest.mark.parametrize("subcommand", sorted(_HEAD_CONFIGS))
def test_every_report_opens_with_the_same_head(subcommand, tmp_path):
    # schema, subcommand and seed, closed by the exit status; the config
    # is in the echo beside the report
    cfg_file = tmp_path / "head.yaml"
    cfg_file.write_text(f"subcommand: {subcommand}\nseed: 7\n"
                        + _HEAD_CONFIGS[subcommand])
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg_file), "--out", str(out)])
    if subcommand != "sweep":
        reports = [(out / "report.json", subcommand, code)]
    else:
        header, rows = _read_csv(out / "sweep_matrix.csv")
        assert len(rows) == 2
        reports = [(out / "sweep_report.json", subcommand, code)] + [
            (out / f"point_{int(row[0]):03d}" / "report.json", "audit",
             int(row[header.index("exit_status")])) for row in rows]
    for path, name, status in reports:
        report = _read_json(path)
        echo = parse_config((path.parent / "config_echo.yaml").read_text())
        assert report["schema"] == SCHEMA_VERSION
        assert report["subcommand"] == echo.subcommand == name
        assert report["seed"] == echo.seed == 7
        assert report["exit_status"] == status


_SOLVE_FILES = ["config_echo.yaml", "energies.csv", "report.json",
                "solution.csv", "stages.npy"]
_RUN_FILES = {
    "solve": _SOLVE_FILES,
    "audit": _SOLVE_FILES,
    "counterexample": ["config_echo.yaml", "counterexample.csv", "report.json"],
    "certify": ["config_echo.yaml", "report.json"],
    "sweep": ["config_echo.yaml", "point_000", "point_001", "sweep_matrix.csv",
              "sweep_report.json"],
}
#: the report keys of the witness columns up to version 0.10.0
_OLD_WITNESS_KEYS = {"levels", "w11_seminorms", "log_h1_seminorms",
                     "damped_gradients", "square_masses", "amplitude_masses",
                     "identity_rel_errors"}


@pytest.mark.parametrize("subcommand", sorted(_HEAD_CONFIGS))
def test_each_number_has_one_file(subcommand, tmp_path):
    # the config is only in config_echo.yaml and the witness table only in
    # counterexample.csv; every run directory holds exactly these files
    run(parse_config(f"subcommand: {subcommand}\n" + _HEAD_CONFIGS[subcommand]),
        str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == _RUN_FILES[subcommand]
    reports = [tmp_path / ("sweep_report.json" if subcommand == "sweep"
                           else "report.json")]
    if subcommand == "sweep":
        point = tmp_path / "point_000"
        assert sorted(os.listdir(point)) == _SOLVE_FILES
        reports.append(point / "report.json")
    for path in reports:
        report = _read_json(path)
        assert "config" not in report
        assert not set(report) & (_OLD_WITNESS_KEYS | set(TABLE_COLUMNS))
    if subcommand == "counterexample":
        assert sorted(_read_json(reports[0])) == [
            "assertions", "dimension", "exit_status", "log_h1_limit", "passed",
            "rho", "schema", "seed", "subcommand"]


def test_main_usage_errors_exit_one(tmp_path):
    assert main(["audit", "--config", "/no/such/file.yaml"]) == EXIT_USAGE
    bad = tmp_path / "bad.yaml"
    bad.write_text("subcommand: solve\nsolver: {tolerance: 1}\n")
    assert main(["solve", "--config", str(bad)]) == EXIT_USAGE
    mismatch = tmp_path / "mismatch.yaml"
    mismatch.write_text("subcommand: audit\n")
    assert main(["solve", "--config", str(mismatch)]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["sweep", "--jobs", "0"]) == EXIT_USAGE
    assert main(["solve", "--seed", "-1", "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["counterexample", "--out", ""]) == EXIT_USAGE


def test_main_overrides_seed_and_out(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("subcommand: audit\n"
                        "domain: {cells: 16}\n" + FAST_AUDIT)
    out = tmp_path / "artifacts"
    code = main(["audit", "--config", str(cfg_file), "--out", str(out),
                 "--seed", "7"])
    assert code == EXIT_OK
    report = _read_json(out / "report.json")
    assert report["seed"] == 7
    echo = yaml.safe_load((out / "config_echo.yaml").read_text())
    assert echo["seed"] == 7
    assert "directory" not in echo["output"]
