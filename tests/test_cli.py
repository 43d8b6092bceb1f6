"""Spec files, dataset files, run configs, and the command line."""

import csv
import dataclasses
import errno
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cdplot
from cdplot import cli, engine, render
from cdplot.cli import (
    PLOT_KINDS,
    load_run_config,
    load_scm_spec,
    main,
    read_dataset_csv,
    run_pipeline,
    write_dataset_csv,
)
from cdplot.errors import CdpError, ConfigError, DataError
from cdplot.predictors import (
    ClosedFormPredictor,
    ForestConfig,
    Predictor,
    fit_forest,
    fit_ols,
    save_predictor,
)
from cdplot.render import import_csv
from cdplot.scm import Dataset, sample

FIXTURES = Path(str(resources.files("cdplot").joinpath("fixtures")))
ROOT = Path(__file__).resolve().parents[1]

CHAIN_SPEC = """\
scm chain
var X { noise = normal(0.0, 1.0) }
var M { parents = [X]; eq = "X"; noise = normal(0.0, 0.5) }
var Y { parents = [M]; eq = "M"; noise = normal(0.0, 0.5) }
"""

COLLIDER_SPEC = """\
scm collider
var X { noise = normal(0.0, 1.0) }
var Y { noise = normal(0.0, 1.0) }
var Z { parents = [X, Y]; eq = "X + Y"; noise = normal(0.0, 0.5) }
"""


def _spec(tmp_path, text, name="model.scm"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _copy_fixture(tmp_path, name):
    path = tmp_path / name
    path.write_text((FIXTURES / name).read_text(encoding="utf-8"), encoding="utf-8")
    return path


def _write_config(tmp_path, **overrides):
    config = {
        "scm": "salary.scm",
        "data": {"simulate": {"n": 80, "seed": 5}},
        "predictor": {"kind": "ols", "target": "S", "degree": 2},
        "variables": ["P"],
        "plots": ["TDP", "NDDP"],
        "grid_resolution": 5,
        "output_dir": str(tmp_path / "out"),
        "seed": 5,
    }
    config.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# --- model spec files ------------------------------------------------------


def test_bundled_specs_load():
    scm = load_scm_spec(FIXTURES / "salary.scm")
    assert scm.variables == ("P", "F", "S")
    load_scm_spec(FIXTURES / "salary_independent.scm")
    load_scm_spec(FIXTURES / "mediation.scm")


def test_spec_comments_and_blank_lines_are_ignored(tmp_path):
    path = _spec(
        tmp_path,
        "# a model\nscm demo\n\nvar X { noise = point(2.0) }  # constant\n",
    )
    scm = load_scm_spec(path)
    assert scm.mechanisms["X"].noise.p1 == 2.0


def test_spec_requires_header(tmp_path):
    path = _spec(tmp_path, "var X { noise = normal(0.0, 1.0) }\n")
    with pytest.raises(ConfigError, match="expected 'scm"):
        load_scm_spec(path)


def test_spec_errors_carry_line_numbers(tmp_path):
    path = _spec(tmp_path, "scm demo\nvar X { noise = wat(1.0) }\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_scm_spec(path)


def test_spec_rejects_duplicate_variable(tmp_path):
    text = (
        "scm demo\n"
        "var X { noise = normal(0.0, 1.0) }\n"
        "var X { noise = normal(0.0, 1.0) }\n"
    )
    with pytest.raises(ConfigError, match="line 3: duplicate"):
        load_scm_spec(_spec(tmp_path, text))


def test_spec_rejects_bad_noise_parameters(tmp_path):
    path = _spec(tmp_path, "scm demo\nvar X { noise = normal(0.0, -1.0) }\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_scm_spec(path)


def test_spec_rejects_eq_without_parents(tmp_path):
    path = _spec(
        tmp_path, 'scm demo\nvar F { eq = "2.0"; noise = normal(0.0, 1.0) }\n'
    )
    with pytest.raises(ConfigError, match="parents and eq"):
        load_scm_spec(path)


def test_spec_rejects_unknown_field(tmp_path):
    path = _spec(tmp_path, "scm demo\nvar X { scale = 2; noise = point(0.0) }\n")
    with pytest.raises(ConfigError, match="unknown field"):
        load_scm_spec(path)


# --- dataset files ---------------------------------------------------------


def test_dataset_round_trip_is_exact(tmp_path):
    data = Dataset(
        ("A", "B"), np.asarray([[1 / 3, -2.5e-7], [np.pi, 1e16 + 1.0]])
    )
    path = tmp_path / "d.csv"
    path.write_text(write_dataset_csv(data), encoding="utf-8")
    again = read_dataset_csv(path)
    assert again.columns == data.columns
    assert np.array_equal(again.values, data.values)


_MAX = 1.7976931348623157e308
_CELLS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, _MAX, -_MAX)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _tables(draw):
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_CELLS, min_size=k, max_size=k), min_size=1, max_size=5))
    return Dataset(tuple(f"C{i}" for i in range(k)), np.array(rows, dtype=float))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
@example(table=Dataset(("A", "B"), np.array([[-0.0, 5e-324], [_MAX, -_MAX]])))
def test_dataset_writer_matches_a_per_cell_writer(tmp_path, table):
    # the reference formats and writes one cell at a time
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows([format(v, ".17g") for v in row] for row in table.values.tolist())
    text = write_dataset_csv(table)
    assert text == out.getvalue()
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    again = read_dataset_csv(path)
    assert np.array_equal(again.values.view(np.int64), table.values.view(np.int64))


_NUMBER_CELLS = st.builds(
    lambda value, spelling: spelling(value),
    _CELLS | st.sampled_from((1e308, -1e308, 1e-310)),
    st.sampled_from((lambda v: "%.17g" % v, repr)),
)
# (mutation, row, column, text); rows and columns are taken modulo the
# table's size, row 0 being the header.
_MUTATIONS = st.tuples(
    st.sampled_from((
        "pad", "underscore", "quote", "blank-line", "space-line", "trailing-comma",
        "inside", "arabic", "non-finite", "word", "label", "drop", "duplicate-name",
    )),
    st.integers(0, 40),
    st.integers(0, 6),
    st.sampled_from((" ", "\t", "\x0c", "\x1c", "\xa0", "\u2028", "\x85", "\x00", "nan",
                     "benign", "")),
)


@st.composite
def _dataset_texts(draw):
    """The text of a dataset CSV, often damaged, and a label map or None."""
    k = draw(st.integers(1, 5))
    cells = [[f"C{c}" for c in range(k)]]
    cells += draw(st.lists(st.lists(_NUMBER_CELLS, min_size=k, max_size=k),
                           min_size=1, max_size=30))
    blank = []
    for mutation, r, c, text in draw(st.lists(_MUTATIONS, max_size=4)):
        row = cells[r % len(cells)]
        if not row:
            continue
        c %= len(row)
        if mutation == "pad":
            row[c] = text + row[c] + text
        elif mutation == "underscore":
            row[c] = "1_0"
        elif mutation == "quote":
            row[c] = f'"{row[c]}"'
        elif mutation in ("blank-line", "space-line"):
            blank.append((r % (len(cells) + 1), "" if mutation == "blank-line" else text))
        elif mutation == "trailing-comma":
            row.append("")
        elif mutation == "inside":  # a character that str.splitlines breaks at
            row[c] = row[c][:1] + text + row[c][1:]
        elif mutation == "arabic":
            row[c] = "١٢"
        elif mutation == "non-finite":
            row[c] = ("nan", "inf", "-inf", "1e500", "-1e999")[r % 5]
        elif mutation in ("word", "label"):
            row[c] = text if mutation == "word" else "benign"
        elif mutation == "drop":
            del row[c]
        else:
            row[c] = row[(c + 1) % len(row)]
    lines = [",".join(row) for row in cells]
    for at, line in sorted(blank, reverse=True):
        lines.insert(at, line)
    end = draw(st.sampled_from(("\n", "\r\n", "\r", "mixed")))
    if end == "mixed":
        text = "".join(line + draw(st.sampled_from(("\n", "\r\n", "\r"))) for line in lines)
    else:
        text = end.join(lines) + draw(st.sampled_from(("", end)))
    label_map = draw(st.sampled_from((None, {"benign": 2.0}, {"": -0.0, "benign": 4.0})))
    return text, label_map


def _read_outcome(read):
    """What a dataset reader gives: the table's names, shape and float
    bits (so -0.0 counts), or its error's type and message."""
    try:
        data = read()
    except CdpError as exc:
        return type(exc).__name__, str(exc)
    return data.columns, data.values.shape, data.values.view(np.int64).tolist()


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_dataset_texts())
@example(case=("A,B\r1,2\r3,4\r", None))
@example(case=("A,B\r\n1,2\r\n\r\n3,-0.0\r\n", None))
@example(case=("A\n1\x0c2\n", None))  # one cell, two lines to str.splitlines
@example(case=("A\n1\u20282\n", None))
@example(case=("A\n\x1c1\x1c\n 2 \n", None))
@example(case=("A\n1\n  \n", {"": 5.0}))
@example(case=("A\n1\n\n", None))
@example(case=('A,"B"\n1,2\n', None))
@example(case=("A,B\n1,nan\n", None))
@example(case=("A\n-1e999\n", {"": 1.0}))
@example(case=("A,B\n1,benign\n", {"benign": 2.0}))
def test_dataset_reader_matches_the_cell_loop(tmp_path, case):
    text, label_map = case
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _read_outcome(lambda: read_dataset_csv(path, label_map))
    # the reader's text, with universal newlines, is the cell loop's input
    read = path.read_text(encoding="utf-8")
    assert got == _read_outcome(lambda: cli._read_cells(read, path, label_map))


def test_dataset_reader_sends_no_numpy_warning(tmp_path, capfd):
    path = tmp_path / "d.csv"
    path.write_text("A\n\n\n", encoding="utf-8")
    with pytest.raises(DataError, match="at least one data row"):
        read_dataset_csv(path)
    path.write_text("A\n \n", encoding="utf-8")
    with pytest.raises(DataError, match="cannot read ''"):
        read_dataset_csv(path)
    assert capfd.readouterr().err == ""


def test_dataset_label_map_translates_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,Class\n1.0,benign\n2.0,malignant\n", encoding="utf-8")
    data = read_dataset_csv(path, {"benign": 2, "malignant": 4})
    assert data.column("Class").tolist() == [2.0, 4.0]


def test_dataset_errors_name_the_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B\n1.0,huh\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 2, column 'B'.*'huh'"):
        read_dataset_csv(path)


def test_dataset_requires_data_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B\n", encoding="utf-8")
    with pytest.raises(DataError, match="at least one data row"):
        read_dataset_csv(path)


def test_dataset_reader_holds_the_matrix_and_no_text(tmp_path):
    # numpy parses the open file a line at a time: no text, no list of lines
    values = np.random.default_rng(0).normal(size=(20000, 3))
    path = tmp_path / "d.csv"
    path.write_text(write_dataset_csv(Dataset(("A", "B", "C"), values)), encoding="utf-8")
    tracemalloc.start()
    try:
        data = read_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.values, values)
    assert peak < 2 * values.nbytes


@pytest.mark.parametrize("command", ["dataset", "render"])
def test_a_table_from_a_pipe_is_read_once(tmp_path, deadline, command):
    # a pipe cannot be read again by the cell loop or the line loop, so its
    # text is read whole; the quoted dataset is one numpy would refuse
    fifo = tmp_path / "t.csv"
    os.mkfifo(fifo)
    if command == "dataset":
        text = '"A",B\r\n1,2\r\n'
    else:
        curves = np.array([[1.0, 2.0]])
        text = render.export_csv(engine.CurveSet("ICE", engine.Grid("x", [0.0, 1.0]), curves,
                                                 curves.mean(axis=0)))
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    with deadline(10):
        if command == "dataset":
            assert read_dataset_csv(fifo).values.tolist() == [[1.0, 2.0]]
        else:
            assert main(["render", "--csv", str(fifo), "--svg", str(tmp_path / "t.svg")]) == 0
    writer.join(10)
    assert not writer.is_alive()


@pytest.mark.parametrize("command", ["dataset", "render"])
def test_a_file_that_stops_being_utf8_midway_fails_as_before(tmp_path, capsys, command):
    # the stream meets the bad byte past its first block; the error is the
    # one reading the whole text gives, with the byte's place in the file
    path = tmp_path / "t.csv"
    if command == "dataset":
        path.write_bytes(b"A,B\n" + b"1,2\n" * 5000 + b"3,\xff\n")
    else:
        curves = np.zeros((500, 3))
        table = render.export_csv(engine.CurveSet("ICE", engine.Grid("x", [0.0, 1.0, 2.0]),
                                                  curves, curves.mean(axis=0)))
        path.write_bytes(table.encode("utf-8")[:-10] + b"\xff\n")
    with pytest.raises(DataError) as expected:
        cli._read_input(path, "dataset" if command == "dataset" else "curve table", DataError)
    if command == "dataset":
        with pytest.raises(DataError) as caught:
            read_dataset_csv(path)
        assert str(caught.value) == str(expected.value)
    else:
        assert main(["render", "--csv", str(path), "--svg", str(tmp_path / "t.svg")]) == 3
        assert capsys.readouterr().err == f"error (data): {expected.value}\n"
        assert not (tmp_path / "t.svg").exists()


def test_dataset_rejects_ragged_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B\n1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 2 has 1 cells, expected 2"):
        read_dataset_csv(path)


def test_dataset_rejects_duplicate_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,A\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate column"):
        read_dataset_csv(path)


def test_dataset_rejects_non_finite_values(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A\ninf\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-finite"):
        read_dataset_csv(path)


# --- run configs -----------------------------------------------------------


def test_config_needs_exactly_one_structure_source(tmp_path):
    base = {
        "data": {"simulate": {"n": 10}},
        "predictor": {"kind": "ols", "target": "S"},
        "variables": ["P"],
    }
    with pytest.raises(ConfigError, match="exactly one"):
        load_run_config(_spec(tmp_path, json.dumps(base), "a.json"))
    both = dict(base, scm="m.scm", discovery={})
    with pytest.raises(ConfigError, match="exactly one"):
        load_run_config(_spec(tmp_path, json.dumps(both), "b.json"))


def test_config_simulate_requires_a_model(tmp_path):
    config = {
        "discovery": {},
        "data": {"simulate": {"n": 10}},
        "predictor": {"kind": "ols", "target": "S"},
        "variables": ["P"],
    }
    with pytest.raises(ConfigError, match="simulated data requires"):
        load_run_config(_spec(tmp_path, json.dumps(config), "c.json"))


def test_config_rejects_unknown_plot_kind(tmp_path):
    path = _write_config(tmp_path, plots=["TDP", "XDP"])
    with pytest.raises(ConfigError, match="unknown plot kind 'XDP'"):
        load_run_config(path)


def test_config_rejects_a_single_band_model(tmp_path):
    path = _write_config(tmp_path, band_scms=["salary.scm"])
    with pytest.raises(ConfigError, match="at least two"):
        load_run_config(path)


def test_config_rejects_coarse_grids(tmp_path):
    path = _write_config(tmp_path, grid_resolution=1)
    with pytest.raises(ConfigError, match="grid_resolution"):
        load_run_config(path)


def test_config_rejects_unknown_predictor_kind(tmp_path):
    path = _write_config(tmp_path, predictor={"kind": "svm", "target": "S"})
    with pytest.raises(ConfigError, match="unknown predictor kind"):
        load_run_config(path)


def test_config_rejects_duplicate_predictor_labels(tmp_path):
    path = _write_config(
        tmp_path,
        predictor=None,
        predictors=[
            {"label": "a", "kind": "ols", "target": "S"},
            {"label": "a", "kind": "ols", "target": "S"},
        ],
    )
    with pytest.raises(ConfigError, match="duplicate predictor label"):
        load_run_config(path)


def test_config_paths_resolve_relative_to_the_file(tmp_path):
    nested = tmp_path / "nested"
    nested.mkdir()
    config = {
        "scm": "m.scm",
        "data": "d.csv",
        "explain_data": "e.csv",
        "band_scms": ["a.scm", "b.scm"],
        "predictor": {"kind": "ols", "target": "S"},
        "variables": ["P"],
    }
    loaded = load_run_config(_spec(nested, json.dumps(config), "run.json"))
    assert loaded.scm_path == nested / "m.scm"
    assert loaded.data_source == nested / "d.csv"
    assert loaded.explain_data == nested / "e.csv"
    assert loaded.band_scms == (nested / "a.scm", nested / "b.scm")


# --- subcommands -----------------------------------------------------------


def test_simulate_writes_data_and_noise(tmp_path, capsys):
    out = tmp_path / "d.csv"
    noise_out = tmp_path / "u.csv"
    code = main(
        [
            "simulate",
            "--scm", str(FIXTURES / "salary.scm"),
            "--n", "50",
            "--seed", "3",
            "--out", str(out),
            "--noise-out", str(noise_out),
        ]
    )
    assert code == 0
    data = read_dataset_csv(out)
    assert data.columns == ("P", "F", "S")
    assert data.m == 50
    noise = read_dataset_csv(noise_out)
    assert noise.m == 50
    assert "50 rows" in capsys.readouterr().out


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dataset_pieces_join_to_the_whole_text(monkeypatch):
    data, _ = sample(load_scm_spec(FIXTURES / "salary.scm"), 100, 4)
    whole = write_dataset_csv(data)
    monkeypatch.setattr(cli, "_PIECE_ROWS", 7)
    pieces = list(cli._dataset_pieces(data))
    assert len(pieces) == 1 + 15  # the header, then 100 rows in pieces of 7
    assert "".join(pieces) == whole


def test_simulate_writes_blocks_of_rows(tmp_path, monkeypatch):
    # once the tables are drawn, writing them holds a block of rows at a
    # time and never the text of a file
    held = []

    def sampled(*args):
        tables = sample(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return tables

    monkeypatch.setattr(cli, "sample", sampled)
    out, noise = tmp_path / "d.csv", tmp_path / "n.csv"
    argv = ["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "50000", "--seed", "3",
            "--out", str(out), "--noise-out", str(noise)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    data, drawn = sample(load_scm_spec(FIXTURES / "salary.scm"), 50000, 3)
    assert out.read_text(encoding="utf-8") == write_dataset_csv(data)
    assert noise.read_text(encoding="utf-8") == write_dataset_csv(drawn)
    assert peak < out.stat().st_size / 2


def test_a_failed_noise_write_leaves_no_dataset(tmp_path):
    out = tmp_path / "d.csv"
    argv = ["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "20", "--out", str(out),
            "--noise-out", str(tmp_path / "missing" / "n.csv")]
    assert main(argv) == 2
    assert not out.exists()


def test_fit_explain_render_chain(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "model.json"
    out_dir = tmp_path / "curves"
    scm = str(FIXTURES / "salary.scm")
    assert main(["simulate", "--scm", scm, "--n", "200", "--seed", "1",
                 "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--target", "S",
                 "--kind", "ols", "--degree", "2", "--out", str(model)]) == 0
    assert main(["explain", "--scm", scm, "--data", str(data),
                 "--var", "P", "--plots", "TDP,NDDP", "--model", str(model),
                 "--grid-resolution", "7", "--out-dir", str(out_dir)]) == 0
    tdp_csv = out_dir / "P_tdp.csv"
    assert sorted(p.name for p in out_dir.iterdir()) == ["P_nddp.csv", "P_tdp.csv"]
    curve_set = import_csv(tdp_csv.read_text(encoding="utf-8"), var="P")
    assert curve_set.kind == "TDP"
    assert curve_set.units == 200
    svg = tmp_path / "p.svg"
    assert main(["render", "--csv", str(tdp_csv), "--svg", str(svg),
                 "--var", "P"]) == 0
    assert svg.read_text(encoding="utf-8").count("<polyline") == 201


def test_explain_supports_closed_form_and_controls(tmp_path):
    data = tmp_path / "d.csv"
    out_dir = tmp_path / "curves"
    scm = str(FIXTURES / "mediation.scm")
    assert main(["simulate", "--scm", scm, "--n", "40", "--seed", "2",
                 "--out", str(data)]) == 0
    assert main(["explain", "--scm", scm, "--data", str(data),
                 "--var", "X", "--plots", "PCDP",
                 "--closed-form", "M^2 - 0.5*X^2", "--features", "X,M",
                 "--control", "M=0.0", "--grid-resolution", "5",
                 "--out-dir", str(out_dir)]) == 0
    curve_set = import_csv((out_dir / "X_pcdp.csv").read_text(encoding="utf-8"))
    assert curve_set.kind == "PCDP"
    # with the mediator pinned at zero the response is exactly -x^2/2
    expected = -0.5 * curve_set.grid.values**2
    assert np.allclose(curve_set.curves, expected[None, :], atol=1e-12)


def test_discover_recovers_the_chain_skeleton(tmp_path, capsys):
    spec = _spec(tmp_path, CHAIN_SPEC)
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(spec), "--n", "2000", "--seed", "0",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["discover", "--data", str(data)]) == 0
    assert capsys.readouterr().out == "M -- X\nM -- Y\n"


def test_discover_orients_the_collider(tmp_path, capsys):
    spec = _spec(tmp_path, COLLIDER_SPEC)
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(spec), "--n", "2000", "--seed", "0",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["discover", "--data", str(data), "--out",
                 str(tmp_path / "g.txt")]) == 0
    assert capsys.readouterr().out == "X -> Z\nY -> Z\n"
    assert (tmp_path / "g.txt").read_text(encoding="utf-8") == "X -> Z\nY -> Z\n"


@pytest.mark.parametrize("flags, settings", [
    (["--trees", "3", "--depth", "4", "--min-leaf", "2", "--seed", "7"],
     {"trees": 3, "depth": 4, "min_leaf": 2, "seed": 7}),
    (["--trees", "2", "--min-leaf", "2", "--no-bootstrap"],
     {"trees": 2, "min_leaf": 2, "bootstrap": False}),
], ids=["bootstrap", "no-bootstrap"])
def test_fit_flags_save_the_forest_of_the_same_run_config_block(tmp_path, flags, settings):
    data_path = _salary_data(tmp_path)
    model = tmp_path / "m.json"
    assert main(["fit", "--data", str(data_path), "--target", "S", "--kind", "forest",
                 *flags, "--out", str(model)]) == 0
    _copy_fixture(tmp_path, "salary.scm")
    config = load_run_config(_write_config(
        tmp_path, data=data_path.name, predictor={"kind": "forest", "target": "S", **settings}
    ))
    data = read_dataset_csv(data_path)
    built = cli._build_predictor(config.predictors[0], data, data.columns)
    assert json.loads(model.read_text(encoding="utf-8")) == json.loads(
        json.dumps(save_predictor(built))
    )


def test_discover_flags_print_the_cpdag_of_the_same_run_discovery(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "300",
                 "--seed", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["discover", "--data", str(data), "--alpha", "0.1", "--max-cond", "1",
                 "--variables", "S,P,F"]) == 0
    printed = capsys.readouterr().out.splitlines()
    config = {
        "discovery": {"alpha": 0.1, "max_cond": 1, "variables": ["S", "P", "F"]},
        "data": str(data),
        "predictor": {"kind": "ols", "target": "S"},
        "variables": ["P"],
        "output_dir": str(tmp_path / "out"),
    }
    manifest = run_pipeline(load_run_config(_spec(tmp_path, json.dumps(config), "run.json")))
    assert printed and printed == manifest["inputs"]["discovery"]["cpdag"]


# --- exit codes ------------------------------------------------------------


def test_missing_spec_exits_with_config_code(tmp_path, capsys):
    code = main(["simulate", "--scm", str(tmp_path / "no.scm"), "--n", "5",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error (config):")


def test_unreadable_data_exits_with_data_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("P,F,S\n1,2,huh\n", encoding="utf-8")
    code = main(["explain", "--scm", str(FIXTURES / "salary.scm"),
                 "--data", str(data), "--var", "P",
                 "--closed-form", "P", "--features", "P"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error (data):")


def test_unknown_variable_exits_with_config_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"),
                 "--n", "10", "--out", str(data)]) == 0
    code = main(["explain", "--scm", str(FIXTURES / "salary.scm"),
                 "--data", str(data), "--var", "Q",
                 "--closed-form", "P", "--features", "P",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error (config):")


def test_broken_external_exits_with_external_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"),
                 "--n", "10", "--out", str(data)]) == 0
    script = tmp_path / "mute.py"
    script.write_text(
        "import sys\nsys.stdin.readline()\nprint('NOPE')\n", encoding="utf-8"
    )
    code = main(["explain", "--scm", str(FIXTURES / "salary.scm"),
                 "--data", str(data), "--var", "P",
                 "--external", f"{sys.executable} {script}",
                 "--features", "P,F", "--timeout", "5",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 5
    assert capsys.readouterr().err.startswith("error (external predictor):")


def test_bad_control_exits_with_config_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"),
                 "--n", "10", "--out", str(data)]) == 0
    code = main(["explain", "--scm", str(FIXTURES / "salary.scm"),
                 "--data", str(data), "--var", "P",
                 "--closed-form", "P", "--features", "P",
                 "--control", "F"])
    assert code == 2
    assert "expected VAR=VALUE" in capsys.readouterr().err


def _salary_data(tmp_path):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"),
                 "--n", "10", "--out", str(data)]) == 0
    return data


def _explain(tmp_path, *extra):
    return ["explain", "--scm", str(FIXTURES / "salary.scm"),
            "--data", str(_salary_data(tmp_path)),
            "--out-dir", str(tmp_path / "out"), *extra]


def _run(tmp_path, **overrides):
    _copy_fixture(tmp_path, "salary.scm")
    return ["run", "--config", str(_write_config(tmp_path, **overrides))]


def _render(tmp_path, text):
    csv_path = tmp_path / "c.csv"
    if text is not None:
        csv_path.write_text(text, encoding="utf-8")
    return ["render", "--csv", str(csv_path), "--svg", str(tmp_path / "c.svg")]


def _mute_external(tmp_path):
    script = tmp_path / "mute.py"
    script.write_text("import sys\nsys.stdin.readline()\nprint('NOPE')\n",
                      encoding="utf-8")
    return _explain(tmp_path, "--var", "P", "--external", f"{sys.executable} {script}",
                    "--features", "P,F", "--timeout", "5")


def _nan_external(tmp_path):
    script = tmp_path / "nan.py"
    script.write_text(
        "import sys\n"
        "sys.stdin.readline()\n"
        "print('READY', flush=True)\n"
        "for request in iter(sys.stdin.readline, 'QUIT\\n'):\n"
        "    n = int(request.split()[1])\n"
        "    [sys.stdin.readline() for _ in range(n)]\n"
        "    print('nan\\n' * n, end='', flush=True)\n",
        encoding="utf-8",
    )
    return _explain(tmp_path, "--var", "P", "--external", f"{sys.executable} {script}",
                    "--features", "P,F", "--plots", "ICE", "--timeout", "5")


def _discover_label_map(tmp_path):
    return ["discover", "--data", str(_salary_data(tmp_path)), "--label-map", "{bad"]


def _not_utf8(tmp_path, name):
    """A file holding a byte that cannot start a UTF-8 character."""
    path = tmp_path / name
    path.write_bytes(b"\xff\n")
    return path


def _oversized_cell(tmp_path):
    """A dataset whose one cell, 200,000 digits, is longer than the csv
    module's default field limit."""
    path = tmp_path / "d.csv"
    path.write_text("A,B\n1," + "1" * 200_000 + "\n", encoding="utf-8")
    return path


def _model_file(tmp_path, text):
    model = tmp_path / "model.json"
    if text is not None:
        model.write_text(text, encoding="utf-8")
    return _explain(tmp_path, "--var", "P", "--model", str(model))


def _damaged_forest(tmp_path, damage):
    data = read_dataset_csv(_salary_data(tmp_path))
    model = fit_forest(data, "S", ("P", "F"), ForestConfig(n_trees=2, max_depth=3, min_leaf=2))
    blob = save_predictor(model)
    damage(blob["trees"][0])
    return _model_file(tmp_path, json.dumps(blob))


def _simulate_eq(tmp_path, eq):
    """simulate on a two-variable spec whose Y has the equation eq."""
    spec = _spec(tmp_path, "scm deep\nvar X { noise = normal(0.0, 1.0) }\n"
                           f'var Y {{ parents = [X]; eq = "{eq}"; noise = normal(0.0, 1.0) }}\n')
    return ["simulate", "--scm", str(spec), "--n", "5", "--out", str(tmp_path / "d.csv")]


def _forest_config_set(tmp_path, setting, literal):
    """A saved two-tree forest whose config setting is the JSON literal."""
    data = read_dataset_csv(_salary_data(tmp_path))
    model = fit_forest(data, "S", ("P", "F"), ForestConfig(n_trees=2, max_depth=3, min_leaf=2))
    blob = save_predictor(model)
    blob["config"][setting] = "<setting>"
    return _model_file(tmp_path, json.dumps(blob).replace('"<setting>"', literal))


def _damaged_ols(tmp_path, damage):
    data = read_dataset_csv(_salary_data(tmp_path))
    blob = save_predictor(fit_ols(data, "S", ("P", "F")))
    damage(blob)
    return _model_file(tmp_path, json.dumps(blob))


def _ols_with_degree(tmp_path, degree, fitted=1):
    """A saved OLS model of the given fitted degree whose degree is the
    JSON literal degree."""
    data = read_dataset_csv(_salary_data(tmp_path))
    blob = {**save_predictor(fit_ols(data, "S", ("P", "F"), fitted)), "degree": None}
    return _model_file(tmp_path, json.dumps(blob).replace('"degree": null', f'"degree": {degree}'))


def _run_explaining_p_f_only(tmp_path):
    """A run whose explain_data has the P and F columns but not S."""
    explain = tmp_path / "pf.csv"
    explain.write_text("P,F\n0.5,0.25\n1.0,2.0\n", encoding="utf-8")
    return _run(tmp_path, explain_data=explain.name)


def _run_discovery(tmp_path, **block):
    config = {
        "discovery": block,
        "data": str(_salary_data(tmp_path)),
        "predictor": {"kind": "ols", "target": "S"},
        "variables": ["P"],
        "output_dir": str(tmp_path / "out"),
    }
    return ["run", "--config", str(_spec(tmp_path, json.dumps(config), "run.json"))]


def _fit(tmp_path, *extra):
    return ["fit", "--data", str(_salary_data(tmp_path)), "--target", "S",
            "--out", str(tmp_path / "m.json"), *extra]


def _fit_huge_target(tmp_path):
    data = tmp_path / "huge.csv"
    data.write_text("x,y\n" + "".join(
        f"{i / 20},{1e200 if i >= 10 else -1e200}\n" for i in range(20)))
    return ["fit", "--data", str(data), "--target", "y", "--kind", "forest",
            "--trees", "3", "--out", str(tmp_path / "m.json")]


def _render_into_missing_dir(tmp_path):
    argv = _render(tmp_path, "plot_kind,unit,grid_value,value\nTDP,0,0.5,1\n"
                             "TDP,mean,0.5,1\n")
    return argv[:-1] + [str(tmp_path / "nodir" / "c.svg")]


def _run_into_a_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    return _run(tmp_path, output_dir=str(blocker))


P_ONLY_SPEC = "scm p_only\nvar P { noise = uniform(0.0, 1.5) }\n"
P_F_SPEC = (
    "scm p_f\nvar P { noise = uniform(0.0, 1.5) }\n"
    'var F { parents = [P]; eq = "2*P^3"; noise = normal(0.0, 0.2) }\n'
)


def _run_with_bands(tmp_path, *specs, **overrides):
    """A run whose band models are salary.scm or the given spec texts."""
    names = [
        text if text == "salary.scm" else _spec(tmp_path, text, f"band{i}.scm").name
        for i, text in enumerate(specs)
    ]
    return _run(tmp_path, band_scms=names, **overrides)


def _fit_on_the_target_alone(tmp_path):
    data = tmp_path / "s.csv"
    data.write_text("S\n1\n2\n3\n", encoding="utf-8")
    return ["fit", "--data", str(data), "--target", "S", "--out", str(tmp_path / "m.json")]


def _salary_data_with_z(tmp_path):
    """Salary data plus a column Z that no salary model holds."""
    data = read_dataset_csv(_salary_data(tmp_path))
    path = tmp_path / "dz.csv"
    z = np.linspace(0.0, 1.0, data.m)
    path.write_text(write_dataset_csv(Dataset((*data.columns, "Z"),
                                              np.column_stack([data.values, z]))))
    return path


def _run_with_feature_z(tmp_path, plots):
    """A run whose OLS predictor reads P and Z, on data that holds Z."""
    return _run(tmp_path, data=_salary_data_with_z(tmp_path).name, plots=plots,
                predictor={"kind": "ols", "target": "S", "features": ["P", "Z"]})


EXIT_CASES = {
    "success": (0, lambda t: _explain(t, "--var", "P", "--closed-form", "P",
                                      "--features", "P")),
    "run-variable-not-in-model": (2, lambda t: _run(t, variables=["Q"])),
    "run-control-unknown-variable": (
        2, lambda t: _run(t, plots=["PCDP"], controls={"Q": 1.0})),
    "run-control-on-explained-variable": (
        2, lambda t: _run(t, variables=["P", "F"], plots=["PCDP"],
                          controls={"F": 1.0})),
    "explain-control-unknown-variable": (
        2, lambda t: _explain(t, "--var", "P", "--plots", "PCDP", "--control", "Q=1",
                              "--closed-form", "P", "--features", "P")),
    "explain-control-not-finite": (
        2, lambda t: _explain(t, "--var", "P", "--plots", "PCDP", "--control", "F=inf",
                              "--closed-form", "P", "--features", "P")),
    "run-control-not-finite": (2, lambda t: _run(t, controls={"F": float("nan")})),
    "explain-control-set-twice": (
        2, lambda t: _explain(t, "--var", "P", "--plots", "PCDP", "--control", "F=1,F=2",
                              "--closed-form", "P", "--features", "P")),
    "simulate-n-zero": (
        2, lambda t: ["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "0",
                      "--out", str(t / "d.csv")]),
    "explain-grid-resolution-one": (
        2, lambda t: _explain(t, "--var", "P", "--closed-form", "P", "--features", "P",
                              "--grid-resolution", "1")),
    "explain-no-predictor": (2, lambda t: _explain(t, "--var", "P", "--features", "P")),
    "fit-trees-zero": (2, lambda t: _fit(t, "--kind", "forest", "--trees", "0")),
    "fit-degree-zero": (2, lambda t: _fit(t, "--degree", "0")),
    "discover-alpha-two": (
        2, lambda t: ["discover", "--data", str(_salary_data(t)), "--alpha", "2"]),
    "discover-max-cond-negative": (
        2, lambda t: ["discover", "--data", str(_salary_data(t)), "--max-cond", "-1"]),
    "run-forest-trees-zero": (
        2, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": 0})),
    "run-ols-degree-zero": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "degree": 0})),
    "run-discovery-alpha-two": (2, lambda t: _run_discovery(t, alpha=2)),
    "run-discovery-cap-zero": (2, lambda t: _run_discovery(t, cap=0)),
    "run-discovery-degree-zero": (2, lambda t: _run_discovery(t, degree=0)),
    "run-discovery-cap-fractional": (2, lambda t: _run_discovery(t, cap=2.5)),
    "run-grid-resolution-not-a-number": (2, lambda t: _run(t, grid_resolution="fine")),
    "run-grid-resolution-fractional": (2, lambda t: _run(t, grid_resolution=40.5)),
    "run-seed-not-a-number": (2, lambda t: _run(t, seed="x")),
    "run-seed-a-bool": (2, lambda t: _run(t, seed=True)),
    "run-forest-trees-and-depth-bools": (
        2, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": True,
                                        "depth": True})),
    "run-control-a-bool": (2, lambda t: _run(t, plots=["PCDP"], controls={"F": True})),
    "run-label-map-value-a-bool": (2, lambda t: _run(t, label_map={"benign": True})),
    "run-control-beyond-float-range": (
        2, lambda t: _run(t, plots=["PCDP"], controls={"F": 10**400})),
    "run-config-integer-too-long": (
        2, lambda t: ["run", "--config", str(_spec(t, '{"seed": 1' + "0" * 5000 + "}",
                                                   "run.json"))]),
    "run-config-json-nested-too-deeply": (
        2, lambda t: ["run", "--config", str(_spec(t, "[" * 100_000 + "]" * 100_000,
                                                   "run.json"))]),
    "discover-label-map-nested-too-deeply": (
        2, lambda t: ["discover", "--data", str(_salary_data(t)),
                      "--label-map", "[" * 5000 + "]" * 5000]),
    "simulate-eq-parentheses-too-deep": (
        2, lambda t: _simulate_eq(t, "(" * 1000 + "X" + ")" * 1000)),
    "simulate-eq-sum-too-long": (2, lambda t: _simulate_eq(t, "+".join(["X"] * 30_000))),
    "simulate-eq-minuses-too-deep": (2, lambda t: _simulate_eq(t, "-" * 5000 + "X")),
    "simulate-eq-power-chain-too-long": (2, lambda t: _simulate_eq(t, "^".join(["X"] * 3000))),
    "explain-closed-form-parentheses-too-deep": (
        2, lambda t: _explain(t, "--var", "P", "--closed-form", "(" * 2000 + "P" + ")" * 2000,
                              "--features", "P")),
    "simulate-spec-not-utf8": (
        2, lambda t: ["simulate", "--scm", str(_not_utf8(t, "m.scm")), "--n", "5",
                      "--out", str(t / "d.csv")]),
    "run-config-not-utf8": (2, lambda t: ["run", "--config", str(_not_utf8(t, "run.json"))]),
    "discover-data-not-utf8": (3, lambda t: ["discover", "--data", str(_not_utf8(t, "d.csv"))]),
    "discover-data-oversized-cell": (3, lambda t: ["discover", "--data", str(_oversized_cell(t))]),
    "explain-model-not-utf8": (
        2, lambda t: _explain(t, "--var", "P", "--model", str(_not_utf8(t, "model.json")))),
    "render-csv-not-utf8": (
        3, lambda t: ["render", "--csv", str(_not_utf8(t, "c.csv")),
                      "--svg", str(t / "c.svg")]),
    "run-simulate-n-fractional": (2, lambda t: _run(t, data={"simulate": {"n": 80.5}})),
    "run-ols-degree-not-a-number": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "degree": "two"})),
    "run-forest-trees-not-a-number": (
        2, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": "many"})),
    "run-forest-depth-fractional": (
        2, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": 2,
                                        "depth": 2.5})),
    "run-forest-bootstrap-not-a-bool": (
        2, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": 2,
                                        "bootstrap": "false"})),
    "run-forest-seed-not-a-number": (
        2, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": 2,
                                        "seed": "x"})),
    "run-external-timeout-negative": (
        2, lambda t: _run(t, predictor={"kind": "external", "command": "true",
                                        "features": ["P", "F"], "timeout": -1})),
    "explain-external-timeout-nan": (
        2, lambda t: _explain(t, "--var", "P", "--external", "true", "--features", "P,F",
                              "--timeout", "nan")),
    "run-external-timeout-not-a-number": (
        2, lambda t: _run(t, predictor={"kind": "external", "command": "true",
                                        "features": ["P", "F"], "timeout": "soon"})),
    "run-closed-form-expression-does-not-parse": (
        2, lambda t: _run(t, predictor={"kind": "closed_form", "features": ["P"],
                                        "expression": "P +"})),
    "run-closed-form-references-a-non-feature": (
        2, lambda t: _run(t, predictor={"kind": "closed_form", "features": ["P"],
                                        "expression": "P + F"})),
    "explain-missing-model": (2, lambda t: _model_file(t, None)),
    "explain-model-bad-json": (2, lambda t: _model_file(t, "{bad")),
    "explain-model-not-a-predictor": (2, lambda t: _model_file(t, '{"kind": "ols"}')),
    "explain-ols-blob-missing-a-coefficient": (
        2, lambda t: _damaged_ols(t, lambda blob: blob["coefficients"].pop())),
    "explain-ols-blob-exponent-vector-too-long": (
        2, lambda t: _damaged_ols(t, lambda blob: blob["exponents"][1].append(0))),
    "explain-ols-blob-fractional-exponent": (
        2, lambda t: _damaged_ols(t, lambda blob: blob["exponents"][1].__setitem__(0, 0.5))),
    "explain-ols-blob-negative-exponent": (
        2, lambda t: _damaged_ols(t, lambda blob: blob["exponents"][1].__setitem__(0, -1))),
    "explain-ols-blob-feature-listed-twice": (
        2, lambda t: _damaged_ols(t, lambda blob: blob.__setitem__("features", ["P", "P"]))),
    "explain-forest-blob-with-a-cycle": (
        2, lambda t: _damaged_forest(t, lambda tree: tree["left"].__setitem__(0, 0))),
    "explain-forest-blob-child-out-of-range": (
        2, lambda t: _damaged_forest(
            t, lambda tree: tree["right"].__setitem__(0, len(tree["feature"])))),
    "explain-forest-blob-fractional-index": (
        2, lambda t: _damaged_forest(t, lambda tree: tree["feature"].__setitem__(0, 0.7))),
    "explain-forest-blob-leaf-nan": (
        2, lambda t: _damaged_forest(t, lambda tree: tree["value"].__setitem__(-1, math.nan))),
    "explain-forest-blob-leaf-infinite": (
        2, lambda t: _damaged_forest(t, lambda tree: tree["value"].__setitem__(-1, -math.inf))),
    "explain-forest-blob-fractional-tree-count": (
        2, lambda t: _forest_config_set(t, "n_trees", "2.5")),
    "explain-forest-blob-tree-count-a-bool": (
        2, lambda t: _forest_config_set(t, "n_trees", "true")),
    "explain-forest-blob-tree-count-not-the-trees-saved": (
        2, lambda t: _forest_config_set(t, "n_trees", "7")),
    "explain-forest-blob-depth-below-its-trees": (
        2, lambda t: _forest_config_set(t, "max_depth", "1")),
    "explain-forest-blob-seed-not-a-number": (
        2, lambda t: _forest_config_set(t, "seed", '"x"')),
    "explain-ols-blob-degree-beyond-float-range": (2, lambda t: _ols_with_degree(t, "1e400")),
    "explain-ols-blob-fractional-degree": (2, lambda t: _ols_with_degree(t, "1.5")),
    "explain-ols-blob-degree-below-its-terms": (
        2, lambda t: _ols_with_degree(t, "1", fitted=2)),
    "explain-closed-form-blob-expression-not-text": (
        2, lambda t: _model_file(t, '{"kind": "closed_form", "features": ["P", "F"], '
                                    '"expression": 5}')),
    "explain-closed-form-blob-expression-too-deep": (
        2, lambda t: _model_file(t, json.dumps({"kind": "closed_form", "features": ["P"],
                                                "expression": "(" * 500 + "P" + ")" * 500}))),
    "explain-ols-blob-features-a-string": (
        2, lambda t: _damaged_ols(t, lambda blob: blob.__setitem__("features", "PF"))),
    "discover-bad-label-map": (2, _discover_label_map),
    "discover-label-map-integer-too-long": (
        2, lambda t: ["discover", "--data", str(_salary_data(t)),
                      "--label-map", '{"a": 1' + "0" * 5000 + "}"]),
    "simulate-out-missing-dir": (
        2, lambda t: ["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "5",
                      "--out", str(t / "nodir" / "d.csv")]),
    "discover-out-missing-dir": (
        2, lambda t: ["discover", "--data", str(_salary_data(t)),
                      "--out", str(t / "nodir" / "g.txt")]),
    "fit-out-missing-dir": (
        2, lambda t: ["fit", "--data", str(_salary_data(t)), "--target", "S",
                      "--out", str(t / "nodir" / "m.json")]),
    "render-svg-missing-dir": (2, _render_into_missing_dir),
    "run-output-dir-is-a-file": (2, _run_into_a_file),
    "run-ice-on-non-feature": (
        2, lambda t: _run(t, variables=["F"], plots=["ICE"],
                          predictor={"kind": "ols", "target": "S", "features": ["P"]})),
    "run-plot-kind-listed-twice": (2, lambda t: _run(t, plots=["ICE", "ICE"])),
    "run-variable-listed-twice": (2, lambda t: _run(t, variables=["P", "P"])),
    "explain-plot-kind-listed-twice": (
        2, lambda t: _explain(t, "--var", "P", "--plots", "ICE,ICE", "--closed-form", "P",
                              "--features", "P")),
    "run-predictor-feature-listed-twice": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": "S",
                                        "features": ["P", "P", "F"]})),
    "run-discovery-variable-listed-twice": (
        2, lambda t: _run_discovery(t, variables=["P", "P", "F", "S"])),
    "fit-feature-listed-twice": (2, lambda t: _fit(t, "--features", "P,P,F")),
    "discover-variable-listed-twice": (
        2, lambda t: ["discover", "--data", str(_salary_data(t)), "--variables", "P,P,F"]),
    "explain-feature-listed-twice": (
        2, lambda t: _explain(t, "--var", "P", "--closed-form", "P+F",
                              "--features", "P,P,F")),
    "explain-external-feature-listed-twice": (
        2, lambda t: _explain(t, "--var", "P", "--external", "true", "--features", "P,P")),
    "run-variables-not-a-list": (2, lambda t: _run(t, variables="PF")),
    "run-scm-not-a-string": (2, lambda t: _run(t, scm=5)),
    "run-explain-data-not-a-string": (2, lambda t: _run(t, explain_data=5)),
    "run-output-dir-not-a-string": (2, lambda t: _run(t, output_dir=5)),
    "run-predictor-target-not-a-string": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": 5})),
    "run-external-command-not-a-string": (
        2, lambda t: _run(t, predictor={"kind": "external", "command": 5,
                                        "features": ["P", "F"]})),
    "run-plots-not-a-list": (2, lambda t: _run(t, plots="TDP")),
    "run-predictor-features-not-a-list": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "features": "PF"})),
    "run-predictor-features-not-names": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "features": ["P", 1]})),
    "run-band-scms-not-a-list": (2, lambda t: _run(t, band_scms="salary.scm")),
    "run-discovery-variables-not-a-list": (2, lambda t: _run_discovery(t, variables="PF")),
    "run-band-model-lacks-a-feature": (
        2, lambda t: _run_with_bands(t, P_ONLY_SPEC, P_ONLY_SPEC)),
    "run-band-model-lacks-the-variable": (
        2, lambda t: _run_with_bands(
            t, P_ONLY_SPEC, P_ONLY_SPEC, variables=["F"],
            predictor={"kind": "closed_form", "features": ["P"], "expression": "P"})),
    "run-band-models-differ-in-variables": (
        2, lambda t: _run_with_bands(t, "salary.scm", P_F_SPEC)),
    "explain-pdp-on-non-feature": (
        2, lambda t: _explain(t, "--var", "F", "--plots", "PDP", "--closed-form", "P",
                              "--features", "P")),
    "run-explain-data-lacks-a-model-variable": (3, _run_explaining_p_f_only),
    "run-feature-outside-the-model": (2, lambda t: _run_with_feature_z(t, ["ICE", "TDP"])),
    "run-feature-missing-from-the-data": (
        3, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "features": ["P", "Q"]})),
    "run-target-missing-from-the-data": (
        3, lambda t: _run(t, plots=["ICE"], predictor={"kind": "forest", "target": "Q",
                                                       "features": ["P"], "trees": 2})),
    "run-explain-data-lacks-a-feature-outside-the-model": (
        3, lambda t: _run(t, data=_salary_data_with_z(t).name, plots=["ICE"],
                          explain_data=_salary_data(t).name,
                          predictor={"kind": "ols", "target": "S", "features": ["P", "Z"]})),
    "fit-target-missing-from-the-data": (
        3, lambda t: ["fit", "--data", str(_salary_data(t)), "--target", "Q",
                      "--out", str(t / "m.json")]),
    "fit-feature-missing-from-the-data": (3, lambda t: _fit(t, "--features", "P,Q")),
    "fit-target-also-a-feature": (2, lambda t: _fit(t, "--features", "P,S")),
    "fit-no-feature-besides-the-target": (2, _fit_on_the_target_alone),
    "run-target-also-a-feature": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "features": ["S", "P"]})),
    "explain-feature-missing-from-the-data": (
        3, lambda t: _explain(t, "--var", "P", "--plots", "ICE", "--closed-form", "P + Q",
                              "--features", "P,Q")),
    "render-missing-csv": (3, lambda t: _render(t, None)),
    "render-non-numeric-cell": (
        3, lambda t: _render(t, "plot_kind,unit,grid_value,value\nTDP,0,0.5,abc\n"
                                "TDP,mean,0.5,1\n")),
    "render-bad-header": (3, lambda t: _render(t, "a,b\n1,2\n")),
    "render-inf-mean": (
        3, lambda t: _render(t, "plot_kind,unit,grid_value,value\nICE,0,0.5,1.5e308\n"
                                "ICE,1,0.5,1.5e308\nICE,mean,0.5,inf\n")),
    # readable, but its values span more than the floats can draw
    "render-too-wide-to-draw": (
        3, lambda t: _render(t, "plot_kind,unit,grid_value,value\nICE,0,0.5,1e308\n"
                                "ICE,1,0.5,-1e308\nICE,mean,0.5,0\n")),
    "explain-compute-failure": (4, lambda t: _explain(t, "--var", "P", "--closed-form",
                                                      "log(P - 10)", "--features", "P")),
    "explain-mean-overflows": (
        4, lambda t: _explain(t, "--var", "P", "--plots", "ICE", "--closed-form", "P*1e308",
                              "--features", "P")),
    "fit-forest-target-squares-overflow": (4, _fit_huge_target),
    "fit-ols-degree-past-the-design-bound": (4, lambda t: _fit(t, "--degree", "200")),
    "fit-ols-degree-past-any-enumeration": (4, lambda t: _fit(t, "--degree", str(10**30))),
    "run-config-key-misspelt": (2, lambda t: _run(t, grid_resolutoin=3)),
    "run-discovery-key-misspelt": (2, lambda t: _run_discovery(t, alpah=0.1)),
    "run-simulate-key-misspelt": (2, lambda t: _run(t, data={"simulate": {"n": 80, "sed": 3}})),
    "run-predictor-key-misspelt": (
        2, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "degre": 2})),
    "run-control-unknown-variable-without-pcdp": (
        2, lambda t: _run(t, plots=["TDP"], controls={"Q": 1.0})),
    "run-control-on-explained-variable-without-pcdp": (
        2, lambda t: _run(t, plots=["TDP"], controls={"P": 1.0})),
    "explain-control-unknown-variable-without-pcdp": (
        2, lambda t: _explain(t, "--var", "P", "--plots", "TDP", "--control", "Q=1",
                              "--closed-form", "P", "--features", "P")),
    "run-predictor-counts-as-numeric-strings": (
        0, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": "2",
                                        "depth": "3.0", "seed": "1"})),
    "run-ols-degree-a-numeric-string": (
        0, lambda t: _run(t, predictor={"kind": "ols", "target": "S", "degree": "2"})),
    "run-forest-seed-negative": (
        2, lambda t: _run(t, predictor={"kind": "forest", "target": "S", "trees": 2,
                                        "seed": -1})),
    "explain-forest-blob-seed-negative": (2, lambda t: _forest_config_set(t, "seed", "-1")),
    "external-protocol-failure": (5, _mute_external),
    "external-nan-answer": (5, _nan_external),
}

EXIT_KINDS = {2: "config", 3: "data", 4: "compute", 5: "external predictor"}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code_table(tmp_path, capsys, deadline, case):
    code, argv = EXIT_CASES[case]
    argv = argv(tmp_path)
    with deadline(60):
        assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"error ({EXIT_KINDS[code]}):")
    else:
        assert err == ""


# A setting the predictors module checks, as each source gives it, and the
# wording of its one check. The fit flags cannot give a bootstrap other
# than --no-bootstrap, nor a seed argparse does not read as an int.
ONE_CHECK = {
    "trees-zero": ({"kind": "forest", "trees": 0}, ("--kind", "forest", "--trees", "0"),
                   ("n_trees", "0"), "n_trees 0 is not a whole number >= 1"),
    "bootstrap-no": ({"kind": "forest", "bootstrap": "no"}, None, ("bootstrap", '"no"'),
                     "bootstrap 'no' is not true or false"),
    "seed-x": ({"kind": "forest", "seed": "x"}, None, ("seed", '"x"'),
               "seed 'x' is not an integer"),
    "degree-zero": ({"kind": "ols", "degree": 0}, ("--degree", "0"), ("degree", "0"),
                    "degree 0 is not a whole number >= 1"),
}


def _one_check_argv(tmp_path, case, source):
    """The argv that gives ONE_CHECK[case]'s setting through source."""
    entry, flags, (saved, literal), _ = ONE_CHECK[case]
    if source == "run-config":
        return _run(tmp_path, predictor={"target": "S", **entry})
    if source == "fit-flags":
        return _fit(tmp_path, *flags)
    if saved == "degree":
        return _ols_with_degree(tmp_path, literal)
    return _forest_config_set(tmp_path, saved, literal)


@pytest.mark.parametrize("case, source", [
    (case, source) for case in sorted(ONE_CHECK)
    for source in ("run-config", "fit-flags", "saved-model")
    if source != "fit-flags" or ONE_CHECK[case][1] is not None
])
def test_a_predictor_setting_is_refused_in_one_wording_from_every_source(
        tmp_path, capsys, case, source):
    assert main(_one_check_argv(tmp_path, case, source)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (config):")
    assert ONE_CHECK[case][3] in err


def test_explain_has_no_explain_data_flag(tmp_path, capsys):
    # the flag replaced --data, which was then never read
    argv = _explain(tmp_path, "--var", "P", "--closed-form", "P", "--features", "P")
    argv[argv.index("--data") + 1] = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--explain-data", str(_salary_data(tmp_path))])
    assert exited.value.code == 2
    assert "unrecognized arguments: --explain-data" in capsys.readouterr().err


@pytest.mark.parametrize("second", [
    {"kind": "forest", "target": "S", "trees": 0},
    {"kind": "forest", "target": "S", "trees": 2, "bootstrap": "no"},
    {"kind": "ols", "target": "S", "degree": 0},
    {"kind": "closed_form", "features": ["P"], "expression": "P +"},
    {"kind": "external", "command": "true", "features": ["P"], "timeout": 0},
], ids=["trees-zero", "bootstrap-not-a-bool", "degree-zero", "bad-expression",
        "timeout-zero"])
def test_bad_predictor_settings_exit_before_any_fit(tmp_path, monkeypatch, capsys, second):
    # the second predictor's settings are checked with the config, so the
    # first is never fitted and no output directory is made
    fits = []
    monkeypatch.setattr(cli, "fit_ols", lambda *args, **kwargs: fits.append(args))
    argv = _run(tmp_path, predictors=[{"kind": "ols", "target": "S", "label": "first"},
                                      {**second, "label": "second"}])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error (config):")
    assert fits == []
    assert not (tmp_path / "out").exists()


def test_a_feature_outside_the_model_exits_before_any_fit(tmp_path, monkeypatch, capsys):
    # a causal kind needs every feature in the model, which is checked
    # before the predictor is fitted; ICE needs no model
    fits = []
    fit_ols = cli.fit_ols
    monkeypatch.setattr(cli, "fit_ols", lambda *args, **kwargs: fits.append(args) or
                        fit_ols(*args, **kwargs))
    assert main(_run_with_feature_z(tmp_path, ["TDP"])) == 2
    assert capsys.readouterr().err == (
        "error (config): predictor features missing from model: Z\n")
    assert fits == []
    assert not (tmp_path / "out").exists()
    assert main(_run_with_feature_z(tmp_path, ["ICE"])) == 0
    assert len(fits) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "P_ice.csv", "P_ice.svg", "manifest.json"]


def test_cli_starts_without_scipy():
    check = "import sys, cdplot, cdplot.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    assert _fresh("-c", check).stdout == "[]\n"


# modules a command loads only when it runs what needs them: OpenSSL's
# libcrypto (through hashlib), the external bridge and structure discovery;
# and numpy.ma, which np.unique imports and no command needs
ON_DEMAND = ("_hashlib", "subprocess", "logging", "cdplot.discovery", "numpy.ma")


def _fresh(*args, cwd=None, timeout_exponent=None):
    """A fresh interpreter's completed run of args, with OPENBLAS_THREAD_TIMEOUT
    set to timeout_exponent in its environment, or left out when None."""
    src = str(Path(cdplot.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if timeout_exponent is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout_exponent
    result = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result


def _loaded_on_demand(*args, cwd=None):
    """The ON_DEMAND modules a fresh interpreter imports running args,
    as -X importtime lists them."""
    result = _fresh("-X", "importtime", *args, cwd=cwd)
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    return sorted(imported.intersection(ON_DEMAND))


def test_importing_cdplot_loads_nothing_on_demand():
    assert _loaded_on_demand("-c", "import cdplot, cdplot.cli") == []


def test_the_package_lists_its_exports_and_refuses_other_names():
    assert set(cdplot.__all__) <= set(dir(cdplot))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cdplot.nope


def test_help_loads_nothing_on_demand():
    assert _loaded_on_demand("-m", "cdplot.cli", "--help") == []


def test_a_run_with_a_model_spec_loads_nothing_on_demand(tmp_path):
    run = (f"from cdplot.cli import main; "
           f"assert main(['run', '--config', {str(FIXTURES / 'salary.json')!r}, "
           f"'--output-dir', 'out']) == 0")
    assert _loaded_on_demand("-c", run, cwd=tmp_path) == []
    assert (tmp_path / "out" / "manifest.json").exists()


def test_discovery_loads_the_discovery_module(tmp_path):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "200",
                 "--out", str(data)]) == 0
    assert _loaded_on_demand("-m", "cdplot.cli", "discover", "--data", str(data)) == [
        "cdplot.discovery", "logging"]


def test_an_external_predictor_loads_subprocess(tmp_path):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "20",
                 "--out", str(data)]) == 0
    command = f"{sys.executable} {FIXTURES / 'external_eval.py'} 'F - P**2'"
    loaded = _loaded_on_demand(
        "-m", "cdplot.cli", "explain", "--scm", str(FIXTURES / "salary.scm"), "--data",
        str(data), "--var", "P", "--external", command, "--features", "P,F",
        "--grid-resolution", "3", "--out-dir", str(tmp_path / "out"))
    assert loaded == ["subprocess"]


# a fresh interpreter that fits a forest through main(argv) and then prints
# the ON_DEMAND modules left loaded; -X importtime would also list the
# import of _hashlib that the load of numpy.random refuses
FOREST_FIT_PROBE = """
import sys
{before}
from cdplot.cli import main
assert main({argv!r}) == 0
print(sorted(set({on_demand!r}).intersection(sys.modules)))
{after}
"""


def _forest_fit_probe(tmp_path, before="", after=""):
    """What FOREST_FIT_PROBE prints after main's report, with before and
    after around a 3-tree fit on 200 salary rows."""
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "200",
                 "--out", str(data)]) == 0
    argv = ["fit", "--data", str(data), "--target", "S", "--kind", "forest", "--trees", "3",
            "--out", str(tmp_path / "forest.json")]
    probe = FOREST_FIT_PROBE.format(before=before, argv=argv, on_demand=ON_DEMAND, after=after)
    return _fresh("-c", probe).stdout.splitlines()[1:]


def test_a_forest_fit_loads_neither_openssl_nor_numpy_ma(tmp_path):
    assert _forest_fit_probe(tmp_path) == ["[]"]


def test_hashlib_imported_after_a_forest_fit_has_openssl(tmp_path):
    after = "import hashlib; print(hashlib.sha256.__name__, '_hashlib' in sys.modules)"
    assert _forest_fit_probe(tmp_path, after=after) == ["[]", "openssl_sha256 True"]


def test_a_forest_fit_keeps_the_hashlib_a_process_loaded_first(tmp_path):
    names = ("_hashlib", "hashlib", "hmac")
    before = f"import hashlib, hmac; loaded = [sys.modules[m] for m in {names!r}]"
    after = f"print([sys.modules[m] is k for m, k in zip({names!r}, loaded)])"
    assert _forest_fit_probe(tmp_path, before=before, after=after) == [
        "['_hashlib']", "[True, True, True]"]


# a fresh interpreter's changes to OPENBLAS_THREAD_TIMEOUT and its value as
# numpy starts to load, then its value after `import cdplot.cli` (numpy sets
# and removes OPENBLAS_MAIN_FREE in the same way)
BLAS_ENV_PROBE = """
import json, os, sys
{before}
events = []
def hook(event, args):
    if event == "import" and args[0] == "numpy":
        events.append(["numpy", os.environ.get("OPENBLAS_THREAD_TIMEOUT")])
    elif event in ("os.putenv", "os.unsetenv") and args[0] == b"OPENBLAS_THREAD_TIMEOUT":
        events.append([event, *map(os.fsdecode, args)])
sys.addaudithook(hook)
import cdplot.cli
events.append(["after", os.environ.get("OPENBLAS_THREAD_TIMEOUT")])
print(json.dumps(events))
"""


@pytest.mark.parametrize("given, before, events", [
    # set for numpy's load of OpenBLAS alone
    (None, "", [["os.putenv", "OPENBLAS_THREAD_TIMEOUT", "4"], ["numpy", "4"],
                ["os.unsetenv", "OPENBLAS_THREAD_TIMEOUT"], ["after", None]]),
    ("30", "", [["numpy", "30"], ["after", "30"]]),  # the caller's own value
    (None, "import numpy", [["after", None]]),  # numpy loaded before: nothing to do
])
def test_the_blas_spin_setting_lasts_for_numpys_load_alone(given, before, events):
    probe = _fresh("-c", BLAS_ENV_PROBE.format(before=before), timeout_exponent=given)
    assert json.loads(probe.stdout) == events


# an expression for external_eval.py: 1 where the child's environment holds
# OPENBLAS_THREAD_TIMEOUT, else 0; it reaches os.environ through a class of
# the os module, as the child evaluates it without builtins
ENV_EXPRESSION = ("P * 0 + ('OPENBLAS_THREAD_TIMEOUT' in [c for c in ().__class__.__base__"
                  ".__subclasses__() if c.__name__ == '_wrap_close'][0].__init__.__globals__"
                  "['environ'])")


@pytest.mark.parametrize("given, seen", [(None, 0.0), ("30", 1.0)])
def test_an_external_child_sees_the_callers_environment(tmp_path, given, seen):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(FIXTURES / "salary.scm"), "--n", "5",
                 "--out", str(data)]) == 0
    command = f"{sys.executable} {FIXTURES / 'external_eval.py'} \"{ENV_EXPRESSION}\""
    _fresh("-m", "cdplot.cli", "explain", "--scm", str(FIXTURES / "salary.scm"), "--data",
           str(data), "--var", "P", "--external", command, "--features", "P,F",
           "--grid-resolution", "3", "--out-dir", str(tmp_path / "out"),
           timeout_exponent=given)
    curves = import_csv((tmp_path / "out" / "P_tdp.csv").read_text(encoding="utf-8"), "P")
    assert np.all(curves.curves == seen) and np.all(curves.mean == seen)


# configs whose canonical JSON holds non-ASCII keys and values, escaped or not
HASHED_CONFIGS = (
    {},
    {"scm": "salary.scm", "variables": ["P"], "seed": 5},
    {"label_map": {"bénin": 2, "malin": 1}, "output_dir": "résultats/été"},
    {"variables": ["Ω", "x"], "controls": {"M": -0.0}, "nested": [[1.5e300], None, True]},
    {"output_dir": Path("out") / "ünits", "grid_resolution": 40},  # default=str
)


@pytest.mark.parametrize("raw", HASHED_CONFIGS)
def test_config_hash_is_hashlibs_sha256(raw):
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str)
    assert cli._config_hash(raw) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")])
def test_config_hash_takes_the_first_sha256_module_not_blocked(blocked, monkeypatch):
    # each module not blocked records its use; the first computes the digest
    used = []
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    for name in ("_sha2", "_sha256", "hashlib")[len(blocked):]:
        sha256 = lambda data, name=name: used.append(name) or hashlib.sha256(data)
        monkeypatch.setitem(sys.modules, name, types.SimpleNamespace(sha256=sha256))
    raw = HASHED_CONFIGS[2]
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str)
    assert cli._config_hash(raw) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert used == [("_sha2", "_sha256", "hashlib")[len(blocked)]]


def test_manifest_config_hash_of_a_fixed_config(tmp_path, monkeypatch):
    # the digest every earlier version wrote for this config
    _copy_fixture(tmp_path, "salary.scm")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(_write_config(tmp_path, output_dir="out"))]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == (
        "8ddaa5da56961a4d0b1454a5da8b0e50ea79b110bc0242b930303f3809c8b457")


# --- the run pipeline ------------------------------------------------------


def test_run_writes_curves_and_manifest(tmp_path, capsys):
    _copy_fixture(tmp_path, "salary.scm")
    config = _write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "P_nddp.csv", "P_nddp.svg", "P_tdp.csv", "P_tdp.svg", "manifest.json",
    ]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"]["data"] == "simulate(n=80, seed=5)"
    assert manifest["seed"] == 5
    assert len(manifest["config_hash"]) == 64
    assert manifest["outputs"] == names[:-1]
    assert manifest["deviations"] == []
    assert "P_tdp.csv" in capsys.readouterr().out


def test_run_is_deterministic(tmp_path):
    _copy_fixture(tmp_path, "salary.scm")
    config = _write_config(tmp_path, plots=["TDP", "NIDP"])
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "--config", str(config)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_run_records_the_nidp_note(tmp_path):
    _copy_fixture(tmp_path, "salary.scm")
    config = _write_config(tmp_path, plots=["NIDP"])
    assert main(["run", "--config", str(config)]) == 0
    manifest = json.loads(
        (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8")
    )
    assert any("nidp" in note for note in manifest["deviations"])


def test_run_prefixes_files_per_predictor(tmp_path):
    _copy_fixture(tmp_path, "salary.scm")
    config = _write_config(
        tmp_path,
        predictor=None,
        predictors=[
            {"label": "linear", "kind": "ols", "target": "S", "degree": 1},
            {
                "label": "oracle",
                "kind": "closed_form",
                "features": ["P", "F"],
                "expression": "F - P^2",
            },
        ],
        plots=["TDP"],
    )
    assert main(["run", "--config", str(config)]) == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == [
        "linear_P_tdp.csv", "linear_P_tdp.svg", "manifest.json",
        "oracle_P_tdp.csv", "oracle_P_tdp.svg",
    ]


def test_run_writes_band_files(tmp_path):
    _copy_fixture(tmp_path, "salary.scm")
    _copy_fixture(tmp_path, "salary_independent.scm")
    config = _write_config(
        tmp_path,
        plots=["TDP"],
        band_scms=["salary.scm", "salary_independent.scm"],
        data={"simulate": {"n": 60, "seed": 5}},
    )
    assert main(["run", "--config", str(config)]) == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "P_tdp_band.csv" in names
    assert "P_tdp_band.svg" in names


def test_band_model_variable_missing_from_the_data_exits_before_any_fit(tmp_path, capsys):
    extra = "var Q { noise = normal(0.0, 1.0) }\n"
    salary = (FIXTURES / "salary.scm").read_text(encoding="utf-8")
    argv = _run_with_bands(tmp_path, salary + extra, salary + extra)
    assert main(argv) == 3
    assert "'Q'" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_run_output_dir_flag_overrides_the_config(tmp_path):
    _copy_fixture(tmp_path, "salary.scm")
    config = _write_config(tmp_path, plots=["TDP"])
    elsewhere = tmp_path / "elsewhere"
    assert main(["run", "--config", str(config), "--output-dir",
                 str(elsewhere)]) == 0
    assert (elsewhere / "manifest.json").exists()
    assert not (tmp_path / "out").exists()


def test_failed_run_leaves_no_partial_outputs(tmp_path, capsys):
    # The TDP curves are written before ICE fails: in the TDP world F
    # follows 2*P^3, so the log's argument stays near 1, while ICE pairs
    # a high grid P with a low observed F and takes the log of a
    # negative number.
    _copy_fixture(tmp_path, "salary.scm")
    config = _write_config(
        tmp_path,
        predictor={"kind": "closed_form", "features": ["P", "F"],
                   "expression": "log(F - 2*P^3 + 1)"},
        variables=["P"],
        plots=["TDP", "ICE"],
    )
    assert main(["run", "--config", str(config)]) == 4
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())
    assert "log" in capsys.readouterr().err


class _FullDisk:
    """A text file whose second write runs out of space."""

    def __init__(self, handle):
        self.handle, self.writes = handle, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(text)

    def close(self):
        self.handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def test_a_write_that_fails_midway_leaves_no_partial_file(tmp_path, monkeypatch):
    # c.txt gets its first 10-character slice before the disk is full; the
    # failed block must remove it along with a.txt
    monkeypatch.setattr(cli, "_WRITE_SLICE", 10)

    def full_disk_open(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        return _FullDisk(handle) if Path(path).name == "c.txt" else handle

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="No space left"):
        with cli._Outputs(out) as outputs:
            outputs.write("a.txt", "a" * 25)
            outputs.write("c.txt", "c" * 25)
    assert list(out.iterdir()) == []


def test_outputs_append_the_pieces_of_a_file(tmp_path):
    with cli._Outputs(tmp_path) as outputs:
        outputs.write("a.txt", "one ", more=True)
        outputs.write("b.txt", "other")
        outputs.write("a.txt", "two ", more=True)
        outputs.write("a.txt", "three")
    assert outputs.written == [tmp_path / "a.txt", tmp_path / "b.txt"]
    assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "one two three"


def _outputs_of(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("fixture, overrides", [
    ("salary.json", {"plots": list(PLOT_KINDS)}),
    ("mediation.json", {}),
])
def test_curve_files_written_in_pieces_keep_their_bytes(tmp_path, monkeypatch, fixture,
                                                        overrides):
    # 500 units: 2 pieces a file at the default size, 72 at 7 units
    out = tmp_path / "out"  # the manifest's config hash covers the directory
    config = load_run_config(FIXTURES / fixture, {**overrides, "output_dir": str(out)})
    run_pipeline(config)
    default = _outputs_of(out)
    monkeypatch.setattr(cli, "_PIECE_UNITS", 7)
    run_pipeline(config)
    assert _outputs_of(out) == default


def test_a_failure_between_pieces_leaves_no_output_file(tmp_path, monkeypatch, capsys):
    # 30 units in 5 pieces: the CSV is whole and the SVG has 2 pieces when
    # the third SVG piece fails
    monkeypatch.setattr(cli, "_PIECE_UNITS", 7)
    out = tmp_path / "out"
    calls = []
    render_curves = render.render_curves

    def failing(curve_set, **kwargs):
        calls.append(kwargs["units"])
        if len(calls) == 3:
            assert sorted(p.name for p in out.iterdir()) == ["P_tdp.csv", "P_tdp.svg"]
            raise engine.EngineError("third piece")
        return render_curves(curve_set, **kwargs)

    monkeypatch.setattr(render, "render_curves", failing)
    argv = _run(tmp_path, plots=["TDP"], data={"simulate": {"n": 30, "seed": 5}})
    assert main(argv) == 4
    assert calls == [range(0, 7), range(7, 14), range(14, 21)]
    assert list(out.iterdir()) == []
    assert "third piece" in capsys.readouterr().err


def test_writing_a_curve_group_holds_no_whole_file(tmp_path):
    # formatting and writing hold one piece of a few hundred units and a
    # relabel of it, not the text of a whole file
    curves = np.random.default_rng(0).normal(size=(2000, 40))
    ice = engine.CurveSet("ICE", engine.Grid("P", np.linspace(0.0, 1.0, 40)), curves,
                          curves.mean(axis=0))
    size = len(render.export_csv(ice))
    writers = (("csv", render.export_csv), ("svg", render.render_curves))
    tracemalloc.start()
    try:
        with cli._Outputs(tmp_path) as outputs:
            cli._write_curves(outputs, "P_", [ice, ice.relabel("PDP")], writers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "P_pdp.csv").stat().st_size == size
    assert peak < size / 3


def _ice_table(tmp_path, units):
    curves = np.random.default_rng(0).normal(size=(units, 40))
    ice = engine.CurveSet("ICE", engine.Grid("P", np.linspace(0.0, 1.0, 40)), curves,
                          curves.mean(axis=0))
    path = tmp_path / "P_ice.csv"
    path.write_text(render.export_csv(ice), encoding="utf-8")
    return ice, path


def test_render_holds_no_whole_file(tmp_path):
    # the table is parsed from the file a block of rows at a time, and the
    # SVG written a piece at a time, as run writes it
    ice, path = _ice_table(tmp_path, 2000)
    svg = tmp_path / "P.svg"
    tracemalloc.start()
    try:
        assert main(["render", "--csv", str(path), "--svg", str(svg), "--var", "P"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.read_text(encoding="utf-8") == render.render_curves(ice)
    assert peak < path.stat().st_size / 3


def test_a_render_whose_write_fails_midway_leaves_no_svg(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_SLICE", 10)

    def full_disk_open(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        return _FullDisk(handle) if Path(path).suffix == ".svg" else handle

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    _, path = _ice_table(tmp_path, 3)
    svg = tmp_path / "P.svg"
    assert main(["render", "--csv", str(path), "--svg", str(svg), "--var", "P"]) == 2
    assert not svg.exists()


def test_traced_pieces_count_the_bytes_on_disk(tmp_path, monkeypatch):
    # the benchmark's shims time one call per piece and add up its bytes
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(cli, "_PIECE_UNITS", 7)
    _copy_fixture(tmp_path, "salary.scm")
    config = load_run_config(_write_config(tmp_path, variables=["P", "F"],
                                           plots=list(PLOT_KINDS)))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        run_pipeline(config)
    files = _outputs_of(tmp_path / "out")
    on_disk = {ext: sum(len(text) for name, text in files.items() if name.endswith(ext))
               for ext in (".csv", ".svg", "")}
    assert tracer.counts["render.csv_calls"] == 12 * 12  # 80 units in 12 pieces
    assert tracer.counts["render.csv_bytes"] == on_disk[".csv"]
    assert tracer.counts["render.svg_bytes"] == on_disk[".svg"]
    assert tracer.counts["cli.bytes_written"] == on_disk[""]


def test_run_discovery_records_the_graph(tmp_path):
    spec = _spec(tmp_path, CHAIN_SPEC)
    data = tmp_path / "d.csv"
    assert main(["simulate", "--scm", str(spec), "--n", "1500", "--seed", "4",
                 "--out", str(data)]) == 0
    config = {
        "discovery": {"alpha": 0.05, "max_cond": 2, "degree": 1},
        "data": "d.csv",
        "predictor": {"kind": "ols", "target": "Y", "degree": 1},
        "variables": ["X"],
        "plots": ["TDP"],
        "grid_resolution": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = _spec(tmp_path, json.dumps(config), "run.json")
    assert main(["run", "--config", str(path)]) == 0
    manifest = json.loads(
        (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8")
    )
    block = manifest["inputs"]["discovery"]
    assert block["cpdag"] == ["M -- X", "M -- Y"]
    assert block["collider_conflicts"] == block["contested"] == []
    assert block["candidates"] >= 1
    # the manifest records the full chosen orientation of the skeleton
    pairs = {tuple(sorted(edge.split(" -> "))) for edge in block["chosen_dag"]}
    assert pairs == {("M", "X"), ("M", "Y")}


def test_run_discovery_records_undecided_edges(tmp_path):
    # a latent L behind B and C: the triples B - C - D and C - B - E vote
    # B - C both ways, and propagation pushes it both ways too
    rng = np.random.default_rng(0)
    latent, d, e = rng.normal(size=(3, 2000))
    b = latent + e + 0.5 * rng.normal(size=2000)
    c = latent + d + 0.5 * rng.normal(size=2000)
    data = Dataset(("B", "C", "D", "E"), np.column_stack([b, c, d, e]))
    (tmp_path / "d.csv").write_text(write_dataset_csv(data), encoding="utf-8")
    config = {
        "discovery": {"degree": 1},
        "data": "d.csv",
        "predictor": {"kind": "ols", "target": "C", "features": ["B", "D"], "degree": 1},
        "variables": ["D"],
        "plots": ["TDP"],
        "grid_resolution": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = _spec(tmp_path, json.dumps(config), "run.json")
    assert main(["run", "--config", str(path)]) == 0
    manifest = json.loads(
        (tmp_path / "out" / "manifest.json").read_text(encoding="utf-8")
    )
    block = manifest["inputs"]["discovery"]
    assert block["cpdag"] == ["B -- C", "D -> C", "E -> B"]
    assert block["collider_conflicts"] == ["B -- C"]
    assert block["contested"] == ["B -- C"]
    assert block["candidates"] == 2


def _count_predict_rows(monkeypatch):
    """Record the row count of every Predictor.predict call."""
    rows = []
    predict = Predictor.predict

    def counting(self, x):
        rows.append(len(x))
        return predict(self, x)

    monkeypatch.setattr(Predictor, "predict", counting)
    return rows


@pytest.mark.parametrize("plots, controls, sweeps", [
    (["ICE", "PDP"], {}, 1),
    (["PDP", "ICE"], {}, 1),
    (["TDP", "PCDP"], {}, 1),
    (["PCDP", "TDP"], {}, 1),
    (["ICE", "PDP", "TDP", "PCDP"], {}, 2),
    (["TDP", "PCDP"], {"F": 1.0}, 2),
    (["PDP", "PCDP"], {"F": 1.0}, 2),
])
def test_run_sweeps_each_distinct_curve_once(tmp_path, monkeypatch, plots, controls, sweeps):
    _assert_sweeps(tmp_path, monkeypatch, sweeps, plots=plots, controls=controls)


def _assert_sweeps(tmp_path, monkeypatch, sweeps, **overrides):
    """A salary run with the config overrides predicts sweeps * 5 grid
    points of 80 units each, all for one explained variable."""
    _copy_fixture(tmp_path, "salary.scm")
    config = load_run_config(_write_config(tmp_path, **overrides))
    rows = _count_predict_rows(monkeypatch)
    run_pipeline(config)
    grid_points, units = 5, 80
    assert rows == [units] * (sweeps * grid_points)


# The NDDP cases of the test above; they vary the variable and the model
# too. NDDP shares a sweep when its pins on the features and their
# ancestors are another kind's: of P, it holds F, the only other feature,
# at its observed column, as ICE does; of F, it holds only S, which no
# feature reads, so it pins what TDP pins. In the chain X -> M -> Y with
# features X and Y it holds M, and Y responds to M, so no other kind
# sweeps its world.
@pytest.mark.parametrize("variable, plots, sweeps", [
    ("P", ["ICE", "NDDP"], 1),
    ("P", ["NDDP", "PDP"], 1),
    ("P", ["ICE", "TDP", "NDDP"], 2),
    ("F", ["TDP", "NDDP"], 1),
    ("F", ["NDDP", "PCDP", "TDP"], 1),
    ("F", ["ICE", "TDP", "NDDP"], 2),
    ("X", ["ICE", "TDP", "NDDP"], 3),
])
def test_run_sweeps_nddp_with_the_kind_whose_world_it_shares(
    tmp_path, monkeypatch, variable, plots, sweeps
):
    overrides = {}
    if variable == "X":
        overrides = {"scm": _spec(tmp_path, CHAIN_SPEC).name, "predictor": {
            "kind": "closed_form", "features": ["X", "Y"], "expression": "X - Y^2"}}
    _assert_sweeps(tmp_path, monkeypatch, sweeps, variables=[variable], plots=plots,
                   **overrides)


def _on_its_own(kind, ecm, data, var, grid, controls):
    """The curve set of one kind, computed by the engine for itself."""
    if kind in ("ICE", "PDP"):
        return dataclasses.replace(engine.ice(ecm.predictor, data, var, grid), kind=kind)
    if kind == "PCDP":
        return engine.pcdp(ecm, data, var, grid, controls)
    sweep = {"TDP": engine.tdp, "NDDP": engine.nddp, "NIDP": engine.nidp}[kind]
    return sweep(ecm, data, var, grid)


# each order puts a kind that relabels another's text before its source;
# the last writes NDDP first, which of P has ICE's world and of F TDP's
RELABEL_ORDERS = [
    list(PLOT_KINDS), ["PDP", "ICE", "PCDP", "TDP"], ["NDDP", "PCDP", "PDP", "TDP", "ICE"],
]


def test_reused_pdp_and_pcdp_curves_match_the_engine(tmp_path):
    # every file of a run has the bytes of its curve set exported on its
    # own, also where PDP and PCDP relabel the ICE and TDP text
    _copy_fixture(tmp_path, "salary.scm")
    scm = load_scm_spec(FIXTURES / "salary.scm")
    data, _ = sample(scm, 80, 5)
    ecm = engine.build_ecm(scm, fit_ols(data, "S", ("P", "F"), 2))
    for case, (plots, controls) in enumerate(
        itertools.product(RELABEL_ORDERS, [{}, {"S": 1.0}])
    ):
        out = tmp_path / f"out{case}"
        config = _write_config(tmp_path, variables=["P", "F"], plots=plots,
                               controls=controls, output_dir=str(out))
        assert main(["run", "--config", str(config)]) == 0
        for var in ("P", "F"):
            grid = engine.make_grid(data, var, 5)
            for kind in plots:
                curve_set = _on_its_own(kind, ecm, data, var, grid, controls)
                stem = out / f"{var}_{kind.lower()}"
                csv = stem.with_suffix(".csv").read_text(encoding="utf-8")
                assert csv == render.export_csv(curve_set), (plots, controls, stem)
                svg = stem.with_suffix(".svg").read_text(encoding="utf-8")
                assert svg == render.render_curves(curve_set), (plots, controls, stem)
        control = "control(S=1.0)" if controls else "control()"
        assert control in (out / "P_pcdp.svg").read_text(encoding="utf-8")


def test_explain_files_match_the_engine(tmp_path):
    data_path = _salary_data(tmp_path)
    scm = load_scm_spec(FIXTURES / "salary.scm")
    data = read_dataset_csv(data_path)
    ecm = engine.build_ecm(scm, ClosedFormPredictor("F - P^2", ("P", "F")))
    grid = engine.make_grid(data, "P", 40)
    for case, (plots, controls) in enumerate(
        itertools.product(RELABEL_ORDERS, [{}, {"S": 1.0}])
    ):
        out = tmp_path / f"out{case}"
        argv = ["explain", "--scm", str(FIXTURES / "salary.scm"), "--data", str(data_path),
                "--out-dir", str(out), "--var", "P", "--plots", ",".join(plots),
                "--closed-form", "F - P^2", "--features", "P,F"]
        assert main(argv + (["--control", "S=1"] if controls else [])) == 0
        for kind in plots:
            expected = render.export_csv(_on_its_own(kind, ecm, data, "P", grid, controls))
            text = (out / f"P_{kind.lower()}.csv").read_text(encoding="utf-8")
            assert text == expected, (plots, controls, kind)


def test_run_formats_each_distinct_sweep_once(tmp_path, monkeypatch):
    # kinds that share a world key relabel its text: P formats ICE (also
    # PDP and NDDP), TDP (also PCDP) and NIDP; F formats ICE (also PDP),
    # TDP (also PCDP and NDDP) and NIDP; so 6 matrices, not 12
    _copy_fixture(tmp_path, "salary.scm")
    config = load_run_config(
        _write_config(tmp_path, variables=["P", "F"], plots=list(PLOT_KINDS))
    )
    calls = {"table": 0, "points": 0}
    table, points = render._table, render._Frame.points

    def counting_table(*args):
        calls["table"] += 1
        return table(*args)

    def counting_points(self, xs, rows):
        calls["points"] += 1
        return points(self, xs, rows)

    monkeypatch.setattr(render, "_table", counting_table)
    monkeypatch.setattr(render._Frame, "points", counting_points)
    manifest = run_pipeline(config)
    assert len(manifest["outputs"]) == 2 * 2 * 6
    assert calls == {"table": 6, "points": 2 * 6}  # points: the units, then the mean


def test_flat_curve_beyond_two_to_the_53_renders(tmp_path, capsys):
    # all values equal 1e17, where a +-0.5 pad around the y range is lost
    argv = _explain(tmp_path, "--var", "P", "--plots", "ICE",
                    "--closed-form", "P*0 + 100000000000000000", "--features", "P")
    assert main(argv) == 0
    svg = tmp_path / "P_ice.svg"
    assert main(["render", "--csv", str(tmp_path / "out" / "P_ice.csv"),
                 "--svg", str(svg)]) == 0
    assert svg.read_text(encoding="utf-8").count("<polyline") == 11
