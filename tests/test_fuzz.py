"""Fuzzers over `cdplot run` and `cdplot render`: mutated bundled run
configs end in one of the documented exit codes, never a traceback, and a
failed run leaves no file behind; a mutated curve table renders or is a
data error."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdplot.cli import main
from cdplot.engine import CurveSet, Grid
from cdplot.render import export_csv

FIXTURES = Path(str(resources.files("cdplot").joinpath("fixtures")))

# Replacement values of another JSON type. Numbers stay small: a larger
# simulate n, grid_resolution, degree or tree count only makes a valid run
# slower (see ROADMAP item 13 for their ceilings).
SWAPS = [None, True, False, 0, -1, 1, 2.5, "", "1", "Q", "P", "M", "TDP", [], ["Q"], {},
         {"Q": 1}]
NON_FINITE = [math.nan, math.inf, -math.inf]
NAMES = ["Q", "P", "F", "X", "M", "PCDP", "label"]


def _base(name: str) -> dict:
    """A bundled run config with absolute model paths, at most 40
    simulated rows and 5 grid values, writing under the working
    directory."""
    config = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    config["scm"] = str(FIXTURES / config["scm"])
    if "band_scms" in config:
        config["band_scms"] = [str(FIXTURES / p) for p in config["band_scms"]]
    config["data"]["simulate"]["n"] = min(config["data"]["simulate"]["n"], 40)
    config["grid_resolution"] = min(config["grid_resolution"], 5)
    config["output_dir"] = "out"
    return config


BASES = {name: _base(name) for name in ("salary.json", "mediation.json", "salary_band.json")}


def _paths(node, path=()):
    """The path of every value in a JSON tree, the root first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(config, draw) -> None:
    """Apply one drawn mutation to config in place."""
    path = draw(st.sampled_from(list(_paths(config))[1:]))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    how = draw(st.sampled_from(["drop", "swap", "non-finite", "name", "duplicate"]))
    if how == "drop":
        del parent[key]
    elif how == "swap":
        parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    elif how == "non-finite":
        parent[key] = draw(st.sampled_from(NON_FINITE))
    elif how == "name" and isinstance(value, dict) and value:
        # rename one key, keeping its value
        old = draw(st.sampled_from(sorted(value)))
        value[draw(st.sampled_from(NAMES))] = value.pop(old)
    elif how == "name" and isinstance(value, list):
        value.append(draw(st.sampled_from(NAMES)))
    elif how == "name":
        parent[key] = draw(st.sampled_from(NAMES))
    elif isinstance(value, list) and value:
        value.append(copy.deepcopy(draw(st.sampled_from(value))))
    else:
        parent[key] = [value, value]


@st.composite
def _configs(draw) -> str:
    """The text of a mutated bundled run config, perhaps truncated."""
    config = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        _mutate(config, draw)
    text = json.dumps(config)  # NaN and Infinity as the decoder reads them
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _files(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs())
def test_mutated_run_configs_exit_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "run.json").write_text(text, encoding="utf-8")
        before = _files(root)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # a relative output_dir resolves here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(root / "run.json")])
        finally:
            os.chdir(cwd)
        # of the documented codes 0/2/3/4/5, not 4: the bundled models
        # compute without failure at these sizes, so a mutation can only
        # break the config (2) or what it names in the data (3), and an
        # exit 4 is such a mistake found only in the fit
        assert code in {0, 2, 3, 5}, (code, err.getvalue(), text)
        if code:
            assert err.getvalue().startswith("error ("), (code, err.getvalue(), text)
            assert _files(root) == before, (code, err.getvalue(), text)


# A small curve table with negative values, an exponent, a zero and a
# value that needs all 17 digits: the bytes a mutation works on.
_CURVES = np.array([[0.5, -1.25, 2.5e-07, 3.0], [1 / 3, 0.0, -2.0, 1e5], [7.0, 8.5, -0.125, 2.0]])
_TABLE = export_csv(CurveSet("ICE", Grid("x", [0.0, 0.5, 1.5, 4.0]), _CURVES,
                             _CURVES.mean(axis=0))).encode("utf-8")
_BYTES = [b"0", b"7", b"-", b".", b"e", b",", b"\n", b"\r", b" ", b'"', b"m", b"_", b"\x00",
          b"\xff", b"\xc3"]


@st.composite
def _curve_tables(draw) -> bytes:
    """The bytes of the curve table with one to four line or byte
    mutations: a line dropped, repeated, moved or blanked, or a byte
    replaced, inserted or deleted."""
    data = _TABLE
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["drop", "repeat", "move", "blank", "replace", "insert",
                                    "delete"]))
        if how in ("drop", "repeat", "move", "blank"):
            lines = data.split(b"\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            line = lines.pop(i) if how in ("drop", "move") else lines[i]
            if how != "drop":
                lines.insert(j, line if how != "blank" else b"")
            data = b"\n".join(lines)
        else:
            at = draw(st.integers(0, max(len(data) - 1, 0)))
            byte = draw(st.sampled_from(_BYTES))
            data = data[:at] + (byte if how != "delete" else b"") + data[at + (how != "insert"):]
    return data


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_curve_tables())
def test_mutated_curve_tables_render_or_exit_3(data):
    with tempfile.TemporaryDirectory() as scratch:
        table, svg = Path(scratch) / "t.csv", Path(scratch) / "t.svg"
        table.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["render", "--csv", str(table), "--svg", str(svg)])
        # a table render cannot read is a data error, and it writes no SVG
        assert code in {0, 3}, (code, err.getvalue(), data)
        assert svg.exists() == (code == 0), (code, err.getvalue(), data)
        if code:
            assert err.getvalue().startswith("error (data): "), (err.getvalue(), data)
