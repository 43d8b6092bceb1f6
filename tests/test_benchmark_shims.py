"""The benchmark's timing shims (perfbench/tracing.py) must see every
call they time. A shim replaces a module attribute, so a caller that
bound the function at import time would bypass it and a layer would
read 0 without any error."""

import importlib
import json
from collections import Counter
from importlib import resources
from pathlib import Path

from cdplot.cli import PLOT_KINDS, load_run_config, main, run_pipeline

ROOT = Path(__file__).resolve().parents[1]
SALARY = Path(str(resources.files("cdplot").joinpath("fixtures", "salary.scm")))
CHAIN = """\
scm chain
var X { noise = normal(0.0, 1.0) }
var M { parents = [X]; eq = "X"; noise = normal(0.0, 0.5) }
var Y { parents = [M]; eq = "M"; noise = normal(0.0, 0.5) }
"""


def test_traced_run_times_every_file_and_kind(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    config = {
        "scm": str(SALARY),
        "data": {"simulate": {"n": 50, "seed": 1}},
        "predictor": {"kind": "ols", "target": "S", "features": ["P", "F"], "degree": 2},
        "variables": ["P", "F"],
        "plots": list(PLOT_KINDS),
        "grid_resolution": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        manifest = run_pipeline(load_run_config(path))
    extensions = Counter(Path(name).suffix for name in manifest["outputs"])
    assert extensions == {".csv": 12, ".svg": 12}
    assert tracer.counts["render.csv_calls"] == extensions[".csv"]
    assert tracer.counts["render.svg_calls"] == extensions[".svg"]
    spans = Counter(span.name for span in tracer.spans if span.name.startswith("engine."))
    assert spans == {f"engine.{kind}": 2 for kind in PLOT_KINDS}


def test_traced_discovery_run_times_each_step_once(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    spec = tmp_path / "chain.scm"
    spec.write_text(CHAIN, encoding="utf-8")
    assert main(["simulate", "--scm", str(spec), "--n", "1500", "--seed", "4",
                 "--out", str(tmp_path / "d.csv")]) == 0
    config = {
        "discovery": {"alpha": 0.05, "max_cond": 2, "degree": 1},
        "data": "d.csv",
        "predictor": {"kind": "ols", "target": "Y", "degree": 1},
        "variables": ["X"],
        "plots": ["TDP"],
        "grid_resolution": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        run_pipeline(load_run_config(path))
    spans = Counter(span.name for span in tracer.spans if span.name.startswith("discovery."))
    steps = ("skeleton", "orient", "enumerate", "fit_anm")
    assert {f"discovery.{step}": 1 for step in steps}.items() <= spans.items()
    assert tracer.counts["discovery.ci_test_calls"] > 0
