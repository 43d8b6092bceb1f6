"""Per-layer timing of one in-process `cli.run_pipeline` call.

`traced(tracer)` wraps the module attributes the pipeline calls through
in timing shims and restores them afterwards; the program itself is not
modified. Spans (name, start, end, parent) and counts stay in memory.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass

from cdplot import cli, engine, render, scm
from cdplot import discovery as disc
from cdplot.predictors import Predictor


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def shim(self, name, fn, count=None):
        """Wrap fn in a span; name may be a function of the call's
        arguments, count(result, args) adds to counters."""

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(label, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._open.pop()
            self.counts[label + "_calls"] += 1
            if count is not None:
                for key, value in count(result, args).items():
                    self.counts[key] += value
            return result

        return wrapper

    def seconds(self, prefix: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name.startswith(prefix))

    def self_seconds(self, prefix: str) -> float:
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.end - span.start
        return sum(
            s.end - s.start - children[i]
            for i, s in enumerate(self.spans)
            if s.name.startswith(prefix)
        )


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every shim."""

    def nbytes(text):
        return len(text.encode("utf-8"))

    return [
        (render, "export_csv", tracer.shim(
            "render.csv", render.export_csv, lambda r, a: {"render.csv_bytes": nbytes(r)})),
        (render, "render_curves", tracer.shim(
            "render.svg", render.render_curves, lambda r, a: {"render.svg_bytes": nbytes(r)})),
        (cli, "_compute_plot", tracer.shim(
            lambda kind, *rest: f"engine.{kind}", cli._compute_plot)),
        (cli, "fit_ols", tracer.shim("predictors.fit", cli.fit_ols)),
        (cli, "fit_forest", tracer.shim("predictors.fit", cli.fit_forest)),
        (cli, "open_external", tracer.shim("predictors.fit", cli.open_external)),
        (cli, "sample", tracer.shim("scm.sample", cli.sample)),
        (cli, "read_dataset_csv", tracer.shim("cli.read_csv", cli.read_dataset_csv)),
        (cli._Outputs, "write", tracer.shim(
            "cli.write", cli._Outputs.write, lambda r, a: {"cli.bytes_written": nbytes(a[2])})),
        (Predictor, "predict", tracer.shim(
            "predictors.predict", Predictor.predict, lambda r, a: {"predictors.rows": len(a[1])})),
        (engine, "abduct", tracer.shim("scm.abduct", engine.abduct)),
        (engine, "counterfactual_table", tracer.shim(
            "scm.counterfactual", engine.counterfactual_table)),
        (scm, "evaluate_batch", tracer.shim("expr.eval", scm.evaluate_batch)),
        (disc, "pc_skeleton", tracer.shim("discovery.skeleton", disc.pc_skeleton)),
        (disc, "fisher_z_test", tracer.shim("discovery.ci_test", disc.fisher_z_test)),
        (disc, "orient_cpdag", tracer.shim(
            "discovery.orient", disc.orient_cpdag,
            lambda r, a: {"discovery.undirected_edges": len(r.undirected)})),
        (disc, "enumerate_dags", tracer.shim(
            "discovery.enumerate", disc.enumerate_dags,
            lambda r, a: {"discovery.dags": len(r.dags)})),
        (disc, "fit_anm", tracer.shim("discovery.fit_anm", disc.fit_anm)),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the shims for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, points: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    c = tracer.counts
    metrics = {
        "render.csv_s": (tracer.seconds("render.csv"), "s"),
        "render.svg_s": (tracer.seconds("render.svg"), "s"),
        "render.csv_bytes": (c["render.csv_bytes"], "bytes"),
        "render.svg_bytes": (c["render.svg_bytes"], "bytes"),
        "predictors.predict_s": (tracer.seconds("predictors.predict"), "s"),
        "predictors.predict_calls": (c["predictors.predict_calls"], "count"),
        "predictors.rows": (c["predictors.rows"], "count"),
        "predictors.rows_per_point": (c["predictors.rows"] / points, "ratio"),
        "predictors.fit_s": (tracer.seconds("predictors.fit"), "s"),
        "discovery.skeleton_s": (tracer.seconds("discovery.skeleton"), "s"),
        "discovery.ci_tests": (c["discovery.ci_test_calls"], "count"),
        "discovery.orient_s": (tracer.seconds("discovery.orient"), "s"),
        "discovery.enumerate_s": (tracer.seconds("discovery.enumerate"), "s"),
        "discovery.undirected_edges": (c["discovery.undirected_edges"], "count"),
        "discovery.dags": (c["discovery.dags"], "count"),
        "discovery.fit_anm_s": (tracer.seconds("discovery.fit_anm"), "s"),
        "scm.sample_s": (tracer.seconds("scm.sample"), "s"),
        "scm.abduct_calls": (c["scm.abduct_calls"], "count"),
        "scm.abduct_s": (tracer.seconds("scm.abduct"), "s"),
        "scm.counterfactual_calls": (c["scm.counterfactual_calls"], "count"),
        "scm.counterfactual_s": (tracer.seconds("scm.counterfactual"), "s"),
        "expr.eval_calls": (c["expr.eval_calls"], "count"),
        "expr.eval_s": (tracer.seconds("expr.eval"), "s"),
    }
    for kind in cli.PLOT_KINDS:
        metrics[f"engine.{kind}_s"] = (tracer.seconds(f"engine.{kind}"), "s")
    metrics["engine.self_s"] = (tracer.self_seconds("engine."), "s")
    metrics["cli.read_csv_s"] = (tracer.seconds("cli.read_csv"), "s")
    metrics["cli.write_s"] = (tracer.seconds("cli.write"), "s")
    metrics["cli.bytes_written"] = (c["cli.bytes_written"], "bytes")
    return metrics
