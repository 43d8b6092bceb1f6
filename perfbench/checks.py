"""Output checks for one `cdplot run`.

`check_outputs` holds at any seed: the manifest lists exactly the
expected files, every CSV round-trips through `import_csv`, every SVG
has m + 1 polylines, PDP's mean equals ICE's mean, and NDDP equals ICE
to 1e-9 wherever both exist. Byte identity (recorded digests at the
default seed, and reruns of one config) is checked on `digests`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from cdplot.render import export_csv, import_csv
from workloads import Expected

NDDP_ICE_TOLERANCE = 1e-9


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in a run's output directory."""
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _csv_problems(text: str, kind: str, var: str, expected: Expected, name: str):
    try:
        curves = import_csv(text, var)
    except Exception as exc:  # any parse or validation failure is a finding
        return None, [f"{name}: import_csv failed: {exc}"]
    problems = []
    if curves.kind != kind:
        problems.append(f"{name}: kind {curves.kind!r}, expected {kind!r}")
    if curves.curves.shape != (expected.units, expected.grid):
        problems.append(
            f"{name}: {curves.curves.shape} curve points, "
            f"expected {(expected.units, expected.grid)}"
        )
    if export_csv(curves) != text:
        problems.append(f"{name}: CSV does not round-trip through import_csv")
    return curves, problems


def check_outputs(out_dir: Path, expected: Expected) -> list[str]:
    """Every invariant a correct run satisfies at any seed; returns the
    problems found (empty when the outputs are correct)."""
    problems: list[str] = []
    want = expected.files()
    present = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if present != sorted(want + ["manifest.json"]):
        return [f"output files {present} differ from expected {want} + manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("outputs") != want:
        problems.append(f"manifest lists {manifest.get('outputs')}, expected {want}")

    loaded = {}
    for var in expected.variables:
        for kind in expected.kinds:
            stem = f"{var}_{kind.lower()}"
            text = (out_dir / f"{stem}.csv").read_text(encoding="utf-8")
            curves, found = _csv_problems(text, kind, var, expected, f"{stem}.csv")
            problems += found
            if curves is not None:
                loaded[var, kind] = curves
            svg = (out_dir / f"{stem}.svg").read_text(encoding="utf-8")
            polylines = svg.count("<polyline")
            if polylines != expected.units + 1:
                problems.append(
                    f"{stem}.svg: {polylines} polylines, expected {expected.units + 1}"
                )

        ice = loaded.get((var, "ICE"))
        pdp = loaded.get((var, "PDP"))
        nddp = loaded.get((var, "NDDP"))
        if ice is not None and pdp is not None and not np.array_equal(pdp.mean, ice.mean):
            problems.append(f"{var}: PDP differs from ICE's mean")
        if ice is not None and nddp is not None and nddp.curves.shape == ice.curves.shape:
            scale = np.maximum(1.0, np.abs(ice.curves))
            worst = float(np.max(np.abs(nddp.curves - ice.curves) / scale))
            if worst > NDDP_ICE_TOLERANCE:
                problems.append(f"{var}: NDDP differs from ICE by {worst:.3g}")
    return problems
