"""The benchmark's workloads: each one is a `cdplot run` config.

A workload writes its config (and, for discover-chain, its data files)
into a work directory and states what a correct run must produce. The
seed feeds only the data simulation; model structure, forest seed and
sizes are fixed. Smoke mode shrinks only the row counts.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ALL_KINDS = ("ICE", "PDP", "TDP", "PCDP", "NDDP", "NIDP")
GRID = 40
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Expected:
    """What a correct run of a workload writes."""

    variables: tuple[str, ...]
    kinds: tuple[str, ...]
    units: int
    grid: int = GRID

    def stems(self) -> list[str]:
        return [f"{v}_{k.lower()}" for v in self.variables for k in self.kinds]

    def files(self) -> list[str]:
        return sorted(f"{s}.{ext}" for s in self.stems() for ext in ("csv", "svg"))

    @property
    def points(self) -> int:
        """Curve points produced: units x grid points, summed over curve sets."""
        return len(self.variables) * len(self.kinds) * self.units * self.grid


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    smoke_n: int
    # build(root, work, seed, n, smoke) -> (config dict, Expected)
    build: Callable[[Path, Path, int, int, bool], tuple[dict, Expected]]

    def prepare(self, root: Path, work: Path, seed: int, smoke: bool) -> tuple[Path, Expected]:
        """Write the config into work; return its path and the expected outputs."""
        work.mkdir(parents=True, exist_ok=True)
        n = self.smoke_n if smoke else self.n
        config, expected = self.build(root, work, seed, n, smoke)
        config["output_dir"] = str(work / "out")
        config["seed"] = seed
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path, expected


def _salary(root: Path) -> str:
    return str(root / "src" / "cdplot" / "fixtures" / "salary.scm")


def _salary_ols(root, work, seed, n, smoke):
    config = {
        "scm": _salary(root),
        "data": {"simulate": {"n": n, "seed": seed}},
        "predictor": {"kind": "ols", "target": "S", "features": ["P", "F"], "degree": 3},
        "variables": ["P", "F"],
        "plots": list(ALL_KINDS),
        "grid_resolution": GRID,
    }
    return config, Expected(("P", "F"), ALL_KINDS, n)


def _salary_forest(root, work, seed, n, smoke):
    config = {
        "scm": _salary(root),
        "data": {"simulate": {"n": n, "seed": seed}},
        "predictor": {
            "kind": "forest", "target": "S", "features": ["P", "F"],
            "trees": 50, "depth": 8, "seed": 1,
        },
        "variables": ["P"],
        "plots": list(ALL_KINDS),
        "grid_resolution": GRID,
    }
    return config, Expected(("P",), ALL_KINDS, n)


CHAIN_KINDS = ("TDP", "NDDP", "NIDP")
CHAIN_FEATURES = [f"X{i:02d}" for i in range(2, 16)]
CHAIN_EXPLAIN_ROWS = 500
CHAIN_SMOKE_EXPLAIN_ROWS = 50
# Offset between the data seed and the explain-set seed, so the explain
# rows are fresh draws rather than the first rows of the training data.
CHAIN_EXPLAIN_SEED_OFFSET = 1_000_003


def _discover_chain(root, work, seed, n, smoke):
    from cdplot.cli import load_scm_spec, write_dataset_csv
    from cdplot.scm import sample

    scm = load_scm_spec(HERE / "chain.scm")
    rows = CHAIN_SMOKE_EXPLAIN_ROWS if smoke else CHAIN_EXPLAIN_ROWS
    data, _ = sample(scm, n, seed)
    explain, _ = sample(scm, rows, seed + CHAIN_EXPLAIN_SEED_OFFSET)
    (work / "data.csv").write_text(write_dataset_csv(data), encoding="utf-8")
    (work / "explain.csv").write_text(write_dataset_csv(explain), encoding="utf-8")
    config = {
        "discovery": {"alpha": 0.05, "max_cond": 3, "degree": 2, "cap": 64},
        "data": "data.csv",
        "explain_data": "explain.csv",
        "predictor": {"kind": "ols", "target": "Y", "features": CHAIN_FEATURES, "degree": 2},
        "variables": ["X04", "X12"],
        "plots": list(CHAIN_KINDS),
        "grid_resolution": GRID,
    }
    return config, Expected(("X04", "X12"), CHAIN_KINDS, rows)


EXTERNAL_KINDS = ("ICE", "TDP", "NDDP", "NIDP")


def _external_pipe(root, work, seed, n, smoke):
    server = root / "src" / "cdplot" / "fixtures" / "external_eval.py"
    command = " ".join(shlex.quote(a) for a in (sys.executable, str(server), "F - P**2"))
    config = {
        "scm": _salary(root),
        "data": {"simulate": {"n": n, "seed": seed}},
        "predictor": {"kind": "external", "command": command, "features": ["P", "F"]},
        "variables": ["P"],
        "plots": list(EXTERNAL_KINDS),
        "grid_resolution": GRID,
    }
    return config, Expected(("P",), EXTERNAL_KINDS, n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "salary-ols",
            "cheap OLS predictor and the widest output (2.4M points), so CSV/SVG "
            "formatting and writing dominate",
            n=5000, smoke_n=100, build=_salary_ols,
        ),
        Workload(
            "salary-forest",
            "50-tree forest on 480k predicted rows, so forest inference dominates "
            "and discovery is bypassed",
            n=2000, smoke_n=100, build=_salary_forest,
        ),
        Workload(
            "discover-chain",
            "18-variable CSV input with structure discovery, a 14-feature OLS fit "
            "and 17-variable SCM propagation at m=500",
            n=5000, smoke_n=1000, build=_discover_chain,
        ),
        Workload(
            "external-pipe",
            "320k rows through the external predictor's line protocol in a child "
            "process",
            n=2000, smoke_n=100, build=_external_pipe,
        ),
    )
}
