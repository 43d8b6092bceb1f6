"""Per-unit dependence curves for a predictor coupled to a causal model.

An Ecm ("explained causal model") pairs a fitted predictor with a model
over its input features. The model is never extended with the
prediction: each world is a table of the features, and the predictor is
applied to it afterwards.

Every plot kind is the same sweep: for each grid value x, build a world
(one column per predictor feature, one row per data unit), predict on
it, and store the predictions as that grid point's column of curves.
The kinds differ only in how the world is built. ICE replaces one
column of the data. The causal kinds abduct each unit's noise once and
then pin some variables to per-unit columns and propagate everything
else through the model (scm.counterfactual_table):

- TDP:  total dependence; pin the variable at x, so downstream
        features respond.
- PCDP: as TDP, plus the controls, a mapping {variable: value}, pinned
        at their constants.
- NDDP: natural direct dependence; pin the variable at x and its
        children at their observed values, so only the direct edge
        into the predictor moves.
- NIDP: natural indirect dependence; pin the children at their values
        in the TDP world at x, and the variable itself at its observed
        values, so only mediated responses vary.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CdpError
from .predictors import Predictor
from .scm import Dataset, Scm, abduct, counterfactual_table

__all__ = [
    "BandSet",
    "CurveSet",
    "Ecm",
    "EffectDifference",
    "EngineError",
    "Grid",
    "band_kinds",
    "build_ecm",
    "effect_difference",
    "ice",
    "make_grid",
    "nddp",
    "nidp",
    "pcdp",
    "pcdp_metadata",
    "tdp",
    "uncertainty_band",
]

GRID_RESOLUTION_DEFAULT = 40
ORDINAL_CUTOFF = 15

NIDP_NOTE = (
    "nidp stage 2 restores the explained variable to its observed per-unit "
    "value so only mediated responses vary"
)

# Rows in one block of stacked worlds; a block holds the worlds of
# max(1, _BLOCK_ROWS // m) grid values.
_BLOCK_ROWS = 1 << 14

# pins(xs, noise) -> the pinned columns of the stacked counterfactual
# worlds at the grid values xs, len(xs) * m rows like the tiled noise
Pins = Callable[[np.ndarray, Mapping[str, np.ndarray]], Mapping[str, np.ndarray]]


class EngineError(CdpError):
    """Invalid request to the plot machinery."""


@dataclass(frozen=True)
class Ecm:
    """A predictor wired into a model over its features."""

    scm: Scm
    predictor: Predictor


def build_ecm(scm: Scm, predictor: Predictor) -> Ecm:
    """Couple a predictor to a model; every feature must be a model
    variable."""
    missing = [f for f in predictor.features if f not in scm.variables]
    if missing:
        raise EngineError(
            "predictor features missing from model: " + ", ".join(missing)
        )
    return Ecm(scm, predictor)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation points for one variable."""

    var: str
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or len(values) == 0:
            raise EngineError("grid must be a nonempty vector")
        if not np.all(np.isfinite(values)):
            raise EngineError("grid contains non-finite values")
        if len(values) > 1 and not np.all(np.diff(values) > 0):
            raise EngineError("grid values must be strictly increasing")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def make_grid(data: Dataset, var: str, resolution: int = GRID_RESOLUTION_DEFAULT) -> Grid:
    """Grid over a column: the sorted distinct values when there are at
    most ORDINAL_CUTOFF of them, else resolution equally spaced points
    across the observed range."""
    if resolution < 2:
        raise EngineError(f"resolution must be at least 2, got {resolution}")
    column = data.column(var)
    distinct = np.unique(column)
    if len(distinct) <= ORDINAL_CUTOFF:
        return Grid(var, distinct)
    lo, hi = float(distinct[0]), float(distinct[-1])
    if lo == hi:
        raise EngineError(f"column {var!r} is constant")
    return Grid(var, np.linspace(lo, hi, resolution))


@dataclass(frozen=True)
class CurveSet:
    """Per-unit curves over a grid plus their pointwise mean."""

    kind: str
    grid: Grid
    curves: np.ndarray
    mean: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        curves = np.array(self.curves, dtype=np.float64)
        mean = np.array(self.mean, dtype=np.float64)
        if curves.ndim != 2 or curves.shape[1] != len(self.grid):
            raise EngineError(
                f"curves shape {curves.shape} does not match grid length "
                f"{len(self.grid)}"
            )
        if not np.all(np.isfinite(curves)):
            raise EngineError("curves contain non-finite values")
        if mean.shape != (len(self.grid),):
            raise EngineError("mean curve length does not match grid")
        if not np.all(np.isfinite(mean)):
            raise EngineError("mean curve contains non-finite values")
        if np.max(np.abs(mean - curves.mean(axis=0))) > 1e-12:
            raise EngineError("mean curve is not the column mean")
        curves.flags.writeable = False
        mean.flags.writeable = False
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "mean", mean)

    @property
    def units(self) -> int:
        return self.curves.shape[0]

    def relabel(self, kind: str, metadata: dict[str, str] | None = None) -> CurveSet:
        """The same curves under another kind (and metadata, if given).
        The result shares this set's grid, curves and mean, which are
        read-only and already checked, instead of copying them."""
        relabelled = copy.copy(self)
        if metadata is None:
            metadata = self.metadata
        relabelled.__dict__.update(kind=kind, metadata=metadata)
        return relabelled


def _curveset(kind: str, grid: Grid, curves: np.ndarray, metadata: dict[str, str]) -> CurveSet:
    curves = np.asarray(curves, dtype=np.float64)
    with np.errstate(over="ignore"):  # CurveSet rejects a mean that overflows
        mean = curves.mean(axis=0)
    return CurveSet(kind, grid, curves, mean, metadata)


def _base_metadata(ecm: Ecm, intervention: str) -> dict[str, str]:
    return {
        "scm": ecm.scm.name,
        "predictor": ecm.predictor.describe(),
        "intervention": intervention,
    }


def _sweep(
    predictor: Predictor,
    grid: Grid,
    m: int,
    world: Callable[[np.ndarray], Mapping[str, np.ndarray]],
) -> np.ndarray:
    """The grid loop of every plot kind: column gi of the curves is the
    prediction on the world at grid value gi. world(xs) returns the
    stacked worlds of a block of grid values xs, len(xs) * m rows, grid
    value by grid value; the predictor sees one grid value's m rows at a
    time."""
    curves = np.empty((m, len(grid)))
    block = max(1, _BLOCK_ROWS // m)
    for start in range(0, len(grid), block):
        xs = grid.values[start : start + block]
        columns = world(xs)
        for j in range(len(xs)):
            rows = slice(j * m, (j + 1) * m)
            curves[:, start + j] = predictor.predict(
                np.column_stack([columns[f][rows] for f in predictor.features])
            )
    return curves


def _counterfactual_sweep(
    ecm: Ecm, data: Dataset, var: str, grid: Grid, pins: Pins
) -> np.ndarray:
    """Sweep over counterfactual worlds: abduct once and tile each noise
    column to the rows of the largest block, then for each block of grid
    values xs propagate the first len(xs) * m rows of those columns, as
    views, through the model under pins(xs, noise)."""
    ecm.scm.var_index(var)
    per_block = min(len(grid), max(1, _BLOCK_ROWS // data.m))  # as in _sweep
    tiled = {v: np.tile(u, per_block) for v, u in abduct(ecm.scm, data).items()}

    def world(xs: np.ndarray) -> dict[str, np.ndarray]:
        noise = {v: u[: len(xs) * data.m] for v, u in tiled.items()}
        return counterfactual_table(ecm.scm, noise, pins(xs, noise))

    return _sweep(ecm.predictor, grid, data.m, world)


def ice(predictor: Predictor, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Individual conditional expectation: vary one feature column,
    hold every other column at its observed values."""
    if var not in predictor.features:
        raise EngineError(f"{var!r} is not a predictor feature")
    observed = {f: data.column(f) for f in predictor.features}
    curves = _sweep(
        predictor,
        grid,
        data.m,
        lambda xs: {
            **{f: np.tile(column, len(xs)) for f, column in observed.items()},
            var: np.repeat(xs, data.m),
        },
    )
    return _curveset(
        "ICE",
        grid,
        curves,
        {"predictor": predictor.describe(), "intervention": f"set({var}=grid)"},
    )


def tdp(ecm: Ecm, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Total dependence: pin var at each grid value and let every
    downstream feature respond through the model."""
    curves = _counterfactual_sweep(
        ecm, data, var, grid, lambda xs, noise: {var: np.repeat(xs, data.m)}
    )
    return _curveset("TDP", grid, curves, _base_metadata(ecm, f"do({var}=grid)"))


def pcdp(
    ecm: Ecm, data: Dataset, var: str, grid: Grid, control: Mapping[str, float]
) -> CurveSet:
    """Partially controlled dependence: TDP with the control variables
    held at their values. An empty control reduces to TDP exactly."""
    for name, value in control.items():
        if name == var:
            raise EngineError(f"control touches {var!r}")
        if name not in ecm.scm.variables:
            raise EngineError(f"control on unknown variable {name!r}")
        if not math.isfinite(value):
            raise EngineError(f"control value for {name!r} must be finite")

    def pins(xs: np.ndarray, noise: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        held = {name: np.full(len(xs) * data.m, float(value)) for name, value in control.items()}
        return {**held, var: np.repeat(xs, data.m)}

    curves = _counterfactual_sweep(ecm, data, var, grid, pins)
    return _curveset("PCDP", grid, curves, pcdp_metadata(ecm, var, control))


def pcdp_metadata(ecm: Ecm, var: str, control: Mapping[str, float]) -> dict[str, str]:
    """The metadata of a PCDP curve set; its intervention names the
    controls, which the SVG caption prints."""
    described = ", ".join(f"{name}={float(value)!r}" for name, value in control.items())
    return _base_metadata(ecm, f"do({var}=grid), control({described})")


def nddp(ecm: Ecm, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Natural direct dependence: children of var are held at each
    unit's observed values, so only the direct edge moves. For a
    variable with no children this coincides with TDP."""
    held = {c: data.column(c) for c in ecm.scm.children(var)}

    def pins(xs: np.ndarray, noise: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {
            **{c: np.tile(column, len(xs)) for c, column in held.items()},
            var: np.repeat(xs, data.m),
        }

    curves = _counterfactual_sweep(ecm, data, var, grid, pins)
    meta = _base_metadata(
        ecm, f"do({var}=grid), children held at observed values"
    )
    return _curveset("NDDP", grid, curves, meta)


def nidp(ecm: Ecm, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Natural indirect dependence: children of var are held at their
    values in the TDP world at each grid value, while var itself keeps
    its observed per-unit value; only mediated responses remain. For a
    variable with no children every curve is constant at the factual
    prediction."""
    children = ecm.scm.children(var)
    observed = data.column(var)

    def pins(xs: np.ndarray, noise: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        total = counterfactual_table(ecm.scm, noise, {var: np.repeat(xs, data.m)})
        return {**{c: total[c] for c in children}, var: np.tile(observed, len(xs))}

    curves = _counterfactual_sweep(ecm, data, var, grid, pins)
    meta = _base_metadata(
        ecm, f"do({var}=grid) routed through children of {var}"
    )
    meta["notes"] = NIDP_NOTE
    return _curveset("NIDP", grid, curves, meta)


@dataclass(frozen=True)
class EffectDifference:
    """Per-unit and mean curve differences between two grid points."""

    per_unit: np.ndarray
    mean: float


def effect_difference(curve_set: CurveSet, x0: float, x1: float) -> EffectDifference:
    """Difference curve(x1) - curve(x0); both must be grid points."""
    values = curve_set.grid.values
    idx = []
    for x in (x0, x1):
        matches = np.nonzero(values == float(x))[0]
        if len(matches) == 0:
            raise EngineError(f"{x!r} is not a grid point")
        idx.append(int(matches[0]))
    per_unit = curve_set.curves[:, idx[1]] - curve_set.curves[:, idx[0]]
    return EffectDifference(per_unit, float(np.mean(per_unit)))


@dataclass(frozen=True)
class BandSet:
    """Mean curves of several candidate models plus their envelopes."""

    kind: str
    grid: Grid
    labels: tuple[str, ...]
    curves: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if self.curves.shape != (len(self.labels), len(self.grid)):
            raise EngineError("band curves shape mismatch")
        if np.any(self.lower > self.upper):
            raise EngineError("band envelopes out of order")


def band_kinds() -> tuple[str, ...]:
    return ("TDP", "NDDP", "NIDP")


def uncertainty_band(
    ecms: Sequence[Ecm], data: Dataset, var: str, grid: Grid, kind: str = "TDP"
) -> BandSet:
    """Mean curves of the same plot kind under each candidate model,
    with pointwise min/max envelopes. All models must share a variable
    set; disagreement between the curves is structure uncertainty."""
    if len(ecms) < 2:
        raise EngineError("need at least two candidate models for a band")
    if kind not in band_kinds():
        raise EngineError(f"no band for plot kind {kind!r}")
    variable_sets = {frozenset(e.scm.variables) for e in ecms}
    if len(variable_sets) != 1:
        raise EngineError("candidate models must share a variable set")
    compute = {"TDP": tdp, "NDDP": nddp, "NIDP": nidp}[kind]
    labels = []
    rows = []
    for i, ecm in enumerate(ecms):
        label = ecm.scm.name
        if label in labels:
            label = f"{label}#{i}"
        labels.append(label)
        rows.append(compute(ecm, data, var, grid).mean)
    curves = np.vstack(rows)
    return BandSet(
        kind,
        grid,
        tuple(labels),
        curves,
        curves.min(axis=0),
        curves.max(axis=0),
    )
