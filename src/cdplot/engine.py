"""Per-unit dependence curves for a predictor coupled to a causal model.

An Ecm ("explained causal model") pairs a fitted predictor with a model
over its input features. The model is never extended with the
prediction: each world is a table of the features, and the predictor is
applied to it afterwards.

Every plot kind is the same sweep: for each grid value x, build a world
(one column per predictor feature, one row per data unit), predict on
it, and store the predictions as that grid point's column of curves.
The kinds differ only in the pins of their worlds, and one function,
curves, sweeps them all. A world needs the model only when some
predictor feature is not pinned, or is pinned at its value in TDP's
world: then the sweep abducts each unit's noise once, pins some
variables to per-unit columns and propagates everything else through
the model (scm.counterfactual_table). Otherwise the pinned columns are
the world: ICE (and PDP) replace one column of the data, and so does a
causal kind whose pins cover the features. The causal kinds' pins:

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

Some plot kinds share a sweep: world_key keeps the pins that can reach a
predictor feature, and kinds with one key give bitwise-equal curves.

check_request holds the one copy of the rules a request must meet: a
known kind; explained variables in the model, and for ICE/PDP a feature
of every predictor; for a causal kind only, every feature in the model;
finite controls, which, whenever a model is named and whatever the
kinds, sit on model variables other than the explained ones; band
models of one variable set holding the variables and features.
build_ecm, curves and uncertainty_band check through it; the command
line calls it once, before any predictor is fitted.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CdpError
from .predictors import Predictor, _sorted_unique
from .scm import Dataset, Scm, abduct, counterfactual_table

__all__ = [
    "BandSet",
    "CurveSet",
    "Ecm",
    "EffectDifference",
    "EngineError",
    "Grid",
    "PLOT_KINDS",
    "band_kinds",
    "build_ecm",
    "check_request",
    "curves",
    "effect_difference",
    "ice",
    "make_grid",
    "nddp",
    "nidp",
    "pcdp",
    "plot_metadata",
    "tdp",
    "uncertainty_band",
    "world_key",
]

PLOT_KINDS = ("ICE", "PDP", "TDP", "PCDP", "NDDP", "NIDP")
_MODEL_FREE_KINDS = ("ICE", "PDP")
_CAUSAL_KINDS = tuple(kind for kind in PLOT_KINDS if kind not in _MODEL_FREE_KINDS)

GRID_RESOLUTION_DEFAULT = 40
ORDINAL_CUTOFF = 15

NIDP_NOTE = (
    "nidp stage 2 restores the explained variable to its observed per-unit "
    "value so only mediated responses vary"
)

# Rows in one block of stacked worlds; a block holds the worlds of
# max(1, _BLOCK_ROWS // m) grid values.
_BLOCK_ROWS = 1 << 14

# How a sweep's worlds pin a variable at grid value x: at x, at each
# unit's observed value, at the unit's value in TDP's world at x, or (a
# float) at that constant.
GRID, OBSERVED, TDP_WORLD = "grid", "observed", "tdp"
Pin = str | float


class EngineError(CdpError):
    """Invalid request to the plot machinery."""


@dataclass(frozen=True)
class Ecm:
    """A predictor wired into a model over its features."""

    scm: Scm
    predictor: Predictor


def check_request(scm: Scm | None, feature_sets: Sequence[Sequence[str]], variables: Sequence[str],
                  kinds: Sequence[str], control: Mapping[str, float] | None = None,
                  band_scms: Sequence[Scm] = ()) -> None:
    """Raise EngineError unless the module docstring's rules define the
    request; with scm None, a request names no model."""
    for kind in kinds:
        if kind not in PLOT_KINDS:
            raise EngineError(f"unknown plot kind {kind!r}")
    model = () if scm is None else scm.variables
    for var in variables:
        if scm is not None and var not in model:
            raise EngineError(f"variable {var!r} is not in the model")
        if any(k in _MODEL_FREE_KINDS for k in kinds) and not all(var in f for f in feature_sets):
            raise EngineError(f"ICE/PDP variable {var!r} is not a predictor feature")
    if any(k in _CAUSAL_KINDS for k in kinds):
        for features in feature_sets:
            missing = [f for f in features if f not in model]
            if missing:
                raise EngineError("predictor features missing from model: " + ", ".join(missing))
    for name, value in (control or {}).items():
        if not math.isfinite(value):
            raise EngineError(f"control value for {name!r} must be finite")
        if scm is not None and name not in model:
            raise EngineError(f"control on unknown variable {name!r}")
        if scm is not None and name in variables:
            raise EngineError(f"control on explained variable {name!r}")
    if band_scms:
        if len({frozenset(s.variables) for s in band_scms}) != 1:
            raise EngineError("band models must share a variable set")
        needed = dict.fromkeys([*variables, *(f for features in feature_sets for f in features)])
        missing = [name for name in needed if name not in band_scms[0].variables]
        if missing:
            raise EngineError("band models lack " + ", ".join(missing))


def build_ecm(scm: Scm, predictor: Predictor) -> Ecm:
    """Couple a predictor to a model for the causal kinds: every feature
    must be a model variable."""
    check_request(scm, [predictor.features], (), _CAUSAL_KINDS)
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
    distinct = _sorted_unique(column)
    if len(distinct) <= ORDINAL_CUTOFF:
        return Grid(var, distinct)
    lo, hi = float(distinct[0]), float(distinct[-1])
    if lo == hi:
        raise EngineError(f"column {var!r} is constant")
    return Grid(var, np.linspace(lo, hi, resolution))


@dataclass(frozen=True)
class CurveSet:
    """Per-unit curves over a grid plus their pointwise mean. Float64
    arrays are taken as they are, not copied, and made read-only."""

    kind: str
    grid: Grid
    curves: np.ndarray
    mean: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        curves = np.asarray(self.curves, dtype=np.float64)
        mean = np.asarray(self.mean, dtype=np.float64)
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

    @functools.cached_property
    def value_range(self) -> tuple[float, float]:
        """The least and the greatest value of the curves and the mean,
        found once however many pieces of the SVG read them."""
        return (float(min(self.curves.min(), self.mean.min())),
                float(max(self.curves.max(), self.mean.max())))

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


def plot_metadata(kind: str, predictor: Predictor, scm: Scm | None, var: str,
                  control: Mapping[str, float] | None = None) -> dict[str, str]:
    """The metadata of a plot kind's curve set. Its intervention, which
    names PCDP's controls, is the SVG caption; ICE and PDP name no model."""
    described = ", ".join(f"{name}={float(value)!r}" for name, value in (control or {}).items())
    intervention = {
        "TDP": f"do({var}=grid)",
        "PCDP": f"do({var}=grid), control({described})",
        "NDDP": f"do({var}=grid), children held at observed values",
        "NIDP": f"do({var}=grid) routed through children of {var}",
    }.get(kind, f"set({var}=grid)")
    meta = {"predictor": predictor.describe(), "intervention": intervention}
    if kind in _MODEL_FREE_KINDS:
        return meta
    if kind == "NIDP":
        meta["notes"] = NIDP_NOTE
    return {"scm": scm.name, **meta}


def _world_pins(kind: str, scm: Scm | None, features: Sequence[str], var: str,
                control: Mapping[str, float] | None = None) -> dict[str, Pin]:
    """The pins of every world of a plot kind's sweep (check_request has
    passed). ICE and PDP pin every feature, so they need no model."""
    if kind in _MODEL_FREE_KINDS:
        return {**dict.fromkeys(features, OBSERVED), var: GRID}
    if kind == "PCDP":
        return {**{name: float(value) for name, value in control.items()}, var: GRID}
    if kind == "NDDP":
        return {**dict.fromkeys(scm.children(var), OBSERVED), var: GRID}
    if kind == "NIDP":
        return {**dict.fromkeys(scm.children(var), TDP_WORLD), var: OBSERVED}
    return {var: GRID}


def world_key(kind: str, scm: Scm | None, features: Sequence[str], var: str,
              control: Mapping[str, float] | None = None) -> frozenset[tuple[str, Pin]]:
    """The pins of a plot kind's worlds that reach a predictor feature:
    those on the features and on their ancestors through unpinned
    variables. counterfactual_table computes every unpinned one of these
    from its parents in the same order with the same operations, so kinds
    with one key sweep bitwise-equal features and curves; a kind with
    ICE's key gives ICE's curves."""
    pins = _world_pins(kind, scm, features, var, control)
    reached, stack = set(), list(features)
    while stack:
        name = stack.pop()
        if name not in reached:
            reached.add(name)
            stack.extend(() if name in pins else scm.mechanisms[name].parents)
    return frozenset((name, pins[name]) for name in reached if name in pins)


def _pin_columns(pins: Mapping[str, Pin], data: Dataset, xs: np.ndarray,
                 tdp_world: Mapping[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """The pinned columns of the stacked worlds at the grid values xs,
    len(xs) * m rows; tdp_world is TDP's world there."""
    columns = {}
    for name, how in pins.items():
        if how == GRID:
            columns[name] = np.repeat(xs, data.m)
        elif how == OBSERVED:
            columns[name] = np.tile(data.column(name), len(xs))
        elif how == TDP_WORLD:
            columns[name] = tdp_world[name]
        else:
            columns[name] = np.full(len(xs) * data.m, how)
    return columns


def _sweep(
    predictor: Predictor,
    grid: Grid,
    m: int,
    world: Callable[[np.ndarray], Mapping[str, np.ndarray]],
) -> np.ndarray:
    """The grid loop of every plot kind: column gi of the curves is the
    prediction on the world at grid value gi. world(xs) returns the
    stacked worlds of a block of grid values xs, len(xs) * m rows, grid
    value by grid value; the predictor gets the block's matrices at once
    and predicts one grid value's m rows at a time."""
    curves = np.empty((m, len(grid)))
    block = max(1, _BLOCK_ROWS // m)
    for start in range(0, len(grid), block):
        xs = grid.values[start : start + block]
        columns = world(xs)
        matrices = (
            np.column_stack([columns[f][j * m : (j + 1) * m] for f in predictor.features])
            for j in range(len(xs))
        )
        for j, predicted in enumerate(predictor.predict_each(matrices)):
            curves[:, start + j] = predicted
    return curves


def curves(kind: str, predictor: Predictor, scm: Scm | None, data: Dataset, var: str,
           grid: Grid, control: Mapping[str, float] | None = None) -> CurveSet:
    """The curve set of any plot kind, from the pins of its worlds. When
    they hold every predictor feature at the grid value, its observed
    column or a constant, the worlds are those columns and need no model:
    ICE and PDP always, a causal kind whose pins cover the features.
    Otherwise abduct once and tile each noise column to the rows of the
    largest block, then for each block of grid values xs propagate the
    first len(xs) * m rows of those columns, as views, through the model
    under the pins (first TDP's world, when a pin takes its values)."""
    check_request(scm, [predictor.features], [var], [kind], control)
    pins = _world_pins(kind, scm, predictor.features, var, control)
    if all(f in pins and pins[f] != TDP_WORLD for f in predictor.features):
        world = functools.partial(_pin_columns, {f: pins[f] for f in predictor.features}, data)
    else:
        per_block = min(len(grid), max(1, _BLOCK_ROWS // data.m))  # as in _sweep
        tiled = {v: np.tile(u, per_block) for v, u in abduct(scm, data).items()}

        def world(xs: np.ndarray) -> dict[str, np.ndarray]:
            noise = {v: u[: len(xs) * data.m] for v, u in tiled.items()}
            total = None
            if TDP_WORLD in pins.values():
                total = counterfactual_table(scm, noise, _pin_columns({var: GRID}, data, xs))
            columns = _pin_columns(pins, data, xs, total)
            del total  # only its pinned columns live on next to the second world
            return counterfactual_table(scm, noise, columns)

    swept = _sweep(predictor, grid, data.m, world)
    return _curveset(kind, grid, swept, plot_metadata(kind, predictor, scm, var, control))


def ice(predictor: Predictor, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Individual conditional expectation: vary one feature column,
    hold every other column at its observed values."""
    return curves("ICE", predictor, None, data, var, grid)


def tdp(ecm: Ecm, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Total dependence: pin var at each grid value and let every
    downstream feature respond through the model."""
    return curves("TDP", ecm.predictor, ecm.scm, data, var, grid)


def pcdp(
    ecm: Ecm, data: Dataset, var: str, grid: Grid, control: Mapping[str, float]
) -> CurveSet:
    """Partially controlled dependence: TDP with the control variables
    held at their values. An empty control reduces to TDP exactly."""
    return curves("PCDP", ecm.predictor, ecm.scm, data, var, grid, control)


def nddp(ecm: Ecm, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Natural direct dependence: children of var are held at each
    unit's observed values, so only the direct edge moves. For a
    variable with no children this coincides with TDP."""
    return curves("NDDP", ecm.predictor, ecm.scm, data, var, grid)


def nidp(ecm: Ecm, data: Dataset, var: str, grid: Grid) -> CurveSet:
    """Natural indirect dependence: children of var are held at their
    values in the TDP world at each grid value, while var itself keeps
    its observed per-unit value; only mediated responses remain. For a
    variable with no children every curve is constant at the factual
    prediction."""
    return curves("NIDP", ecm.predictor, ecm.scm, data, var, grid)


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
    check_request(ecms[0].scm, [e.predictor.features for e in ecms], [var], [kind],
                  band_scms=[e.scm for e in ecms])
    labels = []
    rows = []
    for i, ecm in enumerate(ecms):
        label = ecm.scm.name
        if label in labels:
            label = f"{label}#{i}"
        labels.append(label)
        rows.append(curves(kind, ecm.predictor, ecm.scm, data, var, grid).mean)
    means = np.vstack(rows)
    return BandSet(kind, grid, tuple(labels), means, means.min(axis=0), means.max(axis=0))
