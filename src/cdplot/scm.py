"""Structural causal models with strictly additive noise.

Every variable is generated as ``V = g(parents) + U`` with mutually
independent exogenous noise, so abduction is an exact point computation:
``u = v - g(parents)``. That restriction is what makes per-unit
counterfactuals deterministic here.

Randomness is derived from a single 64-bit master seed. Each
(variable, unit) pair gets its own substream through a splittable hash
of (seed, variable index, unit index), so sampled tables do not depend
on evaluation order and are reproducible bit for bit.

Sampling records the exogenous draw as ``v - g(parents)`` (within one
ulp of the raw draw) so that abduction applied to a sampled table
returns the recorded noise bitwise.

A counterfactual world is abducted noise plus a set of pins, each a
per-unit column for one variable. It is computed over the unmodified
model in its topological order: a pinned variable takes its column
exactly, every other variable is ``g(parents) + u``. Pinning a variable
overrides its mechanism, so no graph surgery is needed. Non-descendants
of the pins are recomputed too, which reproduces their observed values
only to within an ulp for some units of a fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.special import ndtri

from .errors import CdpError
from .expr import Expression, evaluate_batch, free_variables

__all__ = [
    "Dataset",
    "Mechanism",
    "NoiseDataset",
    "NoiseSpec",
    "Scm",
    "ScmError",
    "abduct",
    "build_scm",
    "counterfactual_table",
    "sample",
]


class ScmError(CdpError):
    """Invalid model structure or operation on a model."""


# --- hashed substreams -----------------------------------------------------

_U64 = np.uint64
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over uint64 scalars or arrays."""
    z = z ^ (z >> _U64(30))
    z = z * _U64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> _U64(27))
    z = z * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _substream_uniforms(seed: int, var_index: int, units: np.ndarray) -> np.ndarray:
    """Uniform(0, 1) draws for the (variable, unit) substreams."""
    with np.errstate(over="ignore"):
        s = _mix64(_U64(seed & _MASK) + _U64(0x9E3779B97F4A7C15))
        s = _mix64(s ^ (_U64(var_index) + _U64(0xD1B54A32D192ED03)))
        h = _mix64(s ^ units.astype(np.uint64))
    # 53-bit mantissa, shifted into the open interval (0, 1).
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


# --- noise -----------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Exogenous noise distribution: normal, uniform, or a point mass.

    Degenerate parameters (zero stddev, equal bounds) behave as a point
    mass. Construct via the normal/uniform/point classmethods.
    """

    kind: str
    p1: float
    p2: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", float(self.p1))
        object.__setattr__(self, "p2", float(self.p2))
        if self.kind not in ("normal", "uniform", "point"):
            raise ScmError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.p1) and np.isfinite(self.p2)):
            raise ScmError("noise parameters must be finite")
        if self.kind == "normal" and self.p2 < 0.0:
            raise ScmError(f"normal stddev must be nonnegative, got {self.p2!r}")
        if self.kind == "uniform" and self.p1 > self.p2:
            raise ScmError(
                f"uniform bounds out of order: low {self.p1!r} > high {self.p2!r}"
            )

    @classmethod
    def normal(cls, mean: float, stddev: float) -> "NoiseSpec":
        return cls("normal", mean, stddev)

    @classmethod
    def uniform(cls, low: float, high: float) -> "NoiseSpec":
        return cls("uniform", low, high)

    @classmethod
    def point(cls, value: float) -> "NoiseSpec":
        return cls("point", value)

    def draw(self, seed: int, var_index: int, units: np.ndarray) -> np.ndarray:
        if self.kind == "point":
            return np.full(len(units), self.p1)
        if self.kind == "normal":
            if self.p2 == 0.0:
                return np.full(len(units), self.p1)
            u = _substream_uniforms(seed, var_index, units)
            return self.p1 + self.p2 * ndtri(u)
        if self.p1 == self.p2:
            return np.full(len(units), self.p1)
        u = _substream_uniforms(seed, var_index, units)
        return self.p1 + (self.p2 - self.p1) * u

    def to_text(self) -> str:
        if self.kind == "point":
            return f"point({self.p1!r})"
        return f"{self.kind}({self.p1!r}, {self.p2!r})"


# --- model structure -------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """One structural equation: V = expression(parents) + noise.

    expression None means a zero deterministic part (root variables).
    """

    parents: tuple[str, ...]
    expression: Expression | None
    noise: NoiseSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        seen = set()
        for p in self.parents:
            if p in seen:
                raise ScmError(f"duplicate parent {p!r}")
            seen.add(p)


@dataclass(frozen=True)
class Scm:
    """A validated model: named mechanisms over an acyclic parent graph."""

    name: str
    variables: tuple[str, ...]
    mechanisms: dict[str, Mechanism]
    topo_order: tuple[str, ...]

    def var_index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise ScmError(f"unknown variable {var!r}") from None

    def children(self, var: str) -> tuple[str, ...]:
        self._mechanism(var)
        return tuple(
            v for v in self.variables if var in self.mechanisms[v].parents
        )

    def _mechanism(self, var: str) -> Mechanism:
        mech = self.mechanisms.get(var)
        if mech is None:
            raise ScmError(f"unknown variable {var!r}")
        return mech


def _find_cycle(mechanisms: Mapping[str, Mechanism]) -> list[str]:
    """Return one parent-edge cycle for the error message."""
    state: dict[str, int] = {}
    trail: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        trail.append(node)
        for parent in mechanisms[node].parents:
            if parent not in mechanisms:
                continue
            mark = state.get(parent, 0)
            if mark == 1:
                return trail[trail.index(parent):] + [parent]
            if mark == 0:
                found = visit(parent)
                if found is not None:
                    return found
        state[node] = 2
        trail.pop()
        return None

    for name in mechanisms:
        if state.get(name, 0) == 0:
            found = visit(name)
            if found is not None:
                return found
    return []


def build_scm(name: str, mechanisms: Mapping[str, Mechanism]) -> Scm:
    """Validate mechanisms and return an Scm with a cached topological
    order. Variable order follows the mapping's insertion order.

    Raises ScmError for an undeclared parent, an expression referencing
    a name that is not a parent, or a cycle.
    """
    mechanisms = dict(mechanisms)
    if not mechanisms:
        raise ScmError("model needs at least one variable")
    variables = tuple(mechanisms)
    for var, mech in mechanisms.items():
        for parent in mech.parents:
            if parent not in mechanisms:
                raise ScmError(f"variable {var!r} lists undeclared parent {parent!r}")
            if parent == var:
                raise ScmError(f"variable {var!r} lists itself as a parent")
        if mech.expression is not None:
            for ref in sorted(free_variables(mech.expression)):
                if ref not in mech.parents:
                    raise ScmError(
                        f"equation for {var!r} references {ref!r}, "
                        "which is not a parent"
                    )

    in_degree = {v: len(mechanisms[v].parents) for v in variables}
    children: dict[str, list[str]] = {v: [] for v in variables}
    for var in variables:
        for parent in mechanisms[var].parents:
            children[parent].append(var)
    ready = [v for v in variables if in_degree[v] == 0]
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for child in children[node]:
            in_degree[child] -= 1
            if in_degree[child] == 0:
                ready.append(child)
    if len(order) != len(variables):
        cycle = _find_cycle(mechanisms)
        raise ScmError("cycle detected: " + " -> ".join(cycle))
    return Scm(
        name=name,
        variables=variables,
        mechanisms=mechanisms,
        topo_order=tuple(order),
    )


# --- datasets --------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Immutable rectangular table of finite float64 values."""

    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ScmError(f"expected a 2-d table, got ndim {values.ndim}")
        if values.shape[1] != len(self.columns):
            raise ScmError(
                f"{len(self.columns)} column names for {values.shape[1]} columns"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ScmError("duplicate column names")
        if not np.all(np.isfinite(values)):
            raise ScmError("table contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise ScmError(f"no column {column!r}") from None

    def column(self, column: str) -> np.ndarray:
        return self.values[:, self.index(column)]

    def column_dict(self) -> dict[str, np.ndarray]:
        return {name: self.values[:, i] for i, name in enumerate(self.columns)}

    @cached_property
    def correlation(self) -> np.ndarray:
        """Read-only Pearson correlation matrix of the columns, in column
        order; a constant column's row and column are NaN. It is computed
        on first use and kept, which is safe because the values are
        read-only."""
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.atleast_2d(np.corrcoef(self.values, rowvar=False))
        corr.flags.writeable = False
        return corr


class NoiseDataset(Dataset):
    """Exogenous draws, one column per model variable."""


# --- sampling, abduction, counterfactuals ----------------------------------


def _deterministic_part(
    scm: Scm, var: str, env: Mapping[str, np.ndarray], n: int
) -> np.ndarray | float:
    mech = scm.mechanisms[var]
    if mech.expression is None:
        return 0.0
    bindings = {name: env[name] for name in free_variables(mech.expression)}
    return evaluate_batch(mech.expression, bindings, n)


def sample(scm: Scm, n: int, seed: int) -> tuple[Dataset, NoiseDataset]:
    """Draw n units. Returns the realized table and the exogenous draws.

    The recorded draw for each variable is the abduction residual
    ``v - g(parents)``, which is within one ulp of the raw draw, so
    abduct(scm, data) reproduces the noise table bitwise.
    """
    if n < 1:
        raise ScmError(f"sample size must be positive, got {n}")
    units = np.arange(n, dtype=np.uint64)
    values: dict[str, np.ndarray] = {}
    noise: dict[str, np.ndarray] = {}
    for var in scm.topo_order:
        mech = scm.mechanisms[var]
        det = _deterministic_part(scm, var, values, n)
        raw = mech.noise.draw(seed, scm.var_index(var), units)
        realized = det + raw
        values[var] = realized
        noise[var] = realized - det
    data = Dataset(scm.variables, np.column_stack([values[v] for v in scm.variables]))
    drawn = np.column_stack([noise[v] for v in scm.variables])
    return data, NoiseDataset(scm.variables, drawn)


def abduct(scm: Scm, data: Dataset) -> NoiseDataset:
    """Recover per-unit exogenous values: u = v - g(parents)."""
    env = {}
    for var in scm.variables:
        env[var] = data.column(var)
    residuals = []
    for var in scm.variables:
        det = _deterministic_part(scm, var, env, data.m)
        residuals.append(env[var] - det)
    matrix = np.column_stack(residuals)
    return NoiseDataset(scm.variables, matrix)


def counterfactual_table(
    scm: Scm, noise: NoiseDataset, pins: Mapping[str, np.ndarray]
) -> Dataset:
    """Counterfactual of every unit at once. pins maps variables to
    per-unit columns; they take those values exactly, and every other
    variable is recomputed as g(parents) + u from the abducted noise,
    in topological order."""
    for var, column in pins.items():
        scm.var_index(var)
        if np.shape(column) != (noise.m,):
            raise ScmError(
                f"pinned column for {var!r} has shape {np.shape(column)}, "
                f"expected ({noise.m},)"
            )
    values: dict[str, np.ndarray] = {}
    for var in scm.topo_order:
        if var in pins:
            values[var] = np.asarray(pins[var], dtype=np.float64)
        else:
            det = _deterministic_part(scm, var, values, noise.m)
            values[var] = det + noise.column(var)
    return Dataset(scm.variables, np.column_stack([values[v] for v in scm.variables]))
