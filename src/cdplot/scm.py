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

Abducted noise and counterfactual worlds are column mappings
``{variable: column}``; ``Dataset`` is the validated table that is read,
sampled or written. A world is computed from noise and pins (per-unit
columns) over the unmodified model in topological order: a pinned
variable takes its column exactly, every other variable is
``g(parents) + u``, so no graph surgery is needed. Non-descendants of the
pins are recomputed too, which can move them an ulp off their observed
values.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CdpError
from .expr import Expression, evaluate_batch, free_variables

__all__ = [
    "Dataset",
    "Mechanism",
    "NoiseSpec",
    "Scm",
    "ScmError",
    "abduct",
    "build_scm",
    "counterfactual_table",
    "ndtri",
    "sample",
    "topological_order",
]


class ScmError(CdpError):
    """Invalid model structure or operation on a model."""


# --- hashed substreams -----------------------------------------------------

_U64 = np.uint64
_MASK = 0xFFFFFFFFFFFFFFFF
_SAMPLE_ROWS = 1 << 16  # units that sample draws at a time


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


# --- normal quantile -------------------------------------------------------

# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989). The operations follow the C source one for one, in the same order
# and with libm's log, so the results equal the compiled C function's bit
# for bit and sampled tables keep their bytes.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# sqrt(-2 log y) in [2, 8)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# sqrt(-2 log y) in [8, 64)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] by Horner's rule."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """_polevl with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(values: np.ndarray) -> np.ndarray:
    """Elementwise libm log: numpy's SIMD log can differ by a few ulp."""
    return np.fromiter(map(math.log, values.tolist()), np.float64, len(values))


def ndtri(p) -> np.ndarray:
    """Standard normal quantile, elementwise: 0 maps to -inf, 1 to +inf,
    anything outside [0, 1] to nan."""
    y = np.array(p, dtype=np.float64, ndmin=1)
    x = np.full_like(y, np.nan)
    upper = y > 1.0 - _EXP_M2
    y[upper] = 1.0 - y[upper]

    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    x[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI

    tail = ~central & (y > 0.0)
    t = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / t
    x1 = np.where(
        t < 8.0,
        z * _polevl(z, _P1) / _p1evl(z, _Q1),
        z * _polevl(z, _P2) / _p1evl(z, _Q2),
    )
    x[tail] = t - _log(t) / t - x1
    x[y == 0.0] = np.inf
    flip = ~central & ~upper
    x[flip] = -x[flip]
    return x.reshape(np.shape(p))


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
        self.var_index(var)
        return tuple(
            v for v in self.variables if var in self.mechanisms[v].parents
        )


def topological_order(
    variables: Sequence[str], edges: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Kahn's order of variables over (parent, child) edges, ready
    variables first in first out, and one cycle: empty when the order
    holds every variable, else a walk up parent edges among the rest that
    ends where it closes, such as (A, B, A) for B a parent of A."""
    parents: dict[str, list[str]] = {v: [] for v in variables}
    children: dict[str, list[str]] = {v: [] for v in variables}
    for parent, child in edges:
        parents[child].append(parent)
        children[parent].append(child)
    in_degree = {v: len(parents[v]) for v in variables}
    ready = deque(v for v in variables if in_degree[v] == 0)
    order: list[str] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for child in children[node]:
            in_degree[child] -= 1
            if in_degree[child] == 0:
                ready.append(child)
    if len(order) == len(variables):
        return tuple(order), ()
    # a variable left over has a parent left over, so the walk closes
    trail = [next(v for v in variables if in_degree[v])]
    while True:
        node = next(p for p in parents[trail[-1]] if in_degree[p])
        if node in trail:
            return tuple(order), (*trail[trail.index(node):], node)
        trail.append(node)


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
    order, cycle = topological_order(
        variables, ((p, v) for v in variables for p in mechanisms[v].parents)
    )
    if cycle:
        raise ScmError("cycle detected: " + " -> ".join(cycle))
    return Scm(name=name, variables=variables, mechanisms=mechanisms, topo_order=order)


# --- datasets --------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Immutable rectangular table of finite float64 values. A float64
    array is taken as it is, not copied, and made read-only."""

    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        values = np.asarray(self.values, dtype=np.float64)
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


# --- sampling, abduction, counterfactuals ----------------------------------


def _deterministic_part(
    scm: Scm, var: str, env: Mapping[str, np.ndarray], n: int
) -> np.ndarray | float:
    mech = scm.mechanisms[var]
    if mech.expression is None:
        return 0.0
    bindings = {name: env[name] for name in free_variables(mech.expression)}
    return evaluate_batch(mech.expression, bindings, n)


def _checked_finite(var: str, column: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(column)):
        raise ScmError(f"non-finite values in column {var!r}")
    return column


def sample(scm: Scm, n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Draw n units. Returns the realized table and the exogenous draws.

    The recorded draw for each variable is the abduction residual
    ``v - g(parents)``, which is within one ulp of the raw draw, so
    abduct(scm, data) reproduces the noise table bitwise.
    """
    if n < 1:
        raise ScmError(f"sample size must be positive, got {n}")
    # each column is computed into its place a block of rows at a time, so the draw's
    # temporaries stay a block long; parents are read from the table's column views,
    # and every step is elementwise, so the bits are those of whole columns
    table = np.empty((n, len(scm.variables)))
    drawn = np.empty_like(table)
    for var in scm.topo_order:
        j = scm.var_index(var)
        for start in range(0, n, _SAMPLE_ROWS):
            rows = slice(start, min(start + _SAMPLE_ROWS, n))
            units = np.arange(rows.start, rows.stop, dtype=np.uint64)
            parents = {p: table[rows, scm.var_index(p)] for p in scm.mechanisms[var].parents}
            det = _deterministic_part(scm, var, parents, len(units))
            np.add(det, scm.mechanisms[var].noise.draw(seed, j, units), out=table[rows, j])
            np.subtract(table[rows, j], det, out=drawn[rows, j])
    return Dataset(scm.variables, table), Dataset(scm.variables, drawn)


def abduct(scm: Scm, data: Dataset) -> dict[str, np.ndarray]:
    """Per-unit exogenous values u = v - g(parents), one column per variable."""
    env = {var: data.column(var) for var in scm.variables}
    noise = {}
    for var in scm.variables:
        det = _deterministic_part(scm, var, env, data.m)
        with np.errstate(over="ignore"):
            noise[var] = _checked_finite(var, env[var] - det)
    return noise


def counterfactual_table(
    scm: Scm, noise: Mapping[str, np.ndarray], pins: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Counterfactual of every unit at once from the abducted noise of
    every variable. pins maps variables to per-unit columns, which they
    take exactly; every other variable is recomputed as g(parents) + u
    in topological order."""
    m = len(noise.get(scm.variables[0], ()))
    for var in scm.variables:
        if np.shape(noise.get(var)) != (m,):
            raise ScmError(f"noise for {var!r} is missing or not one value per unit")
    for var, column in pins.items():
        scm.var_index(var)
        if np.shape(column) != (m,):
            raise ScmError(
                f"pinned column for {var!r} has shape {np.shape(column)}, "
                f"expected ({m},)"
            )
    values: dict[str, np.ndarray] = {}
    for var in scm.topo_order:
        if var in pins:
            column = np.asarray(pins[var], dtype=np.float64)
        else:
            det = _deterministic_part(scm, var, values, m)
            with np.errstate(over="ignore"):
                column = det + noise[var]
        values[var] = _checked_finite(var, column)
    return {var: values[var] for var in scm.variables}
