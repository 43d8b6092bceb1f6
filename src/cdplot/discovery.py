"""Constraint-based structure discovery for building candidate models.

pc_skeleton runs the stable variant of the PC algorithm: adjacency
sets are frozen at the start of each conditioning level, so the result
does not depend on variable order. Independence is judged by the
Fisher z transform of partial correlation. orient_cpdag then directs
unshielded colliders away from their separating sets and closes under
the four standard propagation rules; a contested edge is logged and
left undirected rather than oriented arbitrarily.

enumerate_dags lists candidate fully directed graphs: orientations of
the undirected edges that keep the graph acyclic, keep every directed
edge, and do not create a collider out of two re-oriented edges. When
the input is fully closed under the propagation rules this is exactly
the set of graphs with the same skeleton and colliders; inputs with
unpropagated edges may also yield candidates that complete a collider
with a pre-directed edge, which is deliberate so structure uncertainty
around a partially oriented output can be explored. The candidates come
from a depth-first search over the edges in sorted order that drops a
partial orientation as soon as it closes a cycle or such a collider.
Both defects persist as more edges are oriented, so nothing valid is
lost, and the search stops one candidate past the cap: its work follows
the candidates found and the branches pruned, not the 2^k orientations
of k undirected edges.

fit_anm turns one candidate DAG into a concrete additive-noise model
by polynomial least squares, so abduction on the training data returns
exactly the per-unit fit residuals.

select is the structure step of a run: it learns the graph
(learn_cpdag, also behind `discover`), keeps the first candidate in name
order, drops the predictors' targets and fits the ANM to the rest. It
returns the model with the record the manifest keeps. DiscoverySettings
holds the defaults of every step.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import CdpError, DataError
from .expr import BinOp, Const, Expression, Neg, Var, evaluate_batch
from .predictors import fit_ols
from .scm import Dataset, Mechanism, NoiseSpec, Scm, build_scm, ndtri, topological_order

__all__ = [
    "Cpdag",
    "Dag",
    "DagEnumeration",
    "DiscoveryError",
    "DiscoverySettings",
    "SepsetTable",
    "Skeleton",
    "cpdag_to_text",
    "enumerate_dags",
    "fisher_z_test",
    "fit_anm",
    "learn_cpdag",
    "orient_cpdag",
    "pc_skeleton",
    "select",
]

logger = logging.getLogger(__name__)


class DiscoveryError(CdpError):
    """Invalid discovery input or a degenerate test."""


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency structure over named variables."""

    variables: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a >= b or a not in self.variables or b not in self.variables:
                raise DiscoveryError(f"bad skeleton edge {(a, b)!r}")

    def neighbors(self, var: str) -> tuple[str, ...]:
        out = [b if a == var else a for a, b in self.edges if var in (a, b)]
        return tuple(sorted(out))


class SepsetTable:
    """Separating sets recorded while thinning the skeleton."""

    def __init__(self):
        self._sets: dict[tuple[str, str], tuple[str, ...]] = {}

    def record(self, a: str, b: str, conditioning: tuple[str, ...]) -> None:
        self._sets[_edge(a, b)] = tuple(conditioning)

    def get(self, a: str, b: str) -> tuple[str, ...] | None:
        return self._sets.get(_edge(a, b))

    def items(self):
        return sorted(self._sets.items())


@dataclass(frozen=True)
class Cpdag:
    """Partially directed graph: some edges oriented, some not.

    orient_cpdag records what it could not decide, as name-sorted edges
    in sorted order: conflicts, the edges that collider votes pushed both
    ways, and contested, the edges propagation left undirected because
    the rules pushed them both ways or their direction would close a
    directed cycle."""

    variables: tuple[str, ...]
    directed: frozenset[tuple[str, str]]
    undirected: frozenset[tuple[str, str]]
    conflicts: tuple[tuple[str, str], ...] = ()
    contested: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        known = set(self.variables)
        for a, b in self.directed:
            if a not in known or b not in known or a == b:
                raise DiscoveryError(f"bad directed edge {(a, b)!r}")
        for a, b in self.undirected:
            if a >= b or a not in known or b not in known:
                raise DiscoveryError(f"bad undirected edge {(a, b)!r}")
        if topological_order(self.variables, self.directed)[1]:
            raise DiscoveryError("directed part contains a cycle")


@dataclass(frozen=True)
class Dag:
    """Fully directed acyclic graph; edges are (parent, child)."""

    variables: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        known = set(self.variables)
        for a, b in self.edges:
            if a not in known or b not in known or a == b:
                raise DiscoveryError(f"bad edge {(a, b)!r}")
        if topological_order(self.variables, self.edges)[1]:
            raise DiscoveryError("graph contains a cycle")

    def parents(self, var: str) -> tuple[str, ...]:
        return tuple(sorted(a for a, b in self.edges if b == var))


def _reaches(children: dict[str, list[str]], start: str, goal: str) -> bool:
    """Is there a directed path from start to goal?"""
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for child in children[node]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


# --- independence testing --------------------------------------------------


def fisher_z_test(
    data: Dataset,
    i: str,
    j: str,
    conditioning: tuple[str, ...] = (),
    alpha: float = 0.05,
) -> tuple[float, bool]:
    """Partial-correlation independence test.

    Returns (statistic, independent). The statistic is
    sqrt(n - |s| - 3) * |z| for the Fisher transform z of the partial
    correlation of i and j given s; independence is declared when it
    does not exceed the two-sided normal quantile for alpha. The
    correlations are the [i, j, s] block of the dataset's correlation
    matrix, which is computed once per Dataset and shared by every test
    on it; only a constant column among i, j and s makes the test fail.
    """
    conditioning = tuple(conditioning)
    names = tuple(sorted((i, j))) + conditioning  # bitwise symmetric in i, j
    if len(set(names)) != len(names):
        raise DiscoveryError(f"test variables not distinct: {names}")
    if not 0.0 < alpha < 1.0:
        raise DiscoveryError(f"alpha must be in (0, 1), got {alpha}")
    n = data.m
    if n <= len(conditioning) + 3:
        raise DiscoveryError(
            f"need more than |s| + 3 = {len(conditioning) + 3} rows, got {n}"
        )
    index = [data.index(name) for name in names]
    corr = data.correlation[np.ix_(index, index)]
    if not np.all(np.isfinite(corr)):
        raise DiscoveryError(
            "correlation undefined (constant column among "
            + ", ".join(names)
            + ")"
        )
    if not conditioning:
        r = float(corr[0, 1])
    else:
        try:
            precision = np.linalg.inv(corr)
        except np.linalg.LinAlgError:
            raise DiscoveryError(
                "singular correlation matrix for " + ", ".join(names)
            ) from None
        denom = precision[0, 0] * precision[1, 1]
        if denom <= 0.0:
            raise DiscoveryError("ill-conditioned correlation matrix")
        r = float(-precision[0, 1] / np.sqrt(denom))
    if abs(r) >= 1.0:
        return float("inf"), False
    z = 0.5 * np.log((1.0 + r) / (1.0 - r))
    statistic = float(np.sqrt(n - len(conditioning) - 3) * abs(z))
    return statistic, statistic <= _z_threshold(alpha)


@functools.lru_cache(maxsize=8)
def _z_threshold(alpha: float) -> float:
    """The two-sided standard normal quantile for alpha."""
    return float(ndtri(1.0 - alpha / 2.0))


# --- skeleton --------------------------------------------------------------


def pc_skeleton(
    data: Dataset, alpha: float = 0.05, max_cond: int = 3
) -> tuple[Skeleton, SepsetTable]:
    """Stable-PC skeleton search up to conditioning sets of size
    max_cond. Returns the surviving edges and the separating sets."""
    if max_cond < 0:
        raise DiscoveryError(f"max_cond must be nonnegative, got {max_cond}")
    variables = tuple(data.columns)
    if len(variables) < 2:
        raise DiscoveryError("need at least two variables")
    ordered = sorted(variables)
    adjacency: dict[str, set[str]] = {
        v: {w for w in ordered if w != v} for v in ordered
    }
    sepsets = SepsetTable()
    for level in range(max_cond + 1):
        frozen = {v: sorted(adjacency[v]) for v in ordered}
        if all(len(frozen[v]) - 1 < level for v in ordered):
            break
        for a, b in itertools.combinations(ordered, 2):
            if b not in adjacency[a]:
                continue
            separated = False
            for side_a, side_b in ((a, b), (b, a)):
                pool = [v for v in frozen[side_a] if v != side_b]
                if len(pool) < level:
                    continue
                for subset in itertools.combinations(pool, level):
                    _, independent = fisher_z_test(data, a, b, subset, alpha)
                    if independent:
                        adjacency[a].discard(b)
                        adjacency[b].discard(a)
                        sepsets.record(a, b, subset)
                        separated = True
                        break
                if separated:
                    break
    edges = frozenset(
        (a, b)
        for a, b in itertools.combinations(ordered, 2)
        if b in adjacency[a]
    )
    return Skeleton(variables, edges), sepsets


# --- orientation -----------------------------------------------------------


def orient_cpdag(skeleton: Skeleton, sepsets: SepsetTable) -> Cpdag:
    """Orient unshielded colliders, then close under the propagation
    rules. Edges pushed both ways, and edges whose propagated direction
    would close a directed cycle, are logged and left undirected."""
    ordered = tuple(sorted(skeleton.variables))
    adjacent = {
        v: set(skeleton.neighbors(v)) for v in ordered
    }
    votes: set[tuple[str, str]] = set()
    for k in ordered:
        for i, j in itertools.combinations(sorted(adjacent[k]), 2):
            if j in adjacent[i]:
                continue
            separating = sepsets.get(i, j)
            if separating is None:
                continue
            if k not in separating:
                votes.add((i, k))
                votes.add((j, k))
    directed: set[tuple[str, str]] = set()
    conflicts: list[tuple[str, str]] = []
    for a, b in sorted(votes):
        if (b, a) in votes:
            if a < b:
                logger.warning(
                    "conflicting collider orientations for %s - %s; leaving undirected",
                    a,
                    b,
                )
                conflicts.append((a, b))
            continue
        directed.add((a, b))

    undirected = {
        e for e in skeleton.edges
        if e not in directed and (e[1], e[0]) not in directed
    }

    def rule_fires(x: str, y: str) -> bool:
        """Would one of the four propagation rules orient x -> y?"""
        # Rule 1: c -> x, x - y, c and y non-adjacent.
        for c in adjacent[x]:
            if c != y and (c, x) in directed and y not in adjacent[c]:
                return True
        # Rule 2: x -> c -> y with x - y.
        for c in adjacent[x] & adjacent[y]:
            if (x, c) in directed and (c, y) in directed:
                return True
        # Rule 3: x - c -> y and x - d -> y, c and d non-adjacent.
        spokes = [
            c
            for c in adjacent[x] & adjacent[y]
            if _edge(x, c) in undirected and (c, y) in directed
        ]
        for c, d in itertools.combinations(sorted(spokes), 2):
            if d not in adjacent[c]:
                return True
        # Rule 4: x - c, c -> d, d -> y with c,y non-adjacent and d,x
        # adjacent.
        for c in adjacent[x]:
            if c == y or _edge(x, c) not in undirected or y in adjacent[c]:
                continue
            for d in adjacent[y]:
                if d in adjacent[x] and (c, d) in directed and (d, y) in directed:
                    return True
        return False

    contested: set[tuple[str, str]] = set()
    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected - contested):
            forward = rule_fires(a, b)
            backward = rule_fires(b, a)
            if forward and backward:
                logger.warning(
                    "propagation conflict on %s - %s; leaving undirected", a, b
                )
                contested.add((a, b))
                changed = True
            elif forward or backward:
                x, y = (a, b) if forward else (b, a)
                if topological_order(ordered, directed | {(x, y)})[1]:
                    logger.warning(
                        "orienting %s -> %s would close a directed cycle; "
                        "leaving undirected",
                        x,
                        y,
                    )
                    contested.add((a, b))
                else:
                    undirected.discard((a, b))
                    directed.add((x, y))
                changed = True
            if changed:
                break
    return Cpdag(
        skeleton.variables,
        frozenset(directed),
        frozenset(undirected),
        tuple(conflicts),
        tuple(sorted(contested)),
    )


# --- enumeration -----------------------------------------------------------


@dataclass(frozen=True)
class DagEnumeration:
    dags: tuple[Dag, ...]
    truncated: bool


def enumerate_dags(cpdag: Cpdag, cap: int = 64) -> DagEnumeration:
    """Candidate orientations of the undirected edges, in lexicographic
    order of the orientation vector (0 keeps the name-sorted direction).
    Stops after cap results and flags truncation.

    A depth-first search orients the edges in sorted order, trying the
    name-sorted direction first, and abandons a branch as soon as the
    new edge closes a directed cycle or forms a collider with another
    re-oriented edge. Neither defect can be undone by orienting more
    edges, so the leaves reached are exactly the valid orientations."""
    if cap < 1:
        raise DiscoveryError(f"cap must be positive, got {cap}")
    undirected = sorted(cpdag.undirected)
    adjacent: dict[str, set[str]] = {v: set() for v in cpdag.variables}
    children: dict[str, list[str]] = {v: [] for v in cpdag.variables}
    for a, b in cpdag.directed:
        adjacent[a].add(b)
        adjacent[b].add(a)
        children[a].append(b)
    for a, b in undirected:
        adjacent[a].add(b)
        adjacent[b].add(a)
    # Tails of the re-oriented edges into each node. Two non-adjacent
    # tails would make a collider that the input does not have.
    reoriented_parents: dict[str, list[str]] = {v: [] for v in cpdag.variables}

    def oriented(position: int, flip: int) -> tuple[str, str]:
        a, b = undirected[position]
        return (b, a) if flip else (a, b)

    flips: list[int] = []  # the direction chosen at each oriented position
    flip = 0  # the next direction to try at position len(flips)
    dags: list[Dag] = []
    truncated = False
    while True:
        position = len(flips)
        if position < len(undirected) and flip < 2:
            tail, head = oriented(position, flip)
            # A collider completed with a pre-directed edge stays a
            # candidate; one assembled out of two re-oriented edges does not.
            collider = any(p not in adjacent[tail] for p in reoriented_parents[head])
            if collider or _reaches(children, head, tail):
                flip += 1
            else:
                children[tail].append(head)
                reoriented_parents[head].append(tail)
                flips.append(flip)
                flip = 0
            continue
        if position == len(undirected):
            if len(dags) == cap:
                truncated = True
                break
            edges = set(cpdag.directed)
            edges.update(oriented(i, f) for i, f in enumerate(flips))
            dags.append(Dag(cpdag.variables, frozenset(edges)))
        if not flips:
            break
        # backtrack: undo the last edge and try its other direction
        last = flips.pop()
        tail, head = oriented(len(flips), last)
        children[tail].pop()
        reoriented_parents[head].pop()
        flip = last + 1
    return DagEnumeration(tuple(dags), truncated)


# --- serialization ---------------------------------------------------------


def cpdag_to_text(cpdag: Cpdag) -> str:
    """Stable text form: one 'A -> B' or 'A -- B' line per edge."""
    lines = [f"{a} -> {b}" for a, b in sorted(cpdag.directed)]
    lines += [f"{a} -- {b}" for a, b in sorted(cpdag.undirected)]
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


# --- model fitting ---------------------------------------------------------


def _constant(value: float) -> Expression:
    if value < 0.0 or (value == 0.0 and np.signbit(value)):
        return Neg(Const(-float(value)))
    return Const(float(value))


def _monomial(parents, exps) -> Expression | None:
    term: Expression | None = None
    for name, e in zip(parents, exps):
        if e == 0:
            continue
        factor: Expression = Var(name)
        if e > 1:
            factor = BinOp("^", factor, Const(float(e)))
        term = factor if term is None else BinOp("*", term, factor)
    return term


def _polynomial_expression(parents, exponents, coefficients) -> Expression:
    acc: Expression | None = None
    for exps, coef in zip(exponents, coefficients):
        coef = float(coef)
        if coef == 0.0:
            continue
        monomial = _monomial(parents, exps)
        if monomial is None:
            term: Expression = _constant(coef)
        elif coef == 1.0:
            term = monomial
        elif coef == -1.0:
            term = Neg(monomial)
        else:
            term = BinOp("*", _constant(abs(coef)), monomial)
            if coef < 0.0:
                term = Neg(term)
        if acc is None:
            acc = term
        elif isinstance(term, Neg):
            acc = BinOp("-", acc, term.operand)
        else:
            acc = BinOp("+", acc, term)
    return acc if acc is not None else Const(0.0)


def fit_anm(dag: Dag, data: Dataset, degree: int = 3) -> Scm:
    """Fit an additive-noise model along one candidate DAG.

    Roots get a normal noise matched to the sample mean and standard
    deviation. Every other variable gets a least-squares polynomial in
    its parents with Normal(0, residual sd) noise, so abducting the
    training data returns the fit residuals exactly.
    """
    for var in dag.variables:
        data.index(var)
    order = tuple(v for v in data.columns if v in set(dag.variables))
    mechanisms: dict[str, Mechanism] = {}
    for var in order:
        parents = dag.parents(var)
        column = data.column(var)
        if not parents:
            mean = float(np.mean(column))
            sd = float(np.std(column, ddof=1)) if data.m > 1 else 0.0
            mechanisms[var] = Mechanism((), None, NoiseSpec.normal(mean, sd))
            continue
        fitted = fit_ols(data, var, parents, degree)
        expression = _polynomial_expression(
            parents, fitted.exponents, fitted.coefficients
        )
        env = {p: data.column(p) for p in parents}
        residuals = column - evaluate_batch(expression, env, data.m)
        sd = float(np.std(residuals))
        mechanisms[var] = Mechanism(parents, expression, NoiseSpec.normal(0.0, sd))
    return build_scm("anm", mechanisms)


# --- selection -------------------------------------------------------------


@dataclass(frozen=True)
class DiscoverySettings:
    """Discovery settings and their defaults; no variables: every column."""

    alpha: float = 0.05
    max_cond: int = 3
    degree: int = 3
    variables: tuple[str, ...] = ()
    cap: int = 64


def learn_cpdag(settings: DiscoverySettings, data: Dataset) -> Cpdag:
    """The partially directed graph of the settings' variables."""
    names = settings.variables or data.columns
    for name in names:
        if name not in data.columns:
            raise DataError(f"discovery variable {name!r} missing from the data")
    subset = Dataset(names, np.column_stack([data.column(n) for n in names]))
    skeleton, sepsets = pc_skeleton(subset, settings.alpha, settings.max_cond)
    return orient_cpdag(skeleton, sepsets)


def select(settings: DiscoverySettings, data: Dataset, targets: set[str]) -> tuple[Scm, dict]:
    """The additive-noise model of the first candidate without the
    targets, and the manifest record of the graph and its candidates."""
    cpdag = learn_cpdag(settings, data)
    enumeration = enumerate_dags(cpdag, settings.cap)
    if not enumeration.dags:
        raise DiscoveryError("no acyclic orientation of the discovered graph")
    chosen = enumeration.dags[0]
    kept = tuple(v for v in chosen.variables if v not in targets)
    edges = frozenset((a, b) for a, b in chosen.edges if a in kept and b in kept)
    record = {
        "cpdag": cpdag_to_text(cpdag).splitlines(),
        "chosen_dag": sorted(f"{a} -> {b}" for a, b in chosen.edges),
        "collider_conflicts": [f"{a} -- {b}" for a, b in cpdag.conflicts],
        "contested": [f"{a} -- {b}" for a, b in cpdag.contested],
        "candidates": len(enumeration.dags),
        "truncated": enumeration.truncated,
    }
    return fit_anm(Dag(kept, edges), data, settings.degree), record
