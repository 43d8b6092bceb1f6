"""Predictors the plot machinery can explain.

Four kinds share one small interface: an ordered feature tuple and a
batch predict over a row matrix. Fitted predictors are frozen after
construction and predict is deterministic, so repeated calls on the
same rows return identical arrays.

The external kind talks to a subprocess over a line protocol on
stdin/stdout (UTF-8, LF newlines):

    engine -> HELLO CDP/1 <k> <f1,...,fk>
    child  -> READY
    engine -> PREDICT <n>
    engine -> n CSV lines, one row of k floats each
    child  -> n lines, one float each
    ...
    engine -> QUIT

Floats travel with 17 significant digits so values round-trip exactly.
The requests of a block are written ahead of their answers, a chunk at
a time as they are formatted, and each request's answers are parsed as
soon as its lines are in; so a child answers in order, and may answer
each row as soon as it reads it. The timeout bounds any stall on either
pipe. A protocol error (timeout, early exit, broken pipe, bad handshake,
short answer, malformed line, or output beyond the answers) raises
ExternalPredictorError, kills the child, and makes every later request
raise too. The process modules it needs (subprocess, select, shlex) load
when a child is started, so no other predictor pays for them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import sys
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .errors import CdpError, DataError
from .expr import Expression, evaluate_batch, free_variables, parse, to_source
from .scm import Dataset

__all__ = [
    "ClosedFormPredictor",
    "ExternalPredictor",
    "ForestConfig",
    "ForestPredictor",
    "OlsPredictor",
    "Predictor",
    "PredictorError",
    "ExternalPredictorError",
    "check_count",
    "check_features",
    "fit_forest",
    "fit_ols",
    "load_predictor",
    "open_external",
    "save_predictor",
]

_GRAM_CONDITION_LIMIT = 1e12
_RIDGE = 1e-8
# Cells fit_ols allows in its terms x terms Gram matrix (4,096 terms,
# 128 MiB of floats); the terms are counted before any is enumerated.
_GRAM_CELLS = 1 << 24


class PredictorError(CdpError):
    """Problem fitting or applying a predictor."""


class ExternalPredictorError(PredictorError):
    """The external predictor subprocess misbehaved."""


def _csv_rows(x: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines of 17 significant
    digits, so every value survives the text round trip exactly; one "%"
    formats the whole array. Dataset files and external requests are
    written through here."""
    n, k = x.shape
    return ((",".join(["%.17g"] * k) + "\n") * n) % tuple(x.ravel().tolist())


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for an array without NaN, without importing
    numpy.ma, which np.unique does to test for a masked array. For
    float64 np.unique also sorts and keeps each value that differs from
    its left neighbour, so the result is the same array bit for bit,
    down to which of -0.0 and 0.0 it keeps; for integers the values are
    equal."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _numpy_random():
    """numpy.random, imported without OpenSSL's libcrypto when neither
    it nor hashlib's OpenSSL module is loaded yet. numpy.random imports
    secrets -> hmac -> hashlib, and each takes its builtin fallback
    while _hashlib is blocked; the block and the hashlib and hmac it
    leaves behind are then dropped from sys.modules, so a later
    `import hashlib` in the process gets OpenSSL as usual."""
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return np.random
    added = [name for name in ("_hashlib", "hashlib", "hmac") if name not in sys.modules]
    sys.modules["_hashlib"] = None
    try:
        import numpy.random
    finally:
        for name in added:
            sys.modules.pop(name, None)
    return numpy.random


class Predictor:
    """Interface: ordered features plus batch predict."""

    features: tuple[str, ...]

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Predict for a matrix whose columns follow self.features."""
        out = np.asarray(self._predict(self._checked(rows)), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise PredictorError("predictor produced non-finite values")
        return out

    def predict_each(self, matrices: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """The predictions for each matrix in turn, one predict call per
        matrix; an external predictor sends them all ahead of the answers."""
        return map(self.predict, matrices)

    def _checked(self, rows: np.ndarray) -> np.ndarray:
        """rows as a float matrix with one column per feature and only
        finite values."""
        x = np.asarray(rows, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(self.features):
            raise PredictorError(
                f"expected rows with {len(self.features)} feature column(s), "
                f"got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise PredictorError("feature rows contain non-finite values")
        return x

    def _predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def predict_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        for f in self.features:
            if f not in columns:
                raise PredictorError(f"missing feature column {f!r}")
        return self.predict(np.column_stack([columns[f] for f in self.features]))


def _distinct_features(features: Sequence[str]) -> tuple[str, ...]:
    """features, none listed twice: a fitted model reads each column once."""
    features = tuple(features)
    if len(set(features)) != len(features):
        raise PredictorError("duplicate feature names")
    return features


def check_count(name: str, value) -> int:
    """value, a whole number of at least 1 (a numpy integer too), as an
    int; JSON's true and false, which Python counts as ints, are not
    numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise PredictorError(f"{name} {value!r} is not a whole number >= 1")
    return int(value)


def check_features(data: Dataset, target: str, features: Sequence[str]) -> tuple[str, ...]:
    """Features of a predictor of target fitted on data: at least one, none
    twice, not the target (else PredictorError), all columns of data with
    the target (else DataError)."""
    features = _distinct_features(features)
    if not features:
        raise PredictorError("need at least one feature")
    if target in features:
        raise PredictorError(f"target {target!r} cannot also be a feature")
    for what, name in (("target", target), *(("feature", f) for f in features)):
        if name not in data.columns:
            raise DataError(f"predictor {what} {name!r} missing from the data")
    return features


# --- closed form -----------------------------------------------------------


class ClosedFormPredictor(Predictor):
    """Evaluates a fixed expression of the features."""

    def __init__(self, expression: Expression | str, features: Sequence[str]):
        if isinstance(expression, str):
            expression = parse(expression)
        self.expression = expression
        self.features = tuple(features)
        extra = free_variables(expression) - set(self.features)
        if extra:
            raise PredictorError(
                "expression references non-features: " + ", ".join(sorted(extra))
            )

    def _predict(self, x: np.ndarray) -> np.ndarray:
        env = {f: x[:, i] for i, f in enumerate(self.features)}
        return evaluate_batch(self.expression, env, x.shape[0])

    def describe(self) -> str:
        return f"closed_form({to_source(self.expression)})"


# --- polynomial least squares ----------------------------------------------


def _monomial_exponents(k: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with total degree <= degree, low order first."""
    out = []
    for total in range(degree + 1):
        level = [
            tuple(factors.count(i) for i in range(k))
            for factors in itertools.combinations_with_replacement(range(k), total)
        ]
        # graded lexicographic: within a level, earlier features first,
        # so degree 1 reads (intercept, feature coefficients in order)
        out.extend(sorted(level, reverse=True))
    return tuple(out)


# _design multiplies at most _TERMS_PER_GROUP terms together, and fewer
# when there are many rows, so that its product temporaries hold about
# _DESIGN_CELLS cells; for all terms at once they would outgrow the design
# matrix itself.
_TERMS_PER_GROUP = 16
_DESIGN_CELLS = 1 << 14


@functools.lru_cache(maxsize=32)
def _design_plan(
    exponents: tuple[tuple[int, ...], ...], per_group: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """How _design builds the columns of these exponent vectors: the
    distinct (feature, power) factors, and groups of at most per_group
    terms with the same number of factors, each as (its columns, a row
    per term of indices into the factors, in feature order)."""
    factors: dict[tuple[int, int], int] = {}
    by_count: dict[int, list[tuple[int, list[int]]]] = {}
    for column, exps in enumerate(exponents):
        term = [factors.setdefault((i, e), len(factors)) for i, e in enumerate(exps) if e]
        by_count.setdefault(len(term), []).append((column, term))
    groups = []
    for count, terms in by_count.items():
        for start in range(0, len(terms), per_group):
            group = terms[start : start + per_group]
            columns = np.array([column for column, _ in group], dtype=np.intp)
            indices = np.array([term for _, term in group], dtype=np.intp)
            indices = indices.reshape(len(group), count)
            columns.flags.writeable = indices.flags.writeable = False  # shared by every call
            groups.append((columns, indices))
    return tuple(factors), tuple(groups)


def _design(x: np.ndarray, exponents: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The C-order design matrix: column t is the product of x[:, i] ** e
    over the nonzero powers e of exponent vector t, multiplied in feature
    order (1.0 for a term without factors). Each distinct power is
    computed once, and each group of terms with the same number of
    factors is filled together, one multiply per factor position."""
    per_group = max(1, min(_TERMS_PER_GROUP, _DESIGN_CELLS // max(1, x.shape[0])))
    factors, groups = _design_plan(tuple(exponents), per_group)
    powers = np.empty((len(factors), x.shape[0]))
    for row, (i, e) in enumerate(factors):
        powers[row] = x[:, i] ** e
    design = np.empty((x.shape[0], len(exponents)))
    for columns, terms in groups:
        if terms.shape[1] == 0:
            design[:, columns] = 1.0
            continue
        product = powers[terms[:, 0]]
        for position in range(1, terms.shape[1]):
            product *= powers[terms[:, position]]
        design[:, columns] = product.T
    return design


class OlsPredictor(Predictor):
    """Polynomial least squares over all monomials up to a total degree."""

    def __init__(
        self,
        features: Sequence[str],
        degree: int,
        exponents: Sequence[tuple[int, ...]],
        coefficients: np.ndarray,
    ):
        self.features = _distinct_features(features)
        self.degree = check_count("degree", degree)
        self.exponents = tuple(tuple(e) for e in exponents)
        coefficients = np.array(coefficients, dtype=np.float64)
        coefficients.flags.writeable = False
        self.coefficients = coefficients
        _check_ols(len(self.features), self.degree, self.exponents, coefficients)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        return _design(x, self.exponents) @ self.coefficients

    def describe(self) -> str:
        return f"ols(degree={self.degree})"


def _check_ols(k: int, degree: int, exponents: Sequence[tuple], coefficients: np.ndarray) -> None:
    """Reject terms no fit produces: a coefficient count other than one
    per exponent vector, or an exponent vector that is not k whole
    non-negative powers or whose total power passes the degree."""
    if coefficients.shape != (len(exponents),):
        raise PredictorError(
            f"{len(exponents)} exponent vectors need as many coefficients, "
            f"got shape {coefficients.shape}"
        )
    for exps in exponents:
        if len(exps) != k or not all(isinstance(e, (int, np.integer)) and e >= 0 for e in exps):
            raise PredictorError(f"exponent vector {list(exps)!r} is not {k} whole powers")
        if sum(exps) > degree:
            raise PredictorError(f"exponent vector {list(exps)!r} passes degree {degree}")


def fit_ols(data: Dataset, target: str, features: Sequence[str], degree: int = 1) -> OlsPredictor:
    """Least-squares polynomial fit. When the Gram matrix is close to
    singular (condition estimate above 1e12) a small ridge penalty is
    added instead of failing. A degree with more terms than _GRAM_CELLS
    admits is refused."""
    features = check_features(data, target, features)
    degree = check_count("degree", degree)
    terms = math.comb(len(features) + degree, degree)
    if terms * terms > _GRAM_CELLS:
        raise PredictorError(f"degree {degree} on {len(features)} feature(s) gives {terms} "
                             f"terms; their Gram matrix passes {_GRAM_CELLS} cells")
    y = data.column(target)
    x = np.column_stack([data.column(f) for f in features])
    exponents = _monomial_exponents(len(features), degree)
    with np.errstate(over="ignore", invalid="ignore"):
        design = _design(x, exponents)
        gram = design.T @ design
        moment = design.T @ y
    if not np.all(np.isfinite(gram)):
        raise PredictorError("least squares failed: the design matrix overflows")
    condition = np.linalg.cond(gram)
    if not np.isfinite(condition) or condition > _GRAM_CONDITION_LIMIT:
        gram = gram + _RIDGE * np.eye(gram.shape[0])
    try:
        beta = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError as exc:
        raise PredictorError(f"least squares failed: {exc}") from None
    if not np.all(np.isfinite(beta)):
        raise PredictorError("least squares produced non-finite coefficients")
    return OlsPredictor(features, degree, exponents, beta)


# --- random forest ---------------------------------------------------------


@dataclass(frozen=True)
class ForestConfig:
    """Knobs for the bagged regression forest; every field is checked."""

    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 5
    features_per_split: int | None = None  # default: ceil(k / 3)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_trees", "max_depth", "min_leaf"):
            check_count(name, getattr(self, name))
        if self.features_per_split is not None:
            check_count("features_per_split", self.features_per_split)
        if not isinstance(self.bootstrap, bool):
            raise PredictorError(f"bootstrap {self.bootstrap!r} is not true or false")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise PredictorError(f"seed {self.seed!r} is not an integer >= 0")


class _Tree:
    """Flat arrays for one CART tree; feature -1 marks a leaf."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add_leaf(self, value: float) -> int:
        index = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return index

    def add_split(self, feature: int, threshold: float) -> int:
        index = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return index

    def freeze(self) -> dict[str, np.ndarray]:
        return {
            "feature": np.asarray(self.feature, dtype=np.int64),
            "threshold": np.asarray(self.threshold, dtype=np.float64),
            "left": np.asarray(self.left, dtype=np.int64),
            "right": np.asarray(self.right, dtype=np.int64),
            "value": np.asarray(self.value, dtype=np.float64),
        }


def _best_split(column, targets, idx, min_leaf, sizes):
    """Best SSE-reducing threshold on one feature column over the rows
    idx, whose targets are `targets`, or None: (score, threshold, the
    positions in idx in stable order of the column, how many go left).
    sizes[j] is j as a float. Only the split positions that leave
    min_leaf rows a side are scored, each with the same arithmetic as
    when every position was."""
    values = column.take(idx)
    order = values.argsort(kind="stable")
    xs = values.take(order)
    if xs[0] == xs[-1]:
        return None
    ys = targets.take(order)
    n = len(idx)
    csum = ys.cumsum()
    csum2 = (ys * ys).cumsum()
    total, total2 = csum[-1], csum2[-1]
    # a split after sorted position i puts i + 1 rows on the left
    lo, hi = min_leaf - 1, n - min_leaf
    left, left2 = csum[lo:hi], csum2[lo:hi]
    right = total - left
    score = (left2 - left * left / sizes[min_leaf : hi + 1]) + (
        (total2 - left2) - right * right / sizes[hi:lo:-1]
    )
    score[xs[lo:hi] == xs[min_leaf : hi + 1]] = np.inf  # no threshold between equal values
    best = score.argmin()
    if score[best] == np.inf:
        return None
    cut = lo + best
    return score[best], 0.5 * (xs[cut] + xs[cut + 1]), order, cut + 1


def _feature_draws(rng, k: int, mtry: int, nodes: int) -> Iterator[list[int]]:
    """The features rng.choice(k, mtry, replace=False) would draw at each
    successive node, from one rng.integers call per `nodes` nodes.

    For k <= 10000, or mtry <= k // 50, numpy's choice runs Floyd's
    algorithm and then shuffles the drawn set, each step one bounded draw
    equal to the one integers(0, bound, endpoint=True) makes: bounds
    k - mtry ... k - 1, then mtry - 1 ... 1. Past that numpy shuffles the
    tail of arange(k) instead, and each node calls choice. Draws past a
    tree's last node are never used."""
    if k > 10000 and mtry > k // 50:
        while True:
            yield rng.choice(k, size=mtry, replace=False).tolist()
    per_node = np.concatenate([np.arange(k - mtry, k), np.arange(mtry - 1, 0, -1)])
    bounds = np.tile(per_node, nodes)
    while True:
        draws = rng.integers(0, bounds, endpoint=True).tolist()
        for start in range(0, len(draws), len(per_node)):
            chosen = []
            taken = set()
            for j, value in zip(range(k - mtry, k), draws[start : start + mtry]):
                value = j if value in taken else value  # Floyd's step
                taken.add(value)
                chosen.append(value)
            swaps = draws[start + mtry : start + len(per_node)]
            for i, j in zip(range(mtry - 1, 0, -1), swaps):
                chosen[i], chosen[j] = chosen[j], chosen[i]
            yield chosen


def _grow(tree, columns, y, idx, depth, config, draws, sizes):
    """Grow the subtree of the rows idx depth first and return its node.
    columns holds one contiguous row per feature, and each node that may
    split takes the next features from draws (see _feature_draws).
    fit_forest checks that no sum of squared targets overflows, so every
    score is finite."""
    targets = y.take(idx)
    best = None
    if (
        depth < config.max_depth
        and len(idx) >= 2 * config.min_leaf
        and targets.max() != targets.min()
    ):
        for feature in next(draws):
            found = _best_split(columns[feature], targets, idx, config.min_leaf, sizes)
            if found is not None and (best is None or found[0] < best[0]):
                best = (*found, feature)
    if best is None:
        return tree.add_leaf(float(targets.sum() / len(idx)))  # np.mean's arithmetic
    _, threshold, order, left, feature = best
    node = tree.add_split(feature, threshold)
    rows = idx.take(order)
    tree.left[node] = _grow(tree, columns, y, rows[:left], depth + 1, config, draws, sizes)
    tree.right[node] = _grow(tree, columns, y, rows[left:], depth + 1, config, draws, sizes)
    return node


# Node entries (trees x rows) that ForestPredictor._predict walks at a
# time, so that a block's node matrices stay in cache. It counts entries,
# not rows: the best number of rows falls as the number of trees grows.
_FOREST_NODES = 1 << 15
# Entries a forest's cell tables may hold, leaf cells and cell-map entries
# together (16 MB of 8-byte entries); a larger forest predicts by rounds.
# Past it the tables still predict 3-4x faster than the rounds (measured
# to 4M entries, 2 MB of L2 per core), so the cap bounds their memory and
# build time: about 0.05 s at 2^21 entries on 2 features, 0.13 s on 3.
_FOREST_CELLS = 1 << 21


class ForestPredictor(Predictor):
    """Bagged regression forest.

    `trees` holds one dict of flat node arrays per tree, as fitted and
    saved (feature -1 marks a leaf). The constructor checks them and
    packs all trees once into concatenated node arrays, in the
    data-parallel layout of Asadi, Lin & de Vries (IEEE TKDE 2014): the
    children are one interleaved (left, right) array and every leaf is
    a self-loop with threshold +inf, so `depth` rounds of one gather
    over a (trees x rows) node matrix take every row to its leaf in
    every tree. Rows go through in blocks of _FOREST_NODES // trees, so
    that a block's node matrices stay in cache (Tang, Jin & Yang, SIGIR
    2014); a block's first round compares whole feature columns with
    the roots' thresholds.

    When the features are few, a tree is also a decision table (Kohavi,
    ECML 1995): its distinct thresholds on each feature cut the feature
    space into cells, and every row in a cell reaches the same leaf. A
    value's cell along a feature is the number of thresholds below it,
    so a value equal to a threshold goes left, as in the walk. The
    first predict call then builds cell tables (so `cdplot fit`, which
    only saves the trees, builds none): one sorted list of every
    tree's thresholds per feature, a (trees x global cells) map per
    feature to each tree's own cell times its stride, and one flat
    table of each tree's leaf value per cell, filled by the rounds at
    one point of each cell. A predict call is one `searchsorted` per
    feature and, per row block, one gather into the table. The number
    of cells is the product of the threshold counts per tree, which
    grows with the features (50 depth-8 trees: 3.5e5 cells on 2
    features, 1.9e8 on 4), so the tables are built only while they hold
    at most _FOREST_CELLS entries, and other forests predict by rounds.

    Either way each row's leaf values are added in tree order, so
    predictions are the same floats as walking each tree on its own."""

    def __init__(self, features, config: ForestConfig, trees):
        self.features = _distinct_features(features)
        self.config = config
        self.trees = list(trees)
        if not self.trees:
            raise PredictorError("a forest needs at least one tree")
        for tree in self.trees:
            _check_tree(tree, len(self.features))
        sizes = [len(tree["feature"]) for tree in self.trees]
        offsets = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([tree["feature"] for tree in self.trees])
        leaf = feature < 0
        itself = np.arange(len(feature))
        kids = np.empty(2 * len(feature), dtype=np.int64)
        for side, name in enumerate(("left", "right")):
            child = np.concatenate(
                [tree[name] + offset for tree, offset in zip(self.trees, offsets)]
            )
            kids[side::2] = np.where(leaf, itself, child)
        threshold = np.concatenate([tree["threshold"] for tree in self.trees])
        self._feature = np.where(leaf, 0, feature)
        self._threshold = np.where(leaf, np.inf, threshold)
        self._kids = kids
        self._value = np.concatenate([tree["value"] for tree in self.trees])
        self._roots = offsets[:, None]
        # rounds until the deepest leaf; children follow their parent in
        # each tree, so the frontier empties after at most len(tree) rounds
        self._depth = 0
        frontier = offsets[~leaf[offsets]]
        while frontier.size:
            frontier = _sorted_unique(kids[2 * frontier[:, None] + [0, 1]])
            frontier = frontier[~leaf[frontier]]
            self._depth += 1

    @functools.cached_property
    def _cells(self) -> tuple[list[tuple[int, np.ndarray, np.ndarray]], np.ndarray] | None:
        """The cell tables, or None if no tree splits or the tables would
        pass _FOREST_CELLS entries: for each feature some tree splits on,
        (its index, the sorted distinct thresholds of all trees, the
        trees x (thresholds + 1) map from global cell to tree cell x
        stride, with each tree's table offset added in the first
        feature's map); and the flat leaf-value table, tree after tree."""
        own = []  # per tree, {feature: its sorted distinct thresholds}
        total = 0  # a Python int: a product over many features passes int64
        for tree in self.trees:
            own.append({})
            cells = 1
            for j in _sorted_unique(tree["feature"][tree["feature"] >= 0]).tolist():
                # unique keeps one of -0.0 and 0.0, which x > t does not tell apart
                own[-1][j] = _sorted_unique(tree["threshold"][tree["feature"] == j])
                cells *= len(own[-1][j]) + 1
                if total + cells > _FOREST_CELLS:
                    return None
            total += cells
        features = sorted(set().union(*own))
        if not features:
            return None
        bounds = [_sorted_unique(np.concatenate([o[j] for o in own if j in o])) for j in features]
        if total + len(self.trees) * sum(len(b) + 1 for b in bounds) > _FOREST_CELLS:
            return None
        maps = [np.empty((len(self.trees), len(b) + 1), dtype=np.int64) for b in bounds]
        table = np.empty(total)
        offset = 0
        for t, tree_own in enumerate(own):
            thresholds = [tree_own.get(j, np.empty(0)) for j in features]
            shape = [len(th) + 1 for th in thresholds]
            cells = stride = math.prod(shape)
            for th, b, size, cell_map in zip(thresholds, bounds, shape, maps):
                stride //= size
                cell_map[t] = np.append(th.searchsorted(b, side="left"), len(th)) * stride
            maps[0][t] += offset
            # one point of each cell: its upper threshold, or past the
            # last threshold the next float up
            reps = [np.append(th, np.nextafter(th[-1], np.inf) if len(th) else 0.0)
                    for th in thresholds]
            for start in range(0, cells, _FOREST_NODES):
                stop = min(cells, start + _FOREST_NODES)
                index = np.unravel_index(np.arange(start, stop), shape)
                points = np.zeros((stop - start, len(self.features)))
                for j, rep, i in zip(features, reps, index):
                    points[:, j] = rep.take(i)
                leaves = self._leaves(points, self._roots[t : t + 1])
                table[offset + start : offset + stop] = leaves[0]
            offset += cells
        return list(zip(features, bounds, maps)), table

    def _predict(self, x: np.ndarray) -> np.ndarray:
        trees = len(self.trees)
        step = max(1, _FOREST_NODES // trees)
        if self._cells is not None:
            features, table = self._cells
            # each value's global cell along each feature, for the whole call
            columns = [(b.searchsorted(x[:, j], side="left"), m) for j, b, m in features]
        total = np.zeros(x.shape[0])
        for start in range(0, x.shape[0], step):
            rows = slice(start, start + step)
            if self._cells is None:
                leaves = self._leaves(x[rows], self._roots)
            else:
                (cell, cell_map), *others = columns
                index = cell_map.take(cell[rows], axis=1)
                for cell, cell_map in others:
                    index += cell_map.take(cell[rows], axis=1)
                leaves = table.take(index)
            block = total[rows]
            for tree_leaves in leaves:
                block += tree_leaves
        return total / trees

    def _leaves(self, x: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """The leaf value each row of x reaches in each tree whose root
        is in the column roots, as a (trees x rows) matrix."""
        flat = x.ravel()
        base = np.arange(x.shape[0]) * x.shape[1]
        # every row starts at the roots, so the first round compares columns
        right = x.T.take(self._feature.take(roots[:, 0]), axis=0) > self._threshold.take(roots)
        node = self._kids.take(2 * roots + right)
        for _ in range(self._depth - 1):
            value = flat.take(base + self._feature.take(node))
            node = self._kids.take(2 * node + (value > self._threshold.take(node)))
        return self._value.take(node)

    def describe(self) -> str:
        return f"forest(trees={self.config.n_trees}, depth={self.config.max_depth})"


def _check_tree(tree: Mapping[str, np.ndarray], k: int) -> None:
    """Reject node arrays no fitted tree has: arrays of unequal length,
    a child that does not follow its parent (which rules out cycles),
    a feature index beyond the k features, a NaN threshold, or a value
    that is not finite."""
    n = len(tree["feature"])
    names = ("feature", "threshold", "left", "right", "value")
    if n == 0 or any(np.shape(tree[name]) != (n,) for name in names):
        raise PredictorError("tree arrays must be nonempty vectors of one length")
    internal = np.flatnonzero(tree["feature"] >= 0)
    for name in ("left", "right"):
        child = tree[name][internal]
        if np.any(child <= internal) or np.any(child >= n):
            raise PredictorError(f"tree has a {name} child out of range")
    if np.any(tree["feature"][internal] >= k):
        raise PredictorError(f"tree splits on a feature index beyond {k} features")
    if np.any(np.isnan(tree["threshold"][internal])):
        raise PredictorError("tree has a NaN threshold")
    if not np.all(np.isfinite(tree["value"])):
        raise PredictorError("tree has a value that is not finite")


def fit_forest(
    data: Dataset,
    target: str,
    features: Sequence[str],
    config: ForestConfig | None = None,
) -> ForestPredictor:
    """Bagged CART regression forest with variance-reduction splits."""
    config = config or ForestConfig()
    features = check_features(data, target, features)
    y = data.column(target)
    columns = np.array([data.column(f) for f in features])
    n = len(y)
    if n < 2 * config.min_leaf:
        raise PredictorError(
            f"need at least {2 * config.min_leaf} rows, got {n}"
        )
    # a sum of at most n targets, bootstrap repeats included, is at most
    # n * max|y| in magnitude, so no score overflows while its square is
    # finite; past that, NaN scores would pick a wrong split
    bound = n * float(np.abs(y).max())
    if not math.isfinite(bound * bound):
        raise PredictorError("forest fit failed: the sums of squared targets overflow")
    k = len(features)
    mtry = min(config.features_per_split or math.ceil(k / 3), k)
    sizes = np.arange(n + 1, dtype=np.float64)
    trees = []
    numpy_random = _numpy_random()
    for t in range(config.n_trees):
        seq = numpy_random.SeedSequence(entropy=config.seed, spawn_key=(t,))
        rng = numpy_random.Generator(numpy_random.PCG64(seq))
        idx = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        # nodes at depth below max_depth draw: at most 255 of them for depth 8
        draws = _feature_draws(rng, k, mtry, 2 ** min(config.max_depth, 8) - 1)
        tree = _Tree()
        _grow(tree, columns, y, idx, 0, config, draws, sizes)
        trees.append(tree.freeze())
    return ForestPredictor(features, config, trees)


# --- external subprocess ---------------------------------------------------

# Rows formatted into one chunk of a PREDICT request; a block's requests
# are formatted a chunk at a time as the child drains the pipe.
_CHUNK_ROWS = 512


@dataclass(eq=False)
class _Request:
    """One request in flight: its text as chunks, formatted on demand;
    the number of answer lines it expects and how they are parsed; the
    key (its matrix, or None for the handshake) a predict call matches;
    whether any of it was written, and its parsed answer once in."""

    key: object
    chunks: Iterator[bytes]
    lines: int
    parse: Callable[[list[bytes]], object]
    started: bool = False
    answer: object = None


def _predict_chunks(x: np.ndarray) -> Iterator[bytes]:
    """The PREDICT request for the rows of x, _CHUNK_ROWS rows a chunk."""
    head = f"PREDICT {len(x)}\n"
    for start in range(0, max(len(x), 1), _CHUNK_ROWS):
        yield (head + _csv_rows(x[start : start + _CHUNK_ROWS])).encode("utf-8")
        head = ""


class ExternalPredictor(Predictor):
    """Bridges predict calls to a subprocess speaking the line protocol.

    predict_each checks every matrix of a block and queues one PREDICT
    request per matrix; each predict call then runs the exchange loop
    until its own answers are in, and the loop keeps writing the later
    requests meanwhile. So cdplot formats and parses while the child
    evaluates. The handshake and a lone predict call are queues of one.

    After any protocol error the child is killed and every later call
    raises, so a late answer can never be read as the answer to a later
    request. The same holds after a block whose answers were not all
    taken, because its iterator was dropped or its consumer raised."""

    def __init__(self, command: str | Sequence[str], features: Sequence[str], timeout: float = 30.0):
        import shlex
        import subprocess
        self.features = tuple(features)
        self.timeout = float(timeout)
        if isinstance(command, str):
            argv = shlex.split(command)
        else:
            argv = list(command)
        self.command = argv
        self._broken: str | None = None
        # requests not fully written, not fully answered, and not yet
        # returned, each in request order
        self._to_write: deque[_Request] = deque()
        self._to_read: deque[_Request] = deque()
        self._to_take: deque[_Request] = deque()
        self._pending = memoryview(b"")  # formatted, unwritten bytes of _to_write[0]
        self._received: list[bytes] = []  # answer bytes after the last parsed request
        self._count = 0  # newlines in _received
        self._expected = 0  # answer lines of the requests queued last
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise ExternalPredictorError(f"could not start {argv!r}: {exc}") from None
        os.set_blocking(self._proc.stdin.fileno(), False)
        hello = f"HELLO CDP/1 {len(self.features)} {','.join(self.features)}\n"
        self._queue([_Request(None, iter([hello.encode("utf-8")]), 1, list)])
        answer = self._take()[0].rstrip(b"\r")
        if answer != b"READY":
            self._fail(f"handshake failed: expected READY, got {answer!r}")

    def _fail(self, message: str) -> NoReturn:
        """Kill the child and refuse every later request."""
        self._broken = message
        for flight in (self._to_write, self._to_read, self._to_take):
            flight.clear()
        self._terminate()
        raise ExternalPredictorError(message)

    def predict_each(self, matrices: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Check every matrix, queue one PREDICT request per matrix, and
        return the predictions in order, one predict call each. Nothing
        is written before every matrix has passed its checks."""
        checked = [self._checked(rows) for rows in matrices]
        self._queue([self._request(x) for x in checked])
        return map(self.predict, checked)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        if not self._to_take or self._to_take[0].key is not x:
            self._queue([self._request(x)])
        return self._take()

    def _request(self, x: np.ndarray) -> _Request:
        return _Request(x, _predict_chunks(x), len(x), self._answers)

    def _queue(self, requests: list[_Request]) -> None:
        """Put requests in flight, unless the child is unusable or an
        earlier block still has answers nobody took."""
        if self._broken is not None:
            raise ExternalPredictorError(
                f"external predictor is unusable: {self._broken}"
            )
        if self._to_take:
            self._fail(
                f"a block of requests was abandoned with {len(self._to_take)} "
                "answer(s) not taken"
            )
        self._expected = sum(request.lines for request in requests)
        for flight in (self._to_write, self._to_read, self._to_take):
            flight.extend(requests)

    def _take(self) -> object:
        """The answer of the oldest request not yet taken."""
        request = self._to_take.popleft()
        self._exchange(request)
        return request.answer

    def _exchange(self, request: _Request) -> None:
        """Run the one select loop until request's answer is in.

        The loop writes the requests in flight in order, ahead of their
        answers, formatting the next chunk whenever the last one is out;
        and it reads answer lines whenever there are any, parsing each
        request's lines as soon as they are complete. So a child that
        answers each row as soon as it reads it never stalls on a full
        output pipe, and cdplot formats and parses while the child
        evaluates. Once every request in flight is answered the loop
        also finishes writing, so the pipe never holds half a request.
        The timeout bounds any stall on either pipe."""
        import select
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        self._settle()  # a request of 0 rows has all its answer lines
        while request.answer is None or (self._to_write and not self._to_read):
            if not self._pending and self._to_write:
                chunk = next(self._to_write[0].chunks, None)
                if chunk is None:
                    self._to_write.popleft()
                    continue
                self._pending = memoryview(chunk)
            readable, writable, _ = select.select(
                [stdout], [stdin] if self._pending else [], [], self.timeout
            )
            if not readable and not writable:
                self._fail(f"external predictor timed out after {self.timeout} s")
            if readable:
                self._receive(os.read(stdout, 65536))
            if writable:
                try:
                    written = os.write(stdin, self._pending)
                except OSError as exc:
                    self._fail(
                        f"external predictor stopped reading (status {self._proc.poll()}) "
                        f"before QUIT: {exc}"
                    )
                self._to_write[0].started = True
                self._pending = self._pending[written:]

    def _receive(self, data: bytes) -> None:
        """Take in answer bytes read from the child."""
        if not data:
            lines = self._to_read[0].lines if self._to_read else 0
            self._fail(
                f"external predictor exited (status {self._proc.poll()}) "
                f"before QUIT: expected {lines} answer line(s), got {self._count}"
            )
        if self._to_read and not self._to_read[0].started:
            self._fail(f"unexpected output before the request: {data[:80]!r}")
        self._received.append(data)
        self._count += data.count(b"\n")
        self._settle()
        if not self._to_read and self._received:
            self._fail(f"external predictor sent more than {self._expected} answer line(s)")

    def _settle(self) -> None:
        """Parse the answers of every request whose lines are all in."""
        while self._to_read and self._count >= self._to_read[0].lines:
            request = self._to_read.popleft()
            *lines, rest = b"".join(self._received).split(b"\n", request.lines)
            self._received = [rest] if rest else []
            self._count -= request.lines
            request.answer = request.parse(lines)

    def _answers(self, lines: list[bytes]) -> np.ndarray:
        """Answer lines as floats; a line float() cannot parse, or one it
        parses to nan or inf, is a protocol error."""
        try:
            out = np.fromiter(map(float, lines), np.float64, count=len(lines))
        except ValueError:
            for line in lines:
                try:
                    float(line)
                except ValueError:
                    self._fail(f"malformed response line {line!r}")
            raise
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            self._fail(f"malformed response line {lines[bad[0]]!r}")
        return out

    def describe(self) -> str:
        return f"external({' '.join(self.command)})"

    def close(self) -> None:
        """Send QUIT and give the child 5 s to exit. A broken predictor's
        child is already dead, and a child with requests in flight would
        read QUIT as a row, so closing either does not wait."""
        import subprocess
        if self._broken is None:
            self._broken = "it was closed"
            if not self._to_take:
                try:
                    os.write(self._proc.stdin.fileno(), b"QUIT\n")
                    self._proc.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        self._terminate()

    def _terminate(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()

    def __enter__(self) -> "ExternalPredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self._terminate()
        except Exception:
            pass


def open_external(
    command: str | Sequence[str], features: Sequence[str], timeout: float = 30.0
) -> ExternalPredictor:
    """Spawn the command and perform the protocol handshake."""
    return ExternalPredictor(command, features, timeout)


# --- persistence for the CLI fit/explain split -----------------------------


def save_predictor(predictor: Predictor) -> dict:
    """JSON-ready description of a fitted built-in predictor."""
    if isinstance(predictor, OlsPredictor):
        return {
            "kind": "ols",
            "features": list(predictor.features),
            "degree": predictor.degree,
            "exponents": [list(e) for e in predictor.exponents],
            "coefficients": [float(c) for c in predictor.coefficients],
        }
    if isinstance(predictor, ClosedFormPredictor):
        return {
            "kind": "closed_form",
            "features": list(predictor.features),
            "expression": to_source(predictor.expression),
        }
    if isinstance(predictor, ForestPredictor):
        return {
            "kind": "forest",
            "features": list(predictor.features),
            "config": asdict(predictor.config),
            "trees": [
                {name: arr.tolist() for name, arr in tree.items()}
                for tree in predictor.trees
            ],
        }
    raise PredictorError(f"cannot save predictor {predictor.describe()}")


def _node_indices(values) -> np.ndarray:
    """A saved feature or child array as int64; a value that is not a
    whole number would otherwise be truncated silently."""
    raw = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        indices = raw.astype(np.int64)
    if not np.array_equal(indices, raw):
        raise PredictorError("tree node indices must be integers")
    return indices


def load_predictor(blob: Mapping) -> Predictor:
    """Inverse of save_predictor. A blob it cannot have written, with
    features that are not a list of names, an OLS degree that is not a
    whole number of at least 1, an expression that is not text, a forest
    config ForestConfig refuses, or trees deeper than the config's
    max_depth, raises PredictorError."""
    kind = blob.get("kind")
    if kind not in ("ols", "closed_form", "forest"):
        raise PredictorError(f"unknown predictor kind {kind!r}")
    features = blob["features"]
    if not isinstance(features, list) or not all(isinstance(f, str) for f in features):
        raise PredictorError(f"saved features {features!r} are not a list of names")
    if kind == "ols":
        exponents = [tuple(e) for e in blob["exponents"]]
        return OlsPredictor(features, blob["degree"], exponents, blob["coefficients"])
    if kind == "closed_form":
        if not isinstance(blob["expression"], str):
            raise PredictorError(f"saved expression {blob['expression']!r} is not text")
        return ClosedFormPredictor(blob["expression"], features)
    config = ForestConfig(**blob["config"])
    trees = [
        {
            "feature": _node_indices(tree["feature"]),
            "threshold": np.asarray(tree["threshold"], dtype=np.float64),
            "left": _node_indices(tree["left"]),
            "right": _node_indices(tree["right"]),
            "value": np.asarray(tree["value"], dtype=np.float64),
        }
        for tree in blob["trees"]
    ]
    # blobs saved by older versions also carry y_min/y_max; they are ignored
    forest = ForestPredictor(features, config, trees)
    if config.n_trees != len(forest.trees):
        raise PredictorError(f"saved n_trees {config.n_trees} but {len(forest.trees)} tree(s)")
    if forest._depth > config.max_depth:
        raise PredictorError(
            f"saved max_depth {config.max_depth} but a tree of depth {forest._depth}"
        )
    return forest
