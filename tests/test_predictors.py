"""Built-in learners and the external predictor bridge."""

import itertools
import json
import math
import re
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdplot import predictors
from cdplot.predictors import (
    ClosedFormPredictor,
    ExternalPredictorError,
    ForestConfig,
    OlsPredictor,
    PredictorError,
    _design,
    _monomial_exponents,
    fit_forest,
    fit_ols,
    load_predictor,
    open_external,
    save_predictor,
)
from cdplot.errors import DataError
from cdplot.scm import Dataset, Mechanism, NoiseSpec, build_scm, sample
from cdplot.expr import parse


def _dataset(**columns):
    names = tuple(columns)
    return Dataset(names, np.column_stack([np.asarray(columns[n], float) for n in names]))


# --- ols -------------------------------------------------------------------


def _monomial_exponents_by_scan(k, degree):
    """Scans all (total + 1)^k tuples per degree level; the reference
    for `_monomial_exponents`."""
    out = []
    for total in range(degree + 1):
        level = [
            e
            for e in itertools.product(range(total + 1), repeat=k)
            if sum(e) == total
        ]
        out.extend(sorted(level, reverse=True))
    return tuple(out)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("degree", range(0, 4))
def test_monomial_exponents_match_the_scan(k, degree):
    assert _monomial_exponents(k, degree) == _monomial_exponents_by_scan(k, degree)


def _design_by_column(x, exponents):
    """One column at a time, one power per factor: the design builder
    that `_design` replaced, kept as the reference."""
    cols = []
    for exps in exponents:
        col = np.ones(x.shape[0])
        for i, e in enumerate(exps):
            if e:
                col = col * x[:, i] ** e
        cols.append(col)
    return np.column_stack(cols)


@st.composite
def _ols_tables(draw):
    """k features and a target, with zeros of both signs, negatives and
    magnitudes up to 1e100, and a degree up to 4."""
    k = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 12))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e100, -1e100]),
        st.floats(-10.0, 10.0),
        st.floats(-1e100, 1e100),
    )
    values = draw(st.lists(value, min_size=rows * (k + 1), max_size=rows * (k + 1)))
    return np.array(values).reshape(rows, k + 1), draw(st.integers(1, 4))


def _outcome(call):
    """The bytes of call()'s array, or the error it raises."""
    try:
        return call().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_ols_tables())
@example((np.array([[1e100, -0.0, 1.0], [2.0, 3.0, -1.0]]), 4))  # inf * -0.0 is nan
def test_design_fit_and_predict_equal_the_column_by_column_reference(table):
    table, degree = table
    k = table.shape[1] - 1
    x = np.ascontiguousarray(table[:, :k])
    data = Dataset((*(f"x{i}" for i in range(k)), "y"), table)
    features = data.columns[:k]
    exponents = _monomial_exponents(k, degree)
    results = []
    with np.errstate(all="ignore"):
        for design in (_design, _design_by_column):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(predictors, "_design", design)
                model = _outcome(lambda: fit_ols(data, "y", features, degree).coefficients)
                coefficients = np.linspace(-1, 1, len(exponents))
                fitted = OlsPredictor(features, degree, exponents, coefficients)
                results.append((
                    _outcome(lambda: design(x, exponents)),
                    model,
                    _outcome(lambda: fit_ols(data, "y", features, degree).predict(x)),
                    _outcome(lambda: fitted.predict(x)),
                ))
    assert results[0] == results[1]


@pytest.mark.parametrize("cells", [1, 25, 1 << 14])
def test_design_groups_bounded_by_cells_build_the_same_columns(monkeypatch, cells):
    # 10 rows: groups of 1, 2 and 16 terms multiply the same factors in
    # the same order
    x = np.random.default_rng(3).normal(size=(10, 4))
    exponents = _monomial_exponents(4, 3)
    monkeypatch.setattr(predictors, "_DESIGN_CELLS", cells)
    assert _design(x, exponents).tobytes() == _design_by_column(x, exponents).tobytes()


def test_design_groups_shrink_with_the_rows(monkeypatch):
    # a 5000-row fit of 120 terms multiplies 3 at a time; 500-row predicts 16
    sizes = []
    plan = predictors._design_plan
    monkeypatch.setattr(predictors, "_design_plan",
                        lambda exponents, per_group: sizes.append(per_group) or plan(exponents,
                                                                                     per_group))
    exponents = _monomial_exponents(14, 2)
    for rows in (5000, 500, 0):
        _design(np.ones((rows, 14)), exponents)
    assert sizes == [3, 16, 16]


def test_ols_recovers_exact_line():
    x = np.linspace(-2, 2, 40)
    data = _dataset(x=x, y=1 + 2 * x)
    model = fit_ols(data, "y", ("x",), degree=1)
    assert abs(model.coefficients[0] - 1.0) < 1e-8
    assert abs(model.coefficients[1] - 2.0) < 1e-8


def test_ols_slope_zero_on_even_function():
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    data = _dataset(x=x, y=x**2)
    model = fit_ols(data, "y", ("x",), degree=1)
    assert abs(model.coefficients[1]) < 1e-8


def test_ols_matches_normal_equations_oracle():
    # oracle: solve (A'A) b = A'y with a hand-built [1, X, M] design
    rng = np.random.default_rng(7)
    x = rng.normal(size=5000)
    m = 0.5 * x**3 + rng.normal(size=5000)
    y = m**2 - 0.5 * x**2 + rng.normal(size=5000)
    design = np.column_stack([np.ones_like(x), x, m])
    oracle = np.linalg.solve(design.T @ design, design.T @ y)

    data = _dataset(X=x, M=m, Y=y)
    model = fit_ols(data, "Y", ("X", "M"), degree=1)
    assert np.all(np.isfinite(model.coefficients))
    assert np.allclose(model.coefficients, oracle, atol=1e-8)
    again = fit_ols(data, "Y", ("X", "M"), degree=1)
    assert np.array_equal(model.coefficients, again.coefficients)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(12)
    x = rng.normal(size=400)
    m = rng.normal(size=400)
    y = 1 + x - 2 * m + rng.normal(size=400)
    data = _dataset(x=x, m=m, y=y)
    model = fit_ols(data, "y", ("x", "m"), degree=2)
    residuals = y - model.predict(np.column_stack([x, m]))
    for col in (np.ones_like(x), x, m, x * m, x**2, m**2):
        assert abs(residuals @ col) / len(x) < 1e-6


def test_ols_known_coefficients_predict():
    model = OlsPredictor(("x",), 1, ((0,), (1,)), np.array([1.0, 2.0]))
    assert model.predict(np.array([[3.0]]))[0] == 7.0


def test_ols_ridge_fallback_on_duplicate_column():
    x = np.linspace(0, 1, 30)
    data = _dataset(a=x, b=x, y=3 * x)
    model = fit_ols(data, "y", ("a", "b"), degree=1)
    pred = model.predict(np.column_stack([x, x]))
    assert np.allclose(pred, 3 * x, atol=1e-4)


def test_ols_rejects_bad_inputs():
    data = _dataset(x=[1.0, 2.0], y=[1.0, 2.0])
    with pytest.raises(PredictorError):
        fit_ols(data, "y", ("x",), degree=0)
    with pytest.raises(PredictorError):
        fit_ols(data, "y", ("y",), degree=1)
    with pytest.raises(PredictorError):
        fit_ols(data, "y", (), degree=1)


def test_ols_degree_is_checked_as_a_whole_number():
    # OlsPredictor once truncated 2.5 to 2; a numpy integer is a whole number
    data = _dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0])
    with pytest.raises(PredictorError, match="degree 2.5 is not a whole number >= 1"):
        OlsPredictor(("x",), 2.5, _monomial_exponents(1, 2), np.zeros(3))
    with pytest.raises(PredictorError, match="degree 2.5 is not a whole number >= 1"):
        fit_ols(data, "y", ("x",), degree=2.5)
    fitted = fit_ols(data, "y", ("x",), degree=np.int64(2))
    assert type(fitted.degree) is int and fitted.degree == 2
    assert OlsPredictor(("x",), np.int64(2), fitted.exponents, fitted.coefficients).degree == 2


def test_saved_ols_degree_bounds_its_exponent_vectors():
    # a degree-2 fit saved with degree 1 once loaded, described itself as
    # ols(degree=1) and evaluated degree-2 terms
    rng = np.random.default_rng(6)
    x, z = rng.normal(size=(2, 40))
    blob = save_predictor(fit_ols(_dataset(x=x, z=z, y=x * z), "y", ("x", "z"), degree=2))
    assert load_predictor(blob).describe() == "ols(degree=2)"
    with pytest.raises(PredictorError, match=r"exponent vector \[2, 0\] passes degree 1"):
        load_predictor({**blob, "degree": 1})


def test_saved_forest_max_depth_bounds_its_trees():
    # three depth-6 trees saved with max_depth 2 once loaded and described
    # themselves as forest(trees=3, depth=2)
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, size=400)
    model = fit_forest(_dataset(x=x, y=np.sin(3 * x)), "y", ("x",),
                       ForestConfig(n_trees=3, max_depth=6, seed=2))
    assert model._depth == 6
    blob = json.loads(json.dumps(save_predictor(model)))
    assert load_predictor(blob).describe() == "forest(trees=3, depth=6)"
    for depth in (6, 9):
        load_predictor({**blob, "config": {**blob["config"], "max_depth": depth}})
    with pytest.raises(PredictorError, match="saved max_depth 2 but a tree of depth 6"):
        load_predictor({**blob, "config": {**blob["config"], "max_depth": 2}})


@pytest.mark.parametrize("degree", [200, 10**30])
def test_ols_refuses_a_degree_past_the_gram_bound_before_building(deadline, degree):
    # degree 200 on two features is 20,301 terms, a Gram matrix of 3.3 GB;
    # 10**30 once enumerated exponent vectors for ever
    data = _dataset(x=np.arange(60.0), z=np.arange(60.0) ** 0.5, y=np.arange(60.0))
    with deadline(10), pytest.raises(PredictorError, match="passes 16777216 cells"):
        fit_ols(data, "y", ("x", "z"), degree=degree)


def test_ols_bound_does_not_count_rows():
    # 120 terms on 140,000 rows: 16.8M design cells, past 2**24, but a
    # Gram matrix of 14,400; a long table is no reason to refuse a fit
    rng = np.random.default_rng(5)
    x = rng.normal(size=(140_000, 14))
    names = tuple(f"x{i}" for i in range(14))
    data = Dataset((*names, "y"), np.column_stack([x, x @ np.arange(14.0)]))
    fitted = fit_ols(data, "y", names, degree=2)
    assert len(fitted.exponents) * data.m > 1 << 24
    assert np.allclose(fitted.predict(x[:5]), data.column("y")[:5])


@pytest.mark.parametrize("features, target, error, message", [
    ((), "y", PredictorError, "need at least one feature"),
    (("x", "x"), "y", PredictorError, "duplicate feature names"),
    (("x", "y"), "y", PredictorError, "target 'y' cannot also be a feature"),
    (("x",), "q", DataError, "predictor target 'q' missing from the data"),
    (("x", "q"), "y", DataError, "predictor feature 'q' missing from the data"),
], ids=["none", "repeated", "target-among-them", "target-missing", "feature-missing"])
def test_check_features_holds_the_column_rules(features, target, error, message):
    data = _dataset(x=[1.0, 2.0], y=[1.0, 2.0])
    with pytest.raises(error, match=f"^{message}$"):
        predictors.check_features(data, target, features)
    assert predictors.check_features(data, "y", ["x"]) == ("x",)


def test_ols_rejects_an_overflowing_design_quietly(capfd):
    # (1e100)^4 overflows; LAPACK would print an illegal-argument notice
    # if the non-finite Gram matrix reached the condition estimate
    data = _dataset(x=[1e100, 2e100, 3.0, 4.0], y=[1.0, 2.0, 3.0, 4.0])
    with pytest.raises(PredictorError, match="overflows"):
        fit_ols(data, "y", ("x",), degree=4)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


# --- closed form -----------------------------------------------------------


def test_closed_form_value():
    model = ClosedFormPredictor("M^2 - 0.5*X^2", ("X", "M"))
    assert model.predict(np.array([[2.0, 2.0]]))[0] == 2.0


def test_closed_form_rejects_unknown_symbol():
    with pytest.raises(PredictorError, match="M"):
        ClosedFormPredictor("M^2", ("X",))


def test_closed_form_accepts_parsed_expression():
    model = ClosedFormPredictor(parse("X + 1"), ("X",))
    assert model.predict(np.array([[41.0]]))[0] == 42.0


# --- forest ----------------------------------------------------------------


def test_forest_constant_target():
    data = _dataset(x=np.arange(20.0), y=np.full(20, 3.0))
    model = fit_forest(data, "y", ("x",), ForestConfig(n_trees=5, seed=1))
    assert np.all(model.predict(np.arange(20.0).reshape(-1, 1)) == 3.0)


def test_forest_predictions_within_target_range():
    rng = np.random.default_rng(0)
    x = rng.normal(size=300)
    y = np.sin(x) + rng.normal(scale=0.1, size=300)
    data = _dataset(x=x, y=y)
    model = fit_forest(data, "y", ("x",), ForestConfig(n_trees=20, seed=4))
    pred = model.predict(np.linspace(-3, 3, 100).reshape(-1, 1))
    assert pred.min() >= y.min() and pred.max() <= y.max()


def test_forest_fits_step_function():
    # a step at 0 is exactly representable by one axis-aligned split
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, size=2000)
    y = (x > 0).astype(float)
    data = _dataset(x=x, y=y)
    model = fit_forest(data, "y", ("x",), ForestConfig(max_depth=4, seed=2))
    mse = np.mean((model.predict(x.reshape(-1, 1)) - y) ** 2)
    assert mse < 0.05


def test_single_tree_memorizes_unique_rows():
    rng = np.random.default_rng(5)
    x = rng.permutation(np.linspace(-1, 1, 64))
    y = rng.normal(size=64)
    data = _dataset(x=x, y=y)
    config = ForestConfig(n_trees=1, max_depth=64, min_leaf=1, bootstrap=False)
    model = fit_forest(data, "y", ("x",), config)
    assert np.allclose(model.predict(x.reshape(-1, 1)), y, atol=1e-12)


def test_forest_is_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=200)
    y = x**2 + rng.normal(scale=0.1, size=200)
    data = _dataset(x=x, y=y)
    grid = np.linspace(-2, 2, 50).reshape(-1, 1)
    a = fit_forest(data, "y", ("x",), ForestConfig(n_trees=10, seed=3)).predict(grid)
    b = fit_forest(data, "y", ("x",), ForestConfig(n_trees=10, seed=3)).predict(grid)
    assert np.array_equal(a, b)


def test_forest_config_validation():
    with pytest.raises(PredictorError):
        ForestConfig(n_trees=0)
    with pytest.raises(PredictorError):
        ForestConfig(max_depth=0)
    with pytest.raises(PredictorError):
        ForestConfig(min_leaf=0)


@pytest.mark.parametrize("setting, value, message", [
    ("n_trees", 2.5, "n_trees 2.5 is not a whole number >= 1"),
    ("features_per_split", 0, "features_per_split 0 is not a whole number >= 1"),
    ("bootstrap", 0, "bootstrap 0 is not true or false"),
    ("seed", -1, "seed -1 is not an integer >= 0"),
    ("n_trees", np.int64(50), None),
    ("seed", np.int64(3), None),
], ids=["fractional-count", "zero-features-per-split", "bootstrap-an-int", "negative-seed",
        "numpy-count", "numpy-seed"])
def test_forest_config_checks_every_field_with_its_type(setting, value, message):
    # a library caller's fractional count and non-bool bootstrap once passed;
    # a negative seed passed and then failed in SeedSequence with a traceback;
    # a numpy integer is a whole number (message None: accepted)
    if message is None:
        assert getattr(ForestConfig(**{setting: value}), setting) == value
        return
    with pytest.raises(PredictorError, match=f"^{re.escape(message)}$"):
        ForestConfig(**{setting: value})


def _tree_predict(tree, x):
    """Walks one tree a level at a time, row by row through the node
    arrays; the forest's inference before packing, kept as the
    reference for the packed forest."""
    node = np.zeros(x.shape[0], dtype=np.int64)
    rows = np.arange(x.shape[0])
    while True:
        feature = tree["feature"][node]
        internal = feature >= 0
        if not np.any(internal):
            break
        go_left = np.zeros(len(node), dtype=bool)
        go_left[internal] = (
            x[rows[internal], feature[internal]] <= tree["threshold"][node[internal]]
        )
        node = np.where(
            internal,
            np.where(go_left, tree["left"][node], tree["right"][node]),
            node,
        )
    return tree["value"][node]


def _forest_by_tree(model, x):
    total = np.zeros(x.shape[0])
    for tree in model.trees:
        total += _tree_predict(tree, x)
    return total / len(model.trees)


def _around_thresholds(model, x):
    """Rows on each split's threshold, on the floats either side of it
    and, for a zero, on the other zero; then rows of all -0.0 and all
    0.0. Values that are not finite are left out."""
    rows = []
    for tree in model.trees:
        for i in np.flatnonzero(tree["feature"] >= 0):
            t = tree["threshold"][i]
            other = -t if t == 0 else t
            for value in (np.nextafter(t, -np.inf), t, other, np.nextafter(t, np.inf)):
                if np.isfinite(value):
                    row = x[i % len(x)].copy()
                    row[tree["feature"][i]] = value
                    rows.append(row)
    rows += [np.full(x.shape[1], -0.0), np.zeros(x.shape[1])]
    return np.array(rows)


def _both_paths(model):
    """model and its copy loaded while _FOREST_CELLS admits no cell
    table, which predicts by the packed rounds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictors, "_FOREST_CELLS", 0)
        rounds = load_predictor(save_predictor(model))
        assert rounds._cells is None  # the first read builds, under the patch
    return model, rounds


def _splits(model):
    return any(np.any(tree["feature"] >= 0) for tree in model.trees)


_cells = st.one_of(st.integers(-3, 3).map(float), st.floats(-5, 5))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_forest_matches_the_per_tree_walk(data):
    k = data.draw(st.integers(1, 4), label="features")
    n = data.draw(st.integers(10, 60), label="rows")
    x = np.array(data.draw(st.lists(
        st.lists(_cells, min_size=k, max_size=k), min_size=n, max_size=n)))
    if data.draw(st.booleans(), label="constant target"):
        y = np.full(n, 2.5)
    else:
        y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    config = ForestConfig(
        n_trees=data.draw(st.integers(1, 6), label="n_trees"),
        max_depth=data.draw(st.integers(1, 9), label="max_depth"),
        min_leaf=data.draw(st.integers(1, 5), label="min_leaf"),
        bootstrap=data.draw(st.booleans(), label="bootstrap"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    names = [f"x{j}" for j in range(k)]
    model = fit_forest(_dataset(**dict(zip(names, x.T)), y=y), "y", names, config)
    # forests this small take the cell tables whenever a tree splits
    assert (model._cells is not None) == _splits(model)
    blob = json.loads(json.dumps(save_predictor(model)))
    # a saved threshold may be any float but NaN
    edge = data.draw(st.sampled_from([None, math.inf, -math.inf, -0.0, 0.0]), label="edge")
    edited = edge is not None and _splits(model)
    if edited:
        tree = data.draw(st.sampled_from([t for t in blob["trees"] if max(t["feature"]) >= 0]))
        split = data.draw(st.sampled_from([i for i, f in enumerate(tree["feature"]) if f >= 0]))
        tree["threshold"][split] = edge
    clone = load_predictor(blob)
    for forest in (model, clone):
        # an unedited round trip keeps every threshold and leaf value, so
        # the loaded forest must predict the fitted forest's walk
        truth = forest if edited else model
        rows = np.vstack([x, _around_thresholds(truth, x)])
        expected = _forest_by_tree(truth, rows).view(np.int64)
        for path in _both_paths(forest):
            assert np.array_equal(path.predict(rows).view(np.int64), expected)


def test_rows_on_a_threshold_go_left():
    data = _dataset(x=[0.0] * 5 + [1.0] * 5, y=[0.0] * 5 + [1.0] * 5)
    config = ForestConfig(n_trees=1, max_depth=1, min_leaf=1, bootstrap=False)
    model = fit_forest(data, "y", ("x",), config)
    assert model.trees[0]["threshold"][0] == 0.5
    assert np.array_equal(model.predict(np.array([[0.5], [np.nextafter(0.5, 1)]])), [0.0, 1.0])


def test_saved_zero_and_infinite_thresholds_predict_alike_on_both_paths():
    # x0 <= 0.0, then x0 <= -0.0, or else x1 <= inf, then x1 <= -inf:
    # -0.0 and 0.0 both go left twice, and past a positive x0 every
    # finite x1 goes left, then right
    tree = {
        "feature": [0, 0, 1, -1, -1, 1, -1, -1, -1],
        "threshold": [0.0, -0.0, math.inf, 0.0, 0.0, -math.inf, 0.0, 0.0, 0.0],
        "left": [1, 3, 5, -1, -1, 7, -1, -1, -1],
        "right": [2, 4, 6, -1, -1, 8, -1, -1, -1],
        "value": [0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 8.0, 16.0],
    }
    blob = {"kind": "forest", "features": ["a", "b"], "trees": [tree],
            "config": {"n_trees": 1, "max_depth": 3, "min_leaf": 1}}
    model = load_predictor(json.loads(json.dumps(blob)))
    assert model._cells is not None
    big = np.finfo(float).max
    rows = np.array([[-0.0, 0.0], [0.0, -big], [5e-324, big], [-5e-324, 0.0], [big, -big]])
    for path in _both_paths(model):
        assert np.array_equal(path.predict(rows), [1.0, 1.0, 16.0, 1.0, 16.0])


@pytest.mark.parametrize("k, per", [(20, 10), (16, 15)])
def test_a_wide_saved_forest_predicts_by_rounds_without_counting_past_int64(deadline, k, per):
    # k features with per thresholds each in both trees: 11**20 cells a
    # tree pass int64, and an int64 product of 16**16 wraps to 0
    trees = []
    for shift in (0.0, 0.25):
        # a chain: split s sends left to a leaf and right to the next split
        splits = k * per
        tree = {name: [] for name in ("feature", "threshold", "left", "right", "value")}
        for s in range(splits):
            tree["feature"] += [s % k, -1]
            tree["threshold"] += [s // k + shift, 0.0]
            tree["left"] += [2 * s + 1, -1]
            tree["right"] += [2 * s + 2, -1]
            tree["value"] += [0.0, float(s)]
        for name, end in (("feature", -1), ("threshold", 0.0), ("left", -1),
                          ("right", -1), ("value", -1.0)):
            tree[name].append(end)
        trees.append(tree)
    blob = {"kind": "forest", "features": [f"x{j}" for j in range(k)], "trees": trees,
            "config": {"n_trees": 2, "max_depth": k * per, "min_leaf": 1}}
    rng = np.random.default_rng(8)
    with deadline(10):
        model = load_predictor(json.loads(json.dumps(blob)))
        assert model._cells is None
        x = rng.uniform(-1, per + 1, size=(200, k))
        rows = np.vstack([x, _around_thresholds(model, x)])
        expected = _forest_by_tree(model, rows).view(np.int64)
        assert np.array_equal(model.predict(rows).view(np.int64), expected)


@pytest.mark.parametrize("n_trees", [1, 7, 50])
def test_packed_forest_matches_the_per_tree_walk_across_row_blocks(n_trees):
    rng = np.random.default_rng(n_trees)
    x = rng.normal(size=(300, 2))
    y = x[:, 0] ** 2 + x[:, 1] + rng.normal(scale=0.1, size=300)
    config = ForestConfig(n_trees=n_trees, seed=n_trees)
    model = fit_forest(_dataset(a=x[:, 0], b=x[:, 1], y=y), "y", ("a", "b"), config)
    assert model._cells is not None
    step = max(1, predictors._FOREST_NODES // n_trees)
    pool = np.vstack([_around_thresholds(model, x), rng.normal(scale=1.5, size=(2 * step + 3, 2))])
    pool = rng.permutation(pool)
    for path in _both_paths(model):
        for count in (1, step - 1, step, step + 1, 2 * step + 3):
            rows = pool[:count]
            expected = _forest_by_tree(model, rows).view(np.int64)
            assert np.array_equal(path.predict(rows).view(np.int64), expected)
        assert path.predict(np.empty((0, 2))).shape == (0,)


# equal values whose bits differ (-0.0 and 0.0) and a few repeats: which
# of an equal pair np.unique keeps is decided by the sort
_UNIQUE_POOL = (-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.5, -1.5, 1e300)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.one_of(
    st.lists(st.sampled_from(_UNIQUE_POOL), max_size=600).map(np.array),
    st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), max_size=600)
    .map(lambda v: np.array(v, dtype=np.int64)),
), st.booleans())
def test_sorted_unique_is_np_unique(values, paired):
    if paired and len(values) % 2 == 0:
        values = values.reshape(-1, 2)  # the forest's frontier passes pairs of children
    got, expected = predictors._sorted_unique(values), np.unique(values)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _best_split_by_reference(x, y, idx, feature, min_leaf):
    """Best SSE-reducing threshold on one feature, or None; scores every
    split position. With _grow_by_reference, the grower before the lean
    one, kept as the reference for fit_forest's trees."""
    values = x[idx, feature]
    order = np.argsort(values, kind="stable")
    xs = values[order]
    ys = y[idx][order]
    n = len(idx)
    if xs[0] == xs[-1]:
        return None
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    total, total2 = csum[-1], csum2[-1]
    counts = np.arange(1, n)
    left_sse = csum2[:-1] - csum[:-1] ** 2 / counts
    right_sse = (total2 - csum2[:-1]) - (total - csum[:-1]) ** 2 / (n - counts)
    score = left_sse + right_sse
    valid = (counts >= min_leaf) & (counts <= n - min_leaf) & (xs[:-1] < xs[1:])
    if not np.any(valid):
        return None
    score = np.where(valid, score, np.inf)
    best = int(np.argmin(score))
    threshold = 0.5 * (xs[best] + xs[best + 1])
    return float(score[best]), threshold, order[: best + 1], order[best + 1 :]


def _grow_by_reference(tree, x, y, idx, depth, config, mtry, rng):
    subset = y[idx]
    mean = float(np.mean(subset))
    if (
        depth >= config.max_depth
        or len(idx) < 2 * config.min_leaf
        or np.ptp(subset) == 0.0
    ):
        return tree.add_leaf(mean)
    k = x.shape[1]
    chosen = rng.choice(k, size=min(mtry, k), replace=False)
    best = None
    for feature in chosen:
        found = _best_split_by_reference(x, y, idx, int(feature), config.min_leaf)
        if found is None:
            continue
        score, threshold, left_local, right_local = found
        if best is None or score < best[0]:
            best = (score, int(feature), threshold, left_local, right_local)
    if best is None:
        return tree.add_leaf(mean)
    _, feature, threshold, left_local, right_local = best
    node = tree.add_split(feature, threshold)
    tree.left[node] = _grow_by_reference(tree, x, y, idx[left_local], depth + 1, config, mtry, rng)
    tree.right[node] = _grow_by_reference(tree, x, y, idx[right_local], depth + 1, config, mtry, rng)
    return node


def _trees_by_reference(x, y, config):
    """fit_forest's draws per tree, grown by the reference grower."""
    n = x.shape[0]
    mtry = config.features_per_split or math.ceil(x.shape[1] / 3)
    trees = []
    for t in range(config.n_trees):
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(t,))
        rng = np.random.Generator(np.random.PCG64(seq))
        idx = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        tree = predictors._Tree()
        _grow_by_reference(tree, x, y, np.asarray(idx), 0, config, mtry, rng)
        trees.append(tree.freeze())
    return trees


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grower_builds_the_reference_trees(data):
    k = data.draw(st.integers(1, 4), label="features")
    min_leaf = data.draw(st.integers(1, 5), label="min_leaf")
    n = data.draw(st.one_of(
        st.integers(2 * min_leaf, 2 * min_leaf + 2), st.integers(2 * min_leaf, 60)), label="rows")
    x = np.array(data.draw(st.lists(
        st.lists(_cells, min_size=k, max_size=k), min_size=n, max_size=n)))
    # tied targets, and sevenths, whose sums round differently in another
    # order, so that a change of the stable tie order shows
    targets = {
        "constant": st.just(2.5),
        "tied": st.integers(-2, 2).map(float),
        "sevenths": st.integers(-70, 70).map(lambda i: i / 7),
        "floats": st.floats(-10, 10),
    }
    cell = targets[data.draw(st.sampled_from(sorted(targets)), label="target")]
    y = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)))
    config = ForestConfig(
        n_trees=data.draw(st.integers(1, 4), label="n_trees"),
        max_depth=data.draw(st.integers(1, 9), label="max_depth"),
        min_leaf=min_leaf,
        features_per_split=data.draw(st.integers(1, k), label="features_per_split"),
        bootstrap=data.draw(st.booleans(), label="bootstrap"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    names = [f"x{j}" for j in range(k)]
    model = fit_forest(_dataset(**dict(zip(names, x.T)), y=y), "y", names, config)
    expected = _trees_by_reference(x, y, config)
    assert len(model.trees) == len(expected)
    for got, want in zip(model.trees, expected):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert got[name].dtype == want[name].dtype
            assert np.array_equal(got[name].view(np.int64), want[name].view(np.int64)), name


def _choices_and_draws(k, mtry, seed, count, nodes):
    """count draws of rng.choice(k, mtry, replace=False) and of
    _feature_draws in batches of nodes, from generators seeded alike."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [theirs.choice(k, size=mtry, replace=False).tolist() for _ in range(count)]
    got = list(itertools.islice(predictors._feature_draws(ours, k, mtry, nodes), count))
    return got, want


def test_feature_draws_are_the_draws_of_rng_choice():
    # 30 draws in batches of 7 nodes, so that the batches chain
    for k in range(1, 25):
        for mtry in range(1, k + 1):
            for seed in range(8):
                got, want = _choices_and_draws(k, mtry, seed, 30, 7)
                assert got == want, (k, mtry, seed)


@pytest.mark.parametrize("k, mtry", [(10000, 300), (10001, 200), (10001, 201), (20000, 401)])
def test_feature_draws_follow_numpy_across_its_tail_shuffle_boundary(k, mtry):
    # past k > 10000 and mtry > k // 50 numpy shuffles the tail of
    # arange(k) instead, which the batched draws do not reproduce
    got, want = _choices_and_draws(k, mtry, 3, 4, 3)
    assert got == want


def test_forest_rejects_a_target_whose_squares_overflow():
    # the sums of squared targets would overflow, and NaN scores would
    # split the root far from the step at 0.5
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=200)
    config = ForestConfig(n_trees=3, seed=1)
    with pytest.raises(PredictorError, match="overflow"):
        fit_forest(_dataset(x=x, y=np.where(x > 0.5, 1e200, -1e200)), "y", ("x",), config)
    model = fit_forest(_dataset(x=x, y=np.where(x > 0.5, 1e150, -1e150)), "y", ("x",), config)
    for tree in model.trees:
        assert abs(tree["threshold"][0] - 0.5) < 0.05


def _damaged_forest_blob(damage):
    rng = np.random.default_rng(4)
    x = rng.normal(size=80)
    data = _dataset(x=x, z=rng.normal(size=80), y=x + rng.normal(scale=0.1, size=80))
    model = fit_forest(data, "y", ("x", "z"), ForestConfig(n_trees=2, max_depth=3, seed=0))
    blob = json.loads(json.dumps(save_predictor(model)))
    tree = blob["trees"][0]
    assert tree["feature"][0] >= 0 and len(tree["feature"]) > 2
    damage(blob, tree)
    return blob


@pytest.mark.parametrize("damage, message", [
    (lambda b, t: t["left"].__setitem__(0, 0), "left child"),
    (lambda b, t: t["right"].__setitem__(0, len(t["feature"])), "right child"),
    (lambda b, t: t["right"].__setitem__(0, -1), "right child"),
    (lambda b, t: t["feature"].__setitem__(0, 2), "feature index"),
    (lambda b, t: t["feature"].__setitem__(0, 0.7), "integers"),
    (lambda b, t: t["left"].__setitem__(0, t["left"][0] + 0.5), "integers"),
    (lambda b, t: t["value"].pop(), "one length"),
    (lambda b, t: t.__setitem__("threshold", [[v] for v in t["threshold"]]), "one length"),
    (lambda b, t: t["threshold"].__setitem__(0, float("nan")), "NaN"),
    (lambda b, t: b.__setitem__("trees", []), "one tree"),
    (lambda b, t: b["trees"].append({name: [] for name in t}), "nonempty"),
    (lambda b, t: b.__setitem__("features", ["x", "x"]), "duplicate feature"),
], ids=["cycle", "child-past-the-end", "negative-child", "feature-index",
        "fractional-feature", "fractional-child",
        "short-array", "matrix", "nan-threshold", "no-trees", "empty-tree",
        "feature-listed-twice"])
def test_malformed_forest_blobs_are_rejected(damage, message):
    with pytest.raises(PredictorError, match=message):
        load_predictor(_damaged_forest_blob(damage))


# --- predict interface -----------------------------------------------------


def test_predict_checks_shape():
    model = ClosedFormPredictor("X", ("X",))
    with pytest.raises(PredictorError, match="shape"):
        model.predict(np.zeros((4, 2)))
    with pytest.raises(PredictorError):
        model.predict(np.array([[np.nan]]))


def test_predict_columns_requires_features():
    model = ClosedFormPredictor("X + M", ("X", "M"))
    with pytest.raises(PredictorError, match="M"):
        model.predict_columns({"X": np.zeros(3)})


# --- persistence -----------------------------------------------------------


def test_save_load_round_trip():
    rng = np.random.default_rng(2)
    x = rng.normal(size=100)
    y = 2 * x + rng.normal(scale=0.1, size=100)
    data = _dataset(x=x, y=y)
    grid = np.linspace(-2, 2, 11).reshape(-1, 1)
    for model in (
        fit_ols(data, "y", ("x",), degree=2),
        fit_forest(data, "y", ("x",), ForestConfig(n_trees=3, seed=0)),
        ClosedFormPredictor("2*x", ("x",)),
    ):
        clone = load_predictor(save_predictor(model))
        assert clone.features == model.features
        assert np.array_equal(clone.predict(grid), model.predict(grid))


def test_forest_blob_with_legacy_bounds_still_loads():
    rng = np.random.default_rng(3)
    x = rng.normal(size=60)
    data = _dataset(x=x, y=x + rng.normal(scale=0.1, size=60))
    model = fit_forest(data, "y", ("x",), ForestConfig(n_trees=2, seed=0))
    blob = save_predictor(model)
    assert "y_min" not in blob and "y_max" not in blob
    clone = load_predictor({**blob, "y_min": -1.0, "y_max": 1.0})
    grid = np.linspace(-2, 2, 5).reshape(-1, 1)
    assert np.array_equal(clone.predict(grid), model.predict(grid))


@pytest.mark.parametrize("setting, value, message", [
    ("n_trees", 2.5, "n_trees 2.5 is not a whole number"),
    ("n_trees", True, "n_trees True is not a whole number"),
    ("n_trees", 7, "n_trees 7 but 2 tree"),
    ("max_depth", 0, "max_depth 0 is not a whole number"),
    ("min_leaf", "5", "min_leaf '5' is not a whole number"),
    ("features_per_split", 1.5, "features_per_split 1.5 is not a whole number"),
    ("features_per_split", False, "features_per_split False is not a whole number"),
    ("bootstrap", 1, "bootstrap 1 is not true or false"),
    ("seed", "x", "seed 'x' is not an integer"),
    ("seed", 1.0, "seed 1.0 is not an integer"),
    ("seed", True, "seed True is not an integer"),
])
def test_saved_forest_config_is_checked(setting, value, message):
    blob = _damaged_forest_blob(lambda b, t: b["config"].__setitem__(setting, value))
    with pytest.raises(PredictorError, match=message):
        load_predictor(blob)


def test_saved_forest_config_without_features_per_split_loads():
    blob = _damaged_forest_blob(lambda b, t: b["config"].__setitem__("features_per_split", None))
    assert load_predictor(blob).describe() == "forest(trees=2, depth=3)"


# --- external bridge -------------------------------------------------------


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return f"{sys.executable} {path}"


SUM_SCRIPT = """\
    import sys
    line = sys.stdin.readline().split()
    assert line[0] == "HELLO" and line[1] == "CDP/1", line
    sys.stdout.write("READY\\n"); sys.stdout.flush()
    while True:
        req = sys.stdin.readline().split()
        if not req or req == ["QUIT"]:
            break
        n = int(req[1])
        for _ in range(n):
            cells = [float(c) for c in sys.stdin.readline().split(",")]
            sys.stdout.write(format(sum(cells), ".17g") + "\\n")
        sys.stdout.flush()
"""


def test_external_sum_loopback(tmp_path):
    command = _script(tmp_path, "sum.py", SUM_SCRIPT)
    with open_external(command, ("a", "b", "c")) as model:
        out = model.predict(np.array([[1.0, 2.0, 3.0]]))
        assert out[0] == 6.0


def test_external_echo_is_identity_on_one_feature(tmp_path):
    command = _script(tmp_path, "echo.py", SUM_SCRIPT)
    values = np.array([[0.1], [-2.5], [3.25], [1e-12]])
    with open_external(command, ("x",)) as model:
        assert np.array_equal(model.predict(values), values[:, 0])


def test_external_wrong_row_count(tmp_path):
    command = _script(
        tmp_path,
        "short.py",
        """\
        import sys
        sys.stdin.readline()
        sys.stdout.write("READY\\n"); sys.stdout.flush()
        req = sys.stdin.readline().split()
        n = int(req[1])
        for _ in range(n):
            sys.stdin.readline()
        for _ in range(n - 1):
            sys.stdout.write("0.0\\n")
        sys.stdout.flush()
        """,
    )
    model = open_external(command, ("x",))
    try:
        with pytest.raises(ExternalPredictorError, match="expected 3.*got 2"):
            model.predict(np.zeros((3, 1)))
    finally:
        model.close()


def test_external_malformed_line(tmp_path):
    command = _script(
        tmp_path,
        "garbage.py",
        """\
        import sys
        sys.stdin.readline()
        sys.stdout.write("READY\\n"); sys.stdout.flush()
        sys.stdin.readline()
        sys.stdin.readline()
        sys.stdout.write("banana\\n"); sys.stdout.flush()
        import time; time.sleep(10)
        """,
    )
    model = open_external(command, ("x",))
    try:
        with pytest.raises(ExternalPredictorError, match="banana"):
            model.predict(np.zeros((1, 1)))
    finally:
        model.close()


def test_external_timeout(tmp_path):
    command = _script(
        tmp_path,
        "sleepy.py",
        """\
        import sys, time
        sys.stdin.readline()
        sys.stdout.write("READY\\n"); sys.stdout.flush()
        time.sleep(60)
        """,
    )
    model = open_external(command, ("x",), timeout=0.3)
    try:
        with pytest.raises(ExternalPredictorError, match="timed out"):
            model.predict(np.zeros((1, 1)))
    finally:
        model.close()


# Answers request r with r on every row, except that the answer to the
# first request goes wrong in the way the mode names.
DESYNC_SCRIPT = """\
    import sys, time
    mode = sys.argv[1]
    sys.stdin.readline()
    sys.stdout.write("READY\\n"); sys.stdout.flush()
    request = 0
    while True:
        req = sys.stdin.readline().split()
        if not req or req == ["QUIT"]:
            break
        n = int(req[1])
        for _ in range(n):
            sys.stdin.readline()
        request += 1
        lines = ["%d.0\\n" % request] * n
        if request == 1 and mode == "late":
            time.sleep(0.5)
        elif request == 1 and mode == "short":
            sys.stdout.write(lines.pop()); sys.stdout.flush()
            time.sleep(0.5)
        elif request == 1 and mode == "malformed":
            lines[0] = "banana\\n"
        elif request == 1 and mode in ("nan", "inf"):
            lines[0] = mode + "\\n"
        elif request == 1 and mode == "extra":
            lines.append(lines[0])
        elif request == 1 and mode == "stray":
            sys.stdout.write("".join(lines)); sys.stdout.flush()
            time.sleep(0.3)
            lines = lines[:1]
        sys.stdout.write("".join(lines)); sys.stdout.flush()
"""


@pytest.mark.parametrize(
    "mode, first_error",
    [
        ("late", "timed out"),
        ("short", "timed out"),
        ("malformed", "banana"),
        ("nan", "malformed response line b'nan'"),
        ("inf", "malformed response line b'inf'"),
        ("extra", "more than 2 answer"),
    ],
)
def test_external_refuses_requests_after_a_protocol_error(tmp_path, mode, first_error):
    command = _script(tmp_path, "desync.py", DESYNC_SCRIPT) + f" {mode}"
    model = open_external(command, ("x",))
    model.timeout = 0.2  # for the requests; start-up keeps the default
    try:
        with pytest.raises(ExternalPredictorError, match=first_error):
            model.predict(np.zeros((2, 1)))
        time.sleep(0.7)  # the first answer would be complete by now
        # the second request must not be answered with the first one's rows
        with pytest.raises(ExternalPredictorError, match=first_error):
            model.predict(np.zeros((2, 1)))
    finally:
        model.close()


def test_external_output_before_a_request_is_a_protocol_error(tmp_path):
    command = _script(tmp_path, "desync.py", DESYNC_SCRIPT) + " stray"
    model = open_external(command, ("x",))
    model.timeout = 0.2  # for the requests; start-up keeps the default
    try:
        assert model.predict(np.zeros((2, 1))).tolist() == [1.0, 1.0]
        time.sleep(0.7)  # the stray line has arrived by now
        with pytest.raises(ExternalPredictorError, match="before the request"):
            model.predict(np.zeros((2, 1)))
    finally:
        model.close()


def test_external_child_answering_row_by_row_does_not_deadlock(tmp_path):
    # SUM_SCRIPT writes each answer as it reads the row, so its output
    # pipe fills long before a 200k-row request has been written
    command = _script(tmp_path, "sum.py", SUM_SCRIPT)
    rows = np.arange(200_000, dtype=np.float64).reshape(-1, 1)
    model = open_external(command, ("x",), timeout=5.0)
    result = {}
    worker = threading.Thread(
        target=lambda: result.update(out=model.predict(rows)), daemon=True
    )
    worker.start()
    worker.join(30)
    hung = worker.is_alive()
    if hung:
        model._proc.kill()  # unblock the writer so the test fails, not hangs
        worker.join(10)
    model.close()
    assert not hung, "predict deadlocked"
    assert np.array_equal(result["out"], rows[:, 0])


def test_external_close_after_protocol_error_is_prompt(tmp_path):
    command = _script(
        tmp_path,
        "garbage_then_sleep.py",
        """\
        import sys, time
        sys.stdin.readline()
        sys.stdout.write("READY\\n"); sys.stdout.flush()
        sys.stdin.readline()
        sys.stdin.readline()
        sys.stdout.write("banana\\n"); sys.stdout.flush()
        time.sleep(10)
        """,
    )
    model = open_external(command, ("x",))
    with pytest.raises(ExternalPredictorError, match="banana"):
        model.predict(np.zeros((1, 1)))
    start = time.monotonic()
    model.close()
    assert time.monotonic() - start < 1.0


def test_external_bad_handshake(tmp_path):
    command = _script(
        tmp_path,
        "rude.py",
        """\
        import sys
        sys.stdin.readline()
        sys.stdout.write("NOPE\\n"); sys.stdout.flush()
        """,
    )
    with pytest.raises(ExternalPredictorError, match="READY"):
        open_external(command, ("x",))


def test_external_spawn_failure():
    with pytest.raises(ExternalPredictorError, match="start"):
        open_external("/no/such/binary-here", ("x",))


def test_bundled_reference_script_matches_closed_form():
    import cdplot

    script = (
        __import__("pathlib").Path(cdplot.__file__).parent
        / "fixtures"
        / "external_eval.py"
    )
    command = f"{sys.executable} {script} \"F - P**2\""
    closed = ClosedFormPredictor("F - P^2", ("P", "F"))
    rows = np.array([[1.0, 2.0], [1.5, 2.0], [0.5, -1.0]])
    with open_external(command, ("P", "F")) as model:
        assert np.allclose(model.predict(rows), closed.predict(rows), atol=1e-15)


# --- pipelined blocks ------------------------------------------------------

# Answers each row with the sum of its cells, after the whole request
# is read, and copies every byte it reads from stdin to the file named
# by its first argument.
RECORDING_SCRIPT = """\
    import sys
    record = open(sys.argv[1], "wb")
    def line():
        text = sys.stdin.buffer.readline()
        record.write(text); record.flush()
        return text
    line()
    sys.stdout.write("READY\\n"); sys.stdout.flush()
    while True:
        req = line().split()
        if not req or req == [b"QUIT"]:
            break
        sums = [sum(float(c) for c in line().split(b",")) for _ in range(int(req[1]))]
        sys.stdout.write("".join(format(v, ".17g") + "\\n" for v in sums)); sys.stdout.flush()
"""

# Answers request r with r on every row after reading it, except that
# request 3 goes wrong in the way the mode names.
BLOCK_FAULT_SCRIPT = """\
    import sys
    mode = sys.argv[1]
    sys.stdin.readline()
    sys.stdout.write("READY\\n"); sys.stdout.flush()
    request = 0
    while True:
        req = sys.stdin.readline().split()
        if not req or req == ["QUIT"]:
            break
        n = int(req[1])
        for _ in range(n):
            sys.stdin.readline()
        request += 1
        if request == 3 and mode == "exit":
            sys.exit(0)
        lines = ["%d.0\\n" % request] * n
        if request == 3 and mode == "malformed":
            lines[1] = "banana\\n"
        sys.stdout.write("".join(lines)); sys.stdout.flush()
"""


def _block(sizes, k=2, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.normal(scale=1e3, size=(n, k)) for n in sizes]


def test_a_block_goes_out_as_the_requests_of_its_matrices_in_order(tmp_path):
    record = tmp_path / "stdin.txt"
    command = _script(tmp_path, "record.py", RECORDING_SCRIPT) + f" {record}"
    # sizes around the chunk size, and an empty request
    block = _block([1, 511, 512, 513, 0, 1025, 3, 700])
    with open_external(command, ("a", "b")) as model:
        out = list(model.predict_each(block))
    assert [len(o) for o in out] == [len(x) for x in block]
    for x, o in zip(block, out):
        assert np.array_equal(o, x[:, 0] + x[:, 1])
    sent = "".join(f"PREDICT {len(x)}\n" + predictors._csv_rows(x) for x in block)
    assert record.read_text() == "HELLO CDP/1 2 a,b\n" + sent + "QUIT\n"


def test_a_surplus_line_in_a_block_is_a_protocol_error(tmp_path):
    # the first request's extra line shifts every later answer by one,
    # so the count over the block finds it when the last answer is in
    command = _script(tmp_path, "desync.py", DESYNC_SCRIPT) + " extra"
    model = open_external(command, ("x",), timeout=5.0)
    try:
        with pytest.raises(ExternalPredictorError, match="more than 16 answer line"):
            list(model.predict_each([np.zeros((2, 1))] * 8))
        with pytest.raises(ExternalPredictorError, match="unusable: .*more than 16"):
            model.predict(np.zeros((2, 1)))
    finally:
        model.close()


def test_a_child_exiting_within_a_block_fails_promptly(tmp_path):
    command = _script(tmp_path, "fault.py", BLOCK_FAULT_SCRIPT) + " exit"
    model = open_external(command, ("x",), timeout=30.0)
    start = time.monotonic()
    taken = []
    try:
        with pytest.raises(ExternalPredictorError, match="before QUIT"):
            for out in model.predict_each(_block([600] * 8, k=1)):
                taken.append(out[0])
    finally:
        model.close()
    assert time.monotonic() - start < 10.0
    # the exit may surface while an earlier answer is awaited, since the
    # later requests are being written meanwhile; no answer is wrong
    assert taken == [1.0, 2.0][: len(taken)]


def test_a_malformed_answer_within_a_block_names_its_line(tmp_path):
    command = _script(tmp_path, "fault.py", BLOCK_FAULT_SCRIPT) + " malformed"
    model = open_external(command, ("x",), timeout=5.0)
    try:
        with pytest.raises(ExternalPredictorError, match="malformed response line b'banana'"):
            list(model.predict_each(_block([4] * 8, k=1)))
        with pytest.raises(ExternalPredictorError, match="unusable: malformed"):
            model.predict(np.zeros((4, 1)))
    finally:
        model.close()


def test_a_non_finite_row_anywhere_in_a_block_stops_it_before_any_write(tmp_path):
    record = tmp_path / "stdin.txt"
    command = _script(tmp_path, "record.py", RECORDING_SCRIPT) + f" {record}"
    block = _block([50] * 8)
    block[-1][-1, 0] = np.nan
    with open_external(command, ("a", "b")) as model:
        with pytest.raises(PredictorError, match="non-finite") as raised:
            model.predict_each(block)
        assert not isinstance(raised.value, ExternalPredictorError)
        assert np.array_equal(model.predict(block[0]), block[0].sum(axis=1))
    assert record.read_text() == (
        "HELLO CDP/1 2 a,b\n"
        + f"PREDICT 50\n{predictors._csv_rows(block[0])}QUIT\n"
    )


def test_a_row_by_row_child_takes_a_block_of_large_requests_without_deadlock(tmp_path):
    # SUM_SCRIPT answers each row as it reads it, so its output pipe is
    # full while most of a request, and the block behind it, is unwritten
    command = _script(tmp_path, "sum.py", SUM_SCRIPT)
    block = list(np.arange(160_000, dtype=np.float64).reshape(8, 20_000, 1))
    model = open_external(command, ("x",), timeout=5.0)
    result = {}
    worker = threading.Thread(
        target=lambda: result.update(out=list(model.predict_each(block))), daemon=True
    )
    worker.start()
    worker.join(60)
    hung = worker.is_alive()
    if hung:
        model._proc.kill()  # unblock the writer so the test fails, not hangs
        worker.join(10)
    model.close()
    assert not hung, "predict_each deadlocked"
    assert all(np.array_equal(o, x[:, 0]) for o, x in zip(result["out"], block))


def test_calls_after_an_abandoned_block_refuse(tmp_path):
    command = _script(tmp_path, "sum.py", SUM_SCRIPT)
    block = _block([3] * 8)
    model = open_external(command, ("a", "b"))
    try:
        answers = model.predict_each(block)
        assert np.array_equal(next(answers), block[0].sum(axis=1))
        del answers
        with pytest.raises(ExternalPredictorError, match="abandoned with 7 answer"):
            model.predict(block[1].copy())
        with pytest.raises(ExternalPredictorError, match="unusable: .*abandoned"):
            model.predict_each(block)
    finally:
        start = time.monotonic()
        model.close()
        assert time.monotonic() - start < 1.0
