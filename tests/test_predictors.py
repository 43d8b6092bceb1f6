"""Built-in learners and the external predictor bridge."""

import itertools
import json
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


def _on_thresholds(model, x):
    """One row per split, sitting exactly on its threshold."""
    rows = []
    for tree in model.trees:
        for i in np.flatnonzero(tree["feature"] >= 0):
            row = x[i % len(x)].copy()
            row[tree["feature"][i]] = tree["threshold"][i]
            rows.append(row)
    return np.array(rows).reshape(-1, x.shape[1])


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
    rows = np.vstack([x, _on_thresholds(model, x)])
    expected = _forest_by_tree(model, rows).view(np.int64)
    assert np.array_equal(model.predict(rows).view(np.int64), expected)
    clone = load_predictor(json.loads(json.dumps(save_predictor(model))))
    assert np.array_equal(clone.predict(rows).view(np.int64), expected)


def test_rows_on_a_threshold_go_left():
    data = _dataset(x=[0.0] * 5 + [1.0] * 5, y=[0.0] * 5 + [1.0] * 5)
    config = ForestConfig(n_trees=1, max_depth=1, min_leaf=1, bootstrap=False)
    model = fit_forest(data, "y", ("x",), config)
    assert model.trees[0]["threshold"][0] == 0.5
    assert np.array_equal(model.predict(np.array([[0.5], [np.nextafter(0.5, 1)]])), [0.0, 1.0])


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
