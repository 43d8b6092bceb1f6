"""Plot computations over the explanatory causal model."""

import itertools
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import CASES as GOLDEN_CASES

from cdplot import engine
from cdplot.errors import CdpError
from cdplot.engine import (
    NIDP_NOTE,
    PLOT_KINDS,
    CurveSet,
    EngineError,
    Grid,
    band_kinds,
    build_ecm,
    check_request,
    curves,
    effect_difference,
    ice,
    make_grid,
    nddp,
    nidp,
    pcdp,
    tdp,
    uncertainty_band,
    world_key,
)
from cdplot.expr import parse
from cdplot.predictors import ClosedFormPredictor, OlsPredictor, Predictor, fit_ols, open_external
from cdplot.scm import (
    Dataset,
    Mechanism,
    NoiseSpec,
    abduct,
    build_scm,
    counterfactual_table,
    sample,
)


def mediation_scm():
    return build_scm(
        "mediation",
        {
            "X": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "M": Mechanism(("X",), parse("0.5*X^3"), NoiseSpec.normal(0.0, 1.0)),
        },
    )


def salary_scm():
    return build_scm(
        "salary",
        {
            "P": Mechanism((), None, NoiseSpec.uniform(0.0, 1.5)),
            "F": Mechanism(("P",), parse("2*P^3"), NoiseSpec.normal(0.0, 0.2)),
        },
    )


def correct_model():
    return ClosedFormPredictor("M^2 - 0.5*X^2", ("X", "M"))


def _dataset(**columns):
    names = tuple(columns)
    return Dataset(names, np.column_stack([np.asarray(columns[n], float) for n in names]))


# --- ecm and grid ----------------------------------------------------------


def test_build_ecm_wires_features():
    ecm = build_ecm(mediation_scm(), correct_model())
    assert ecm.scm.name == "mediation"
    assert ecm.predictor.features == ("X", "M")


def test_build_ecm_rejects_unknown_feature():
    with pytest.raises(EngineError, match="Q"):
        build_ecm(mediation_scm(), ClosedFormPredictor("Q", ("Q",)))


def test_make_grid_ordinal_mode():
    col = np.tile(np.arange(1.0, 11.0), 30)
    data = _dataset(v=col)
    grid = make_grid(data, "v", resolution=40)
    assert np.array_equal(grid.values, np.arange(1.0, 11.0))


def test_make_grid_continuous_endpoints():
    data = _dataset(v=np.linspace(0.0, 1.5, 100))
    grid = make_grid(data, "v", resolution=4)
    assert np.allclose(grid.values, [0.0, 0.5, 1.0, 1.5])


def test_make_grid_rejects_resolution_one():
    data = _dataset(v=np.linspace(0.0, 1.0, 50))
    with pytest.raises(EngineError):
        make_grid(data, "v", resolution=1)


def test_make_grid_rejects_constant_continuous_column():
    # > 15 distinct values is impossible for a constant column, so the
    # failure must come from the degenerate range check in ordinal mode
    data = _dataset(v=np.full(20, 2.0))
    grid = make_grid(data, "v", resolution=10)
    assert np.array_equal(grid.values, [2.0])


def test_grid_must_increase():
    with pytest.raises(EngineError):
        Grid("x", np.array([1.0, 1.0]))
    with pytest.raises(EngineError):
        Grid("x", np.array([2.0, 1.0]))


def test_relabel_shares_the_arrays():
    curves = np.array([[1.0, 2.0], [3.0, 5.0]])
    source = CurveSet("ICE", Grid("x", [0.0, 1.0]), curves, curves.mean(axis=0), {"a": "b"})
    pdp = source.relabel("PDP")
    pcdp = source.relabel("PCDP", {"c": "d"})
    assert (pdp.kind, pdp.metadata, pcdp.kind, pcdp.metadata) == (
        "PDP", {"a": "b"}, "PCDP", {"c": "d"})
    assert (source.kind, source.metadata) == ("ICE", {"a": "b"})
    for relabelled in (pdp, pcdp):
        for name in ("grid", "curves", "mean"):
            assert getattr(relabelled, name) is getattr(source, name)


# --- ice -------------------------------------------------------------------


def test_ice_constant_predictor():
    data = _dataset(X=np.zeros(3), M=np.zeros(3))
    model = ClosedFormPredictor("5", ("X", "M"))
    curves = ice(model, data, "X", Grid("X", np.array([0.0, 1.0])))
    assert np.all(curves.curves == 5.0)


def test_ice_mean_is_pdp():
    data = _dataset(X=np.array([0.0, 0.0]), M=np.array([1.0, 3.0]))
    model = ClosedFormPredictor("M", ("X", "M"))
    curves = ice(model, data, "X", Grid("X", np.array([0.0, 1.0])))
    assert np.all(curves.mean == 2.0)


def test_ice_value_from_closed_form():
    data = _dataset(X=np.array([0.3]), M=np.array([2.0]))
    curves = ice(correct_model(), data, "X", Grid("X", np.array([2.0])))
    assert curves.curves[0, 0] == 2.0


def test_ice_requires_var_to_be_a_feature():
    data = _dataset(X=np.zeros(2), M=np.zeros(2))
    model = ClosedFormPredictor("M", ("M",))
    with pytest.raises(EngineError):
        ice(model, data, "X", Grid("X", np.array([0.0])))


# --- tdp -------------------------------------------------------------------


def test_tdp_propagates_through_mediator():
    # unit with u_M = 0: at x=2, m_cf = 0.5*8 = 4, value 16 - 2 = 14
    scm = mediation_scm()
    data = _dataset(X=np.array([1.0]), M=np.array([0.5]))  # u_M = 0
    ecm = build_ecm(scm, correct_model())
    curves = tdp(ecm, data, "X", Grid("X", np.array([2.0])))
    assert abs(curves.curves[0, 0] - 14.0) < 1e-12


def test_tdp_factual_anchoring():
    scm = mediation_scm()
    data, _ = sample(scm, 20, seed=6)
    ecm = build_ecm(scm, correct_model())
    x_obs = data.column("X")
    unit = 7
    grid = Grid("X", np.sort(np.append(np.linspace(-2, 2, 9), x_obs[unit])))
    curves = tdp(ecm, data, "X", grid)
    gi = int(np.nonzero(grid.values == x_obs[unit])[0][0])
    factual = correct_model().predict(
        np.array([[x_obs[unit], data.column("M")[unit]]])
    )[0]
    assert abs(curves.curves[unit, gi] - factual) < 1e-9


def test_tdp_equals_ice_without_edges():
    scm = build_scm(
        "flat",
        {
            "X": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "M": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
        },
    )
    data, _ = sample(scm, 30, seed=2)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=7)
    total = tdp(ecm, data, "X", grid)
    conditional = ice(correct_model(), data, "X", grid)
    assert np.max(np.abs(total.curves - conditional.curves)) < 1e-12


# --- pcdp ------------------------------------------------------------------


def test_pcdp_mediator_pinned_to_zero():
    scm = mediation_scm()
    data, _ = sample(scm, 10, seed=1)
    ecm = build_ecm(scm, correct_model())
    curves = pcdp(
        ecm, data, "X", Grid("X", np.array([2.0])), {"M": 0.0}
    )
    assert np.max(np.abs(curves.curves - (-2.0))) < 1e-12


def test_pcdp_empty_control_is_tdp():
    scm = mediation_scm()
    data, _ = sample(scm, 15, seed=9)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=5)
    a = pcdp(ecm, data, "X", grid, {})
    b = tdp(ecm, data, "X", grid)
    assert np.array_equal(a.curves, b.curves)


def test_pcdp_all_controlled_linear_is_affine():
    scm = build_scm(
        "lin",
        {
            "X": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "M": Mechanism(("X",), parse("2*X"), NoiseSpec.normal(0.0, 1.0)),
        },
    )
    data, _ = sample(scm, 12, seed=3)
    model = OlsPredictor(("X", "M"), 1, ((0, 0), (1, 0), (0, 1)), np.array([1.0, 3.0, -2.0]))
    ecm = build_ecm(scm, model)
    grid = Grid("X", np.array([0.0, 1.0, 2.0]))
    curves = pcdp(ecm, data, "X", grid, {"M": 0.5})
    slopes = np.diff(curves.curves, axis=1)
    assert np.max(np.abs(slopes - 3.0)) < 1e-12


def test_pcdp_control_may_not_touch_var():
    scm = mediation_scm()
    data, _ = sample(scm, 5, seed=0)
    ecm = build_ecm(scm, correct_model())
    with pytest.raises(EngineError, match="X"):
        pcdp(ecm, data, "X", Grid("X", np.array([0.0])), {"X": 1.0})


@pytest.mark.parametrize("control, message", [
    ({"Q": 1.0}, "unknown variable 'Q'"),
    ({"M": float("inf")}, "finite"),
    ({"M": float("nan")}, "finite"),
], ids=["unknown-variable", "infinite-value", "nan-value"])
def test_pcdp_rejects_bad_controls_before_predicting(control, message):
    scm = mediation_scm()
    data, _ = sample(scm, 5, seed=0)
    calls = []

    class Counting(ClosedFormPredictor):
        def predict(self, x):
            calls.append(len(x))
            return super().predict(x)

    ecm = build_ecm(scm, Counting("M^2 - 0.5*X^2", ("X", "M")))
    with pytest.raises(EngineError, match=message):
        pcdp(ecm, data, "X", Grid("X", np.array([0.0])), control)
    assert calls == []


def test_pcdp_caption_prints_control_values_as_floats():
    scm = mediation_scm()
    data, _ = sample(scm, 5, seed=0)
    ecm = build_ecm(scm, correct_model())
    curves = pcdp(ecm, data, "X", Grid("X", np.array([0.0])), {"M": 0})
    assert curves.metadata["intervention"] == "do(X=grid), control(M=0.0)"


# --- nddp ------------------------------------------------------------------


def test_nddp_equals_ice_on_mediation():
    scm = mediation_scm()
    data, _ = sample(scm, 40, seed=5)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=11)
    direct = nddp(ecm, data, "X", grid)
    conditional = ice(correct_model(), data, "X", grid)
    assert np.max(np.abs(direct.curves - conditional.curves)) < 1e-9


def test_nddp_linear_model_slope():
    # f = 1 + 3P - 2F: with F pinned at observed values the mean curve
    # is affine in the grid with slope exactly 3
    scm = salary_scm()
    data, _ = sample(scm, 25, seed=8)
    model = OlsPredictor(("P", "F"), 1, ((0, 0), (1, 0), (0, 1)), np.array([1.0, 3.0, -2.0]))
    ecm = build_ecm(scm, model)
    grid = Grid("P", np.array([0.0, 0.5, 1.0, 1.5]))
    curves = nddp(ecm, data, "P", grid)
    slopes = np.diff(curves.mean) / np.diff(grid.values)
    assert np.max(np.abs(slopes - 3.0)) < 1e-12


def test_nddp_without_children_is_tdp():
    scm = mediation_scm()
    data, _ = sample(scm, 10, seed=4)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "M", resolution=5)
    a = nddp(ecm, data, "M", grid)
    b = tdp(ecm, data, "M", grid)
    assert np.array_equal(a.curves, b.curves)


# --- nidp ------------------------------------------------------------------


def test_nidp_two_stage_value():
    # unit (x=1, u_M=1): stage 1 at grid 0 gives m_cf = 1; stage 2
    # restores x=1 and pins M=1, value 1 - 0.5 = 0.5
    scm = mediation_scm()
    data = _dataset(X=np.array([1.0]), M=np.array([1.5]))  # u_M = 1
    ecm = build_ecm(scm, correct_model())
    curves = nidp(ecm, data, "X", Grid("X", np.array([0.0])))
    assert abs(curves.curves[0, 0] - 0.5) < 1e-12


def test_nidp_without_children_is_flat_at_factual():
    scm = mediation_scm()
    data, _ = sample(scm, 12, seed=10)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "M", resolution=6)
    curves = nidp(ecm, data, "M", grid)
    factual = correct_model().predict(
        np.column_stack([data.column("X"), data.column("M")])
    )
    for gi in range(len(grid)):
        assert np.max(np.abs(curves.curves[:, gi] - factual)) < 1e-9


def test_nidp_metadata_records_the_restore_choice():
    scm = mediation_scm()
    data, _ = sample(scm, 5, seed=0)
    ecm = build_ecm(scm, correct_model())
    curves = nidp(ecm, data, "X", Grid("X", np.array([0.0, 1.0])))
    assert curves.metadata["notes"] == NIDP_NOTE


def test_affine_decomposition():
    # with affine f and affine mechanisms the centered TDP splits into
    # centered NDDP plus centered NIDP per unit
    scm = build_scm(
        "affine",
        {
            "X": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "M": Mechanism(("X",), parse("2*X + 1"), NoiseSpec.normal(0.0, 0.5)),
        },
    )
    data, _ = sample(scm, 30, seed=14)
    model = OlsPredictor(("X", "M"), 1, ((0, 0), (1, 0), (0, 1)), np.array([0.5, -1.0, 2.0]))
    ecm = build_ecm(scm, model)
    grid = Grid("X", np.linspace(-2, 2, 9))
    total = tdp(ecm, data, "X", grid).curves
    direct = nddp(ecm, data, "X", grid).curves
    indirect = nidp(ecm, data, "X", grid).curves
    center = lambda c: c - c[:, :1]
    residual = center(total) - (center(direct) + center(indirect))
    assert np.max(np.abs(residual)) < 1e-9


# --- invariants ------------------------------------------------------------


def test_mean_matches_recomputed_column_mean():
    scm = mediation_scm()
    data, _ = sample(scm, 33, seed=17)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=9)
    for curves in (
        tdp(ecm, data, "X", grid),
        nddp(ecm, data, "X", grid),
        nidp(ecm, data, "X", grid),
        ice(correct_model(), data, "X", grid),
    ):
        assert np.max(np.abs(curves.mean - curves.curves.mean(axis=0))) < 1e-12


def test_unit_order_independence():
    scm = mediation_scm()
    data, _ = sample(scm, 20, seed=19)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=7)
    baseline = tdp(ecm, data, "X", grid).curves
    perm = np.random.default_rng(0).permutation(20)
    shuffled = Dataset(data.columns, data.values[perm])
    permuted = tdp(ecm, shuffled, "X", grid).curves
    assert np.array_equal(permuted, baseline[perm])


def test_grid_splitting_is_bitwise_stable():
    scm = mediation_scm()
    data, _ = sample(scm, 20, seed=19)
    ecm = build_ecm(scm, correct_model())
    values = np.linspace(-2, 2, 8)
    whole = tdp(ecm, data, "X", Grid("X", values)).curves
    left = tdp(ecm, data, "X", Grid("X", values[:4])).curves
    right = tdp(ecm, data, "X", Grid("X", values[4:])).curves
    assert np.array_equal(whole, np.hstack([left, right]))


# --- bitwise equality with the per-grid-value loop ---------------------------
# The engine builds the worlds of a block of grid values at once. This is
# the loop it replaced, one world and one propagation per grid value, kept
# as the reference: the curves must not differ by a bit.


def _per_grid_value(kind, ecm, data, var, grid, control):
    m = data.m
    children = ecm.scm.children(var)
    noise = abduct(ecm.scm, data)

    def pins(x):
        if kind == "TDP":
            return {var: np.full(m, x)}
        if kind == "PCDP":
            held = {name: np.full(m, float(value)) for name, value in control.items()}
            return {**held, var: np.full(m, x)}
        if kind == "NDDP":
            return {**{c: data.column(c) for c in children}, var: np.full(m, x)}
        total = counterfactual_table(ecm.scm, noise, {var: np.full(m, x)})
        return {**{c: total[c] for c in children}, var: data.column(var)}

    def world(x):
        if kind == "ICE":
            return {**data.column_dict(), var: np.full(m, x)}
        return counterfactual_table(ecm.scm, noise, pins(x))

    curves = np.empty((m, len(grid)))
    for gi, x in enumerate(grid.values):
        columns = world(float(x))
        curves[:, gi] = ecm.predictor.predict(
            np.column_stack([columns[f] for f in ecm.predictor.features])
        )
    return curves


def _transcendental():
    """Mechanisms with exp, sin and a cube, and an OLS predictor."""
    scm = build_scm(
        "transcendental",
        {
            "A": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "B": Mechanism(("A",), parse("exp(0.5*A) + 0.2*A^3"), NoiseSpec.normal(0.0, 0.5)),
            "C": Mechanism(("A", "B"), parse("sin(3*B) - 0.3*A*B"), NoiseSpec.normal(0.0, 0.3)),
            "Y": Mechanism(("B", "C"), parse("B - C^3"), NoiseSpec.normal(0.0, 0.1)),
        },
    )
    data, _ = sample(scm, 90, seed=4)
    predictor = fit_ols(data, "Y", ("A", "B", "C"), degree=3)
    return scm, data, predictor, {"A": {"C": 0.5}, "B": {"A": 0.0}}


SWEEP_CASES = {**GOLDEN_CASES, "transcendental": _transcendental}
SWEEP_KINDS = ("ICE", "TDP", "PCDP", "NDDP", "NIDP")


def _engine_curves(kind, ecm, data, var, grid, control):
    """The curve set of one kind from the engine's own sweep for it."""
    if kind in ("ICE", "PDP"):
        return ice(ecm.predictor, data, var, grid)
    if kind == "PCDP":
        return pcdp(ecm, data, var, grid, control)
    return {"TDP": tdp, "NDDP": nddp, "NIDP": nidp}[kind](ecm, data, var, grid)


@pytest.mark.parametrize("per_block", [None, 3, 1],
                         ids=["one-block", "blocks-of-3", "blocks-of-1"])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_block_sweeps_equal_the_per_grid_value_loop(monkeypatch, case, per_block):
    scm, data, predictor, controls = SWEEP_CASES[case]()
    ecm = build_ecm(scm, predictor)
    if per_block is not None:
        # 40 grid values: 14 blocks of 3, the last holding 1, or 40 of 1
        monkeypatch.setattr(engine, "_BLOCK_ROWS", per_block * data.m)
    for var, control in controls.items():
        grid = make_grid(data, var)
        assert len(grid) == 40
        for kind in SWEEP_KINDS:
            computed = _engine_curves(kind, ecm, data, var, grid, control).curves
            reference = _per_grid_value(kind, ecm, data, var, grid, control)
            assert computed.tobytes() == reference.tobytes(), (var, kind)


@pytest.mark.parametrize("per_block, blocks", [(None, [10]), (4, [4, 4, 2])],
                         ids=["one-block", "blocks-of-4"])
@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_sweeps_propagate_once_per_block_and_predict_once_per_grid_value(
    monkeypatch, kind, per_block, blocks
):
    scm = mediation_scm()
    data, _ = sample(scm, 30, seed=2)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=10)
    if per_block is not None:
        monkeypatch.setattr(engine, "_BLOCK_ROWS", per_block * data.m)
    propagated, predicted = [], []
    propagate, predict = engine.counterfactual_table, Predictor.predict

    def counting_propagate(scm, noise, pins):
        propagated.append(len(noise["X"]))
        return propagate(scm, noise, pins)

    def counting_predict(self, x):
        predicted.append(len(x))
        return predict(self, x)

    monkeypatch.setattr(engine, "counterfactual_table", counting_propagate)
    monkeypatch.setattr(Predictor, "predict", counting_predict)
    _engine_curves(kind, ecm, data, "X", grid, {"M": 0.0})
    # PCDP {M: 0} and NDDP pin both features, X and M, so need no model
    calls_per_block = {"ICE": 0, "PCDP": 0, "NDDP": 0, "NIDP": 2}.get(kind, 1)
    assert propagated == [b * data.m for b in blocks for _ in range(calls_per_block)]
    assert predicted == [data.m] * len(grid)


# An external predictor answering each row with the sum of its cells as
# soon as it reads the row.
SUM_CHILD = """\
import sys
sys.stdin.readline()
sys.stdout.write("READY\\n"); sys.stdout.flush()
while True:
    req = sys.stdin.readline().split()
    if not req or req == ["QUIT"]:
        break
    for _ in range(int(req[1])):
        cells = [float(c) for c in sys.stdin.readline().split(",")]
        sys.stdout.write(format(sum(cells), ".17g") + "\\n")
    sys.stdout.flush()
"""


@pytest.mark.parametrize("per_block", [None, 3], ids=["one-block", "blocks-of-3"])
def test_external_sweeps_equal_the_in_process_ones(tmp_path, monkeypatch, per_block):
    # the external predictor gets each block's requests at once and its
    # answers arrive while the later requests are still being written
    script = tmp_path / "sum.py"
    script.write_text(SUM_CHILD, encoding="utf-8")
    scm = mediation_scm()
    data, _ = sample(scm, 30, seed=2)
    grid = make_grid(data, "X", resolution=10)
    if per_block is not None:
        monkeypatch.setattr(engine, "_BLOCK_ROWS", per_block * data.m)
    in_process = ClosedFormPredictor("X + M", ("X", "M"))
    with open_external([sys.executable, str(script)], ("X", "M"), timeout=10.0) as external:
        for kind in ("ICE", "TDP", "NIDP"):
            swept = engine.curves(kind, external, scm, data, "X", grid).curves
            expected = engine.curves(kind, in_process, scm, data, "X", grid).curves
            assert swept.tobytes() == expected.tobytes(), kind


def test_kinds_whose_pins_cover_the_features_need_no_model(monkeypatch):
    # the mediation model with a child Z = exp(1000*X) whose abduction
    # overflows; NDDP holds X's children M and Z and PCDP {M: 0} holds M,
    # so both pin the features X and M and never abduct, while TDP does
    mechanisms = dict(mediation_scm().mechanisms)
    mechanisms["Z"] = Mechanism(("X",), parse("exp(1000*X)"), NoiseSpec.normal(0.0, 1.0))
    scm = build_scm("overflow", mechanisms)
    sampled, _ = sample(mediation_scm(), 30, seed=8)
    data = _dataset(X=sampled.column("X"), M=sampled.column("M"), Z=np.zeros(30))
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=6)
    abducted = mock.Mock(wraps=abduct)
    monkeypatch.setattr(engine, "abduct", abducted)
    direct = nddp(ecm, data, "X", grid)
    pcdp(ecm, data, "X", grid, {"M": 0.0})
    assert abducted.call_count == 0
    assert direct.curves.tobytes() == ice(ecm.predictor, data, "X", grid).curves.tobytes()
    with pytest.raises(CdpError, match="exp"):
        tdp(ecm, data, "X", grid)
    assert abducted.call_count == 1


# --- world keys ------------------------------------------------------------

KEYED_KINDS = ("ICE", "PDP", "TDP", "PCDP", "NDDP", "NIDP")


@st.composite
def _keyed_models(draw):
    """A random additive-noise model of 2-6 variables with polynomial
    mechanisms, a closed-form predictor on a random feature subset, an
    explained variable and random controls on the other variables."""
    k = draw(st.integers(2, 6))
    names = [f"V{i}" for i in range(k)]
    coefficient = st.sampled_from(["-0.5", "-0.3", "0.2", "0.4"])
    mechanisms = {}
    for j, name in enumerate(names):
        parents = tuple(p for p in names[:j] if draw(st.booleans()))
        terms = [f"{draw(coefficient)}*{p}^{draw(st.integers(1, 3))}" for p in parents]
        noise = draw(st.sampled_from([NoiseSpec.normal(0.0, 0.4), NoiseSpec.uniform(-0.6, 0.6)]))
        mechanisms[name] = Mechanism(parents, parse(" + ".join(terms)) if terms else None, noise)
    scm = build_scm("keyed", mechanisms)
    features = tuple(draw(st.lists(st.sampled_from(names), min_size=1, unique=True)))
    terms = [f"{draw(coefficient)}*{f}^{draw(st.integers(1, 3))}" for f in features]
    predictor = ClosedFormPredictor(" + ".join(["0.1", *terms]), features)
    var = draw(st.sampled_from(names))
    others = [n for n in names if n != var]
    control = {n: draw(st.sampled_from([-0.5, 0.0, 1.0])) for n in others if draw(st.booleans())}
    data, _ = sample(scm, 20, draw(st.integers(0, 1000)))
    return build_ecm(scm, predictor), data, var, control


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_keyed_models())
def test_kinds_with_one_world_key_have_bitwise_equal_curves(case):
    ecm, data, var, control = case
    features = ecm.predictor.features
    grid = Grid(var, np.array([-0.7, 0.0, 0.4, 1.1]))
    kinds = [k for k in KEYED_KINDS if k not in ("ICE", "PDP") or var in features]
    by_key = {}
    for kind in kinds:
        key = world_key(kind, ecm.scm, features, var, control)
        with mock.patch.object(engine, "abduct", wraps=engine.abduct) as abducted:
            by_key.setdefault(key, []).append(_engine_curves(kind, ecm, data, var, grid, control))
        # every feature is reached, so the key holds its pin, if any; a
        # kind whose pins hold every feature needs no model
        pins = dict(key)
        model_free = all(pins.get(f) not in (None, engine.TDP_WORLD) for f in features)
        assert abducted.call_count == (0 if model_free else 1), kind
    for curve_sets in by_key.values():
        for curve_set in curve_sets[1:]:
            assert np.array_equal(curve_set.curves, curve_sets[0].curves), curve_set.kind
    if var in features:
        ice_key = world_key("ICE", ecm.scm, features, var)
        assert np.array_equal(by_key[ice_key][0].curves, ice(ecm.predictor, data, var, grid).curves)


def test_world_keys_group_the_salary_kinds():
    # P: NDDP holds F, the only other feature, at its observed column, so
    # it has ICE's key; F: NDDP holds only the target S, which no feature
    # reads, so it has TDP's key; so has PCDP with its control on S
    mechanisms = dict(salary_scm().mechanisms)
    mechanisms["S"] = Mechanism(("P", "F"), parse("F - P^2"), NoiseSpec.normal(0.0, 0.2))
    scm = build_scm("salary", mechanisms)
    for var, groups in {
        "P": [["ICE", "PDP", "NDDP"], ["TDP", "PCDP"], ["NIDP"]],
        "F": [["ICE", "PDP"], ["TDP", "PCDP", "NDDP"], ["NIDP"]],
    }.items():
        keys = {kind: world_key(kind, scm, ("P", "F"), var, {"S": 1.0}) for kind in KEYED_KINDS}
        grouped = {}
        for kind, key in keys.items():
            grouped.setdefault(key, []).append(kind)
        assert list(grouped.values()) == groups, var


def test_world_key_does_not_share_a_world_that_moves_a_downstream_feature():
    # X -> M with both features: ICE holds M at its observed column, TDP
    # lets it respond, PCDP holds it at 0 and NIDP moves only it; four
    # keys, four different curve sets
    scm = mediation_scm()
    data, _ = sample(scm, 30, seed=6)
    ecm = build_ecm(scm, correct_model())
    grid = make_grid(data, "X", resolution=6)
    kinds = ("ICE", "TDP", "PCDP", "NIDP")
    keys = {kind: world_key(kind, scm, ("X", "M"), "X", {"M": 0.0}) for kind in kinds}
    assert len(set(keys.values())) == len(kinds)
    curves = [_engine_curves(kind, ecm, data, "X", grid, {"M": 0.0}).curves for kind in kinds]
    for i, j in itertools.combinations(range(len(kinds)), 2):
        assert not np.array_equal(curves[i], curves[j]), (kinds[i], kinds[j])


# --- effect differences ----------------------------------------------------


def test_effect_difference_zero_for_same_point():
    scm = mediation_scm()
    data, _ = sample(scm, 8, seed=3)
    ecm = build_ecm(scm, correct_model())
    curves = tdp(ecm, data, "X", Grid("X", np.array([0.0, 1.0])))
    diff = effect_difference(curves, 1.0, 1.0)
    assert np.all(diff.per_unit == 0.0) and diff.mean == 0.0


def test_effect_difference_controlled_direct():
    scm = mediation_scm()
    data, _ = sample(scm, 10, seed=2)
    ecm = build_ecm(scm, correct_model())
    curves = pcdp(
        ecm,
        data,
        "X",
        Grid("X", np.array([0.0, 1.0, 2.0])),
        {"M": 0.0},
    )
    diff = effect_difference(curves, 0.0, 2.0)
    assert abs(diff.mean - (-2.0)) < 1e-9
    assert np.max(np.abs(diff.per_unit - (-2.0))) < 1e-9


def test_effect_difference_linear_slope():
    scm = salary_scm()
    data, _ = sample(scm, 6, seed=4)
    model = OlsPredictor(("P", "F"), 1, ((0, 0), (1, 0), (0, 1)), np.array([0.0, 4.0, 0.0]))
    ecm = build_ecm(scm, model)
    curves = pcdp(
        ecm, data, "P", Grid("P", np.array([0.0, 1.0])), {"F": 1.0}
    )
    diff = effect_difference(curves, 0.0, 1.0)
    assert np.max(np.abs(diff.per_unit - 4.0)) < 1e-12


def test_effect_difference_requires_grid_points():
    scm = mediation_scm()
    data, _ = sample(scm, 4, seed=1)
    ecm = build_ecm(scm, correct_model())
    curves = tdp(ecm, data, "X", Grid("X", np.array([0.0, 1.0])))
    with pytest.raises(EngineError):
        effect_difference(curves, 0.0, 0.5)


# --- uncertainty bands -----------------------------------------------------


def _salary_full():
    return build_scm(
        "salary",
        {
            "P": Mechanism((), None, NoiseSpec.uniform(0.0, 1.5)),
            "F": Mechanism(("P",), parse("2*P^3"), NoiseSpec.normal(0.0, 0.2)),
            "S": Mechanism(("P", "F"), parse("F - P^2"), NoiseSpec.normal(0.0, 0.2)),
        },
    )


def _salary_independent():
    return build_scm(
        "salary_independent",
        {
            "P": Mechanism((), None, NoiseSpec.uniform(0.0, 1.5)),
            "F": Mechanism((), None, NoiseSpec.normal(1.6875, 1.9239)),
            "S": Mechanism(("P", "F"), parse("F - P^2"), NoiseSpec.normal(0.0, 0.2)),
        },
    )


def test_identical_models_give_zero_width_band():
    data, _ = sample(_salary_full(), 30, seed=6)
    model = fit_ols(data, "S", ("P", "F"), degree=1)
    ecms = [build_ecm(_salary_full(), model), build_ecm(_salary_full(), model)]
    grid = make_grid(data, "P", resolution=9)
    band = uncertainty_band(ecms, data, "P", grid, "TDP")
    assert np.max(band.upper - band.lower) == 0.0
    assert band.labels == ("salary", "salary#1")


def test_band_separates_mediation_from_independence():
    data, _ = sample(_salary_full(), 300, seed=11)
    model = fit_ols(data, "S", ("P", "F"), degree=1)
    ecms = [build_ecm(_salary_full(), model), build_ecm(_salary_independent(), model)]
    grid = Grid("P", np.array([0.0, 0.35, 0.7, 1.05, 1.4]))
    total_band = uncertainty_band(ecms, data, "P", grid, "TDP")
    direct_band = uncertainty_band(ecms, data, "P", grid, "NDDP")
    assert np.max(total_band.upper - total_band.lower) > 0.0
    assert np.max(direct_band.upper - direct_band.lower) < 1e-9
    # at P=1.4 the mediated funding response puts the mediation curve on top
    assert total_band.curves[0, -1] > total_band.curves[1, -1]


def test_band_requires_shared_variables():
    data, _ = sample(_salary_full(), 10, seed=0)
    model = fit_ols(data, "S", ("P", "F"), degree=1)
    ecms = [build_ecm(_salary_full(), model), build_ecm(salary_scm(), model)]
    with pytest.raises(EngineError, match="variable"):
        uncertainty_band(ecms, data, "P", make_grid(data, "P", 5), "TDP")


def test_band_rejects_single_model_and_bad_kind():
    data, _ = sample(_salary_full(), 10, seed=0)
    model = fit_ols(data, "S", ("P", "F"), degree=1)
    ecm = build_ecm(_salary_full(), model)
    grid = make_grid(data, "P", 5)
    with pytest.raises(EngineError):
        uncertainty_band([ecm], data, "P", grid, "TDP")
    with pytest.raises(EngineError):
        uncertainty_band([ecm, ecm], data, "P", grid, "ICE")
    assert band_kinds() == ("TDP", "NDDP", "NIDP")


# --- request rules -------------------------------------------------------------

XM = [("X", "M")]

# name: (model, feature sets, variables, kinds, control, band models, the
# message of the EngineError or None for a valid request)
REQUEST_CASES = {
    "every-kind": (mediation_scm, XM, ["X"], PLOT_KINDS, {"M": 0.0}, (), None),
    "unknown-kind": (mediation_scm, XM, ["X"], ["TDP", "XDP"], {}, (),
                     "unknown plot kind 'XDP'"),
    "variable-not-in-model": (mediation_scm, [("Q",)], ["Q"], ["ICE"], {}, (),
                              "variable 'Q' is not in the model"),
    "ice-variable-not-a-feature-of-each-predictor": (
        mediation_scm, [("X", "M"), ("M",)], ["X"], ["TDP", "PDP"], {}, (),
        "ICE/PDP variable 'X' is not a predictor feature"),
    "causal-kind-feature-outside-model": (
        mediation_scm, [("X", "Z", "W")], ["X"], ["ICE", "NIDP"], {}, (),
        "predictor features missing from model: Z, W"),
    "ice-feature-outside-model": (mediation_scm, [("X", "Z")], ["X"], ["ICE", "PDP"], {}, (),
                                  None),
    "no-model-ice": (lambda: None, [("X", "Z")], ["X"], ["ICE"], {}, (), None),
    "no-model-causal-kind": (lambda: None, XM, ["X"], ["TDP"], {}, (),
                             "predictor features missing from model: X, M"),
    "control-not-finite": (mediation_scm, XM, ["X"], ["TDP"], {"M": float("nan")}, (),
                           "control value for 'M' must be finite"),
    "control-on-unknown-variable": (mediation_scm, XM, ["X"], ["PCDP"], {"Q": 1.0}, (),
                                    "control on unknown variable 'Q'"),
    "control-on-explained-variable": (mediation_scm, XM, ["X"], ["PCDP"], {"X": 1.0}, (),
                                      "control on explained variable 'X'"),
    "controls-named-only-for-pcdp": (mediation_scm, XM, ["X"], ["TDP"], {"Q": 1.0}, (),
                                     None),
    "band-models": (_salary_full, [("P", "F")], ["P"], ["TDP"], {}, (_salary_full,) * 2,
                    None),
    "band-models-differ": (_salary_full, [("P", "F")], ["P"], ["TDP"], {},
                           (_salary_full, salary_scm), "band models must share a variable set"),
    "band-models-lack-names": (_salary_full, [("P", "S")], ["F"], ["TDP"], {},
                               (salary_scm,) * 2, "band models lack S"),
}


@pytest.mark.parametrize("case", sorted(REQUEST_CASES))
def test_check_request_holds_every_rule(case):
    model, feature_sets, variables, kinds, control, bands, message = REQUEST_CASES[case]
    args = (model(), feature_sets, variables, kinds, control, [band() for band in bands])
    if message is None:
        check_request(*args)
    else:
        with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
            check_request(*args)


def test_curves_rejects_an_unknown_kind():
    # an unknown kind once swept TDP's worlds under ICE's caption
    scm = mediation_scm()
    data, _ = sample(scm, 5, seed=0)
    with pytest.raises(EngineError, match="unknown plot kind 'XDP'"):
        curves("XDP", correct_model(), scm, data, "X", Grid("X", np.array([0.0, 1.0])))


def test_every_entry_checks_through_check_request():
    scm = _salary_full()
    data, _ = sample(scm, 10, seed=0)
    model = ClosedFormPredictor("F - P^2", ("P", "F"))
    grid = make_grid(data, "P", 3)
    with mock.patch.object(engine, "check_request", wraps=check_request) as checked:
        ecm = build_ecm(scm, model)
        curves("NDDP", model, scm, data, "P", grid)
        uncertainty_band([ecm, ecm], data, "P", grid, "TDP")
    # the band checks once, then each model's curves
    assert checked.call_count == 5
    assert checked.call_args_list[2].kwargs["band_scms"] == [scm, scm]
