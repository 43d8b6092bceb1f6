"""Model construction, sampling, abduction, counterfactuals."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from cdplot.cli import load_scm_spec
from cdplot.expr import parse
from cdplot.scm import (
    Dataset,
    Mechanism,
    NoiseSpec,
    ScmError,
    abduct,
    build_scm,
    counterfactual_table,
    ndtri,
    sample,
)


def salary_scm():
    return build_scm(
        "salary",
        {
            "P": Mechanism((), None, NoiseSpec.uniform(0.0, 1.5)),
            "F": Mechanism(("P",), parse("2*P^3"), NoiseSpec.normal(0.0, 0.2)),
            "S": Mechanism(("P", "F"), parse("F - P^2"), NoiseSpec.normal(0.0, 0.2)),
        },
    )


def mediation_scm():
    return build_scm(
        "mediation",
        {
            "X": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "M": Mechanism(("X",), parse("0.5*X^3"), NoiseSpec.normal(0.0, 1.0)),
            "Y": Mechanism(("X", "M"), parse("M^2 - 0.5*X^2"), NoiseSpec.normal(0.0, 1.0)),
        },
    )


# --- validation ------------------------------------------------------------


def test_salary_topological_order():
    assert salary_scm().topo_order == ("P", "F", "S")


def test_cycle_is_reported():
    with pytest.raises(ScmError, match="cycle detected: P -> F -> P"):
        build_scm(
            "loop",
            {
                "P": Mechanism(("F",), parse("F"), NoiseSpec.normal(0, 1)),
                "F": Mechanism(("P",), parse("P"), NoiseSpec.normal(0, 1)),
            },
        )


def test_undeclared_parent():
    with pytest.raises(ScmError, match="Q"):
        build_scm(
            "bad",
            {"S": Mechanism(("Q",), parse("Q"), NoiseSpec.normal(0, 1))},
        )


def test_expression_must_only_use_parents():
    with pytest.raises(ScmError, match="P"):
        build_scm(
            "bad",
            {
                "F": Mechanism((), None, NoiseSpec.normal(0, 1)),
                "P": Mechanism((), None, NoiseSpec.normal(0, 1)),
                "S": Mechanism(("F",), parse("F - P^2"), NoiseSpec.normal(0, 1)),
            },
        )


def test_noise_spec_rejects_bad_parameters():
    with pytest.raises(ScmError):
        NoiseSpec.normal(0.0, -1.0)
    with pytest.raises(ScmError):
        NoiseSpec.uniform(2.0, 1.0)


def test_degenerate_noise_behaves_as_point_mass():
    units = np.arange(5)
    assert np.all(NoiseSpec.normal(3.0, 0.0).draw(0, 0, units) == 3.0)
    assert np.all(NoiseSpec.uniform(2.0, 2.0).draw(0, 0, units) == 2.0)


# --- sampling --------------------------------------------------------------


def test_uniform_root_stays_in_support():
    data, _ = sample(salary_scm(), 1000, seed=42)
    p = data.column("P")
    assert p.min() >= 0.0 and p.max() <= 1.5


def test_same_seed_same_tables():
    a, na = sample(salary_scm(), 200, seed=9)
    b, nb = sample(salary_scm(), 200, seed=9)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(na.values, nb.values)


def test_different_seeds_differ():
    a, _ = sample(salary_scm(), 200, seed=9)
    b, _ = sample(salary_scm(), 200, seed=10)
    assert not np.array_equal(a.values, b.values)


def test_mediation_sample_means_near_zero():
    data, _ = sample(mediation_scm(), 10000, seed=1)
    for var in ("X", "M"):
        col = data.column(var)
        stderr = col.std(ddof=1) / np.sqrt(len(col))
        assert abs(col.mean()) < 3 * stderr


def test_sampling_marginals_pass_ks_across_seeds():
    # each root against its own distribution; 0.01-level KS critical
    # value for n=10000 is 1.62762/sqrt(n)
    scm = build_scm(
        "roots",
        {
            "A": Mechanism((), None, NoiseSpec.normal(1.0, 2.0)),
            "B": Mechanism((), None, NoiseSpec.uniform(-1.0, 3.0)),
        },
    )
    n = 10000
    critical = 1.6276236115189504 / np.sqrt(n)
    passed = 0
    for seed in range(100):
        data, _ = sample(scm, n, seed)
        d_a = stats.kstest(data.column("A"), stats.norm(1.0, 2.0).cdf).statistic
        d_b = stats.kstest(data.column("B"), stats.uniform(-1.0, 4.0).cdf).statistic
        if d_a < critical and d_b < critical:
            passed += 1
    assert passed >= 95


# --- normal quantile -------------------------------------------------------

E_M2 = 0.1353352832366127  # exp(-2): the central branch is (E_M2, 1 - E_M2)


@pytest.mark.parametrize(
    "p, expected",
    [
        (0.0, -np.inf),
        (1.0, np.inf),
        (0.5, 0.0),
        (E_M2, -1.10151962849875),
        (np.nextafter(E_M2, 1.0), -1.1015196284987503),
        (1.0 - E_M2, 1.1015196284987503),
        (np.nextafter(1.0 - E_M2, 1.0), 1.1015196284987507),
        (0.975, 1.959963984540054),
    ],
)
def test_ndtri_values(p, expected):
    assert float(ndtri(p)) == expected
    assert ndtri(np.array([p, p])).tolist() == [expected, expected]


def test_ndtri_outside_the_unit_interval_is_nan():
    assert np.isnan(ndtri([-0.1, 1.5, np.nan])).all()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(5e-324, 1e-14),
            st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
        ),
        min_size=1,
        max_size=40,
    )
)
# numpy's SIMD log changes the result here, in log(y) and log(sqrt(-2 log y))
@example([0.8900513081093303, 0.06844387535280194])
def test_ndtri_matches_scipy_bitwise(values):
    special = pytest.importorskip("scipy.special")
    p = np.array(values)
    assert ndtri(p).tobytes() == special.ndtri(p).tobytes()


# --- abduction -------------------------------------------------------------


def test_salary_abduction_values():
    # u_F = 2 - 2*1^3 = 0, u_S = 1.5 - (2 - 1^2) = 0.5
    scm = salary_scm()
    data = Dataset(("P", "F", "S"), np.array([[1.0, 2.0, 1.5]]))
    noise = abduct(scm, data)
    assert noise["P"][0] == 1.0
    assert noise["F"][0] == 0.0
    assert noise["S"][0] == 0.5


def test_mediation_abduction_value():
    # u_M = 5 - 0.5*2^3 = 1.0
    scm = mediation_scm()
    data = Dataset(("X", "M", "Y"), np.array([[2.0, 5.0, 0.0]]))
    noise = abduct(scm, data)
    assert noise["M"][0] == 1.0


def test_abduct_inverts_sample_bitwise():
    for scm in (salary_scm(), mediation_scm()):
        data, recorded = sample(scm, 500, seed=13)
        noise = abduct(scm, data)
        assert np.array_equal(np.column_stack(list(noise.values())), recorded.values)


def test_abduct_requires_all_columns():
    data = Dataset(("P", "F"), np.array([[1.0, 2.0]]))
    with pytest.raises(ScmError, match="S"):
        abduct(salary_scm(), data)


# --- counterfactuals -------------------------------------------------------


def _noise_row(scm, **values):
    return {v: np.array([values[v]]) for v in scm.variables}


def test_empty_intervention_reproduces_observed():
    scm = salary_scm()
    data, noise = sample(scm, 300, seed=4)
    table = counterfactual_table(scm, noise.column_dict(), {})
    assert np.max(np.abs(np.column_stack(list(table.values())) - data.values)) < 1e-12


def test_mediation_counterfactual_do_x0():
    # unit (x=1, m=1.5): u_M = 1.5 - 0.5 = 1.0; under do(X=0),
    # m_cf = 0.5*0^3 + 1.0 = 1.0
    scm = mediation_scm()
    noise = _noise_row(scm, X=1.0, M=1.0, Y=2.0 - (1.5**2 - 0.5))
    table = counterfactual_table(scm, noise, {"X": np.array([0.0])})
    assert table["X"][0] == 0.0
    assert table["M"][0] == 1.0


def test_salary_counterfactual_do_p12():
    # with u_F = 0, do(P=1.2) gives f_cf = 2*1.2^3 = 3.456
    scm = salary_scm()
    noise = _noise_row(scm, P=1.0, F=0.0, S=0.5)
    table = counterfactual_table(scm, noise, {"P": np.array([1.2])})
    assert table["P"][0] == 1.2
    assert abs(table["F"][0] - 3.456) < 1e-15


def test_set_per_unit_pins_each_row():
    scm = salary_scm()
    data, noise = sample(scm, 4, seed=2)
    pinned = np.array([0.1, 0.2, 0.3, 0.4])
    table = counterfactual_table(scm, noise.column_dict(), {"P": pinned})
    assert np.array_equal(table["P"], pinned)
    expected_f = 2 * pinned**3 + noise.column("F")
    assert np.allclose(table["F"], expected_f, atol=1e-12)


def test_sever_incoming_with_companion_set():
    # a pin on M overrides its mechanism, as severing its parents would
    scm = mediation_scm()
    data, noise = sample(scm, 5, seed=8)
    table = counterfactual_table(scm, noise.column_dict(), {"M": np.full(5, 2.0)})
    assert np.all(table["M"] == 2.0)
    # X keeps its observed values, Y responds to the pinned M
    assert np.allclose(table["X"], data.column("X"), atol=1e-12)
    expected_y = 4.0 - 0.5 * data.column("X") ** 2 + noise.column("Y")
    assert np.allclose(table["Y"], expected_y, atol=1e-12)


def test_counterfactual_requires_complete_observed_row():
    # the noise row abducted from an observed row needs every variable
    scm = salary_scm()
    noise = {"P": np.array([1.0]), "F": np.array([0.0])}
    with pytest.raises(ScmError, match="S"):
        counterfactual_table(scm, noise, {})


def test_counterfactual_table_matches_single_unit_calls():
    scm = salary_scm()
    data, noise = sample(scm, 10, seed=5)
    pins = {"P": np.full(10, 0.7)}
    table = counterfactual_table(scm, noise.column_dict(), pins)
    for unit in range(10):
        row = counterfactual_table(
            scm,
            {v: u[unit:unit + 1] for v, u in noise.column_dict().items()},
            {"P": np.array([0.7])},
        )
        assert [row[v][0] for v in scm.variables] == [table[v][unit] for v in scm.variables]


def test_pins_must_name_model_variables():
    scm = salary_scm()
    _, noise = sample(scm, 3, seed=1)
    with pytest.raises(ScmError, match="Q"):
        counterfactual_table(scm, noise.column_dict(), {"Q": np.zeros(3)})


def test_pins_must_have_one_value_per_unit():
    scm = salary_scm()
    _, noise = sample(scm, 3, seed=1)
    with pytest.raises(ScmError, match="'P'"):
        counterfactual_table(scm, noise.column_dict(), {"P": np.zeros(4)})


def _overflowing_child():
    # C = P + u_C; with P and u_C both at 1e308 the sum is inf
    return build_scm(
        "overflow",
        {
            "P": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "C": Mechanism(("P",), parse("P"), NoiseSpec.normal(0.0, 1.0)),
        },
    )


def test_abduct_rejects_a_residual_that_overflows():
    data = Dataset(("P", "C"), np.array([[1e308, -1e308]]))
    with pytest.raises(ScmError, match="'C'"):
        abduct(_overflowing_child(), data)


def test_counterfactual_rejects_a_value_that_overflows():
    noise = {"P": np.array([0.0]), "C": np.array([1e308])}
    with pytest.raises(ScmError, match="'C'"):
        counterfactual_table(_overflowing_child(), noise, {"P": np.array([1e308])})


def test_counterfactual_table_holds_about_one_copy_of_the_world():
    # 18 variables, 16,000 units: the columns that make up the world, plus
    # a few column-sized temporaries, and no stacked copies of the table
    chain = Path(__file__).resolve().parents[1] / "perfbench" / "chain.scm"
    scm = load_scm_spec(chain)
    data, _ = sample(scm, 16_000, seed=1)
    noise = abduct(scm, data)
    pins = {"X04": np.full(data.m, 0.5)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = counterfactual_table(scm, noise, pins)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    returned = sum(column.nbytes for column in table.values())
    assert peak <= 1.5 * returned, (peak, returned)


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ScmError):
        Dataset(("A", "B"), np.zeros((3, 3)))
    with pytest.raises(ScmError):
        Dataset(("A", "A"), np.zeros((3, 2)))
    with pytest.raises(ScmError):
        Dataset(("A",), np.array([[np.inf]]))
