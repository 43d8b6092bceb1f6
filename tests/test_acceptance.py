"""End-to-end behavior gates for the package.

One test per numbered check, each printing a single verdict line; run
``python3 -m pytest tests/test_acceptance.py -v -s`` to see them all.
Every seed is fixed, so the verdicts are reproducible.
"""

import sys
from importlib import resources
from pathlib import Path

import numpy as np

from cdplot.cli import load_scm_spec, main
from cdplot.discovery import orient_cpdag, pc_skeleton
from cdplot.engine import (
    Grid,
    build_ecm,
    effect_difference,
    ice,
    make_grid,
    nddp,
    nidp,
    pcdp,
    tdp,
    uncertainty_band,
)
from cdplot.expr import parse
from cdplot.predictors import (
    ClosedFormPredictor,
    OlsPredictor,
    fit_ols,
    open_external,
)
from cdplot.scm import (
    Dataset,
    Mechanism,
    NoiseSpec,
    build_scm,
    sample,
)

FIXTURES = Path(str(resources.files("cdplot").joinpath("fixtures")))

CORRECT_FORM = "M^2 - 0.5*X^2"


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _cubic_stats(grid, mean):
    """R^2 of a cubic fit plus its coefficients, highest degree first."""
    coefs = np.polyfit(grid.values, mean, 3)
    fit = np.polyval(coefs, grid.values)
    ss_res = float(np.sum((mean - fit) ** 2))
    ss_tot = float(np.sum((mean - np.mean(mean)) ** 2))
    return 1.0 - ss_res / ss_tot, coefs


def _random_fixture(seed: int):
    """A random small model, a random polynomial predictor, a variable."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    names = [f"V{i}" for i in range(k)]
    mechanisms = {}
    for j, name in enumerate(names):
        parents = tuple(names[i] for i in range(j) if rng.random() < 0.5)
        expression = None
        if parents:
            terms = [
                f"{rng.uniform(-0.5, 0.5):.3f}*{parent}^{rng.integers(1, 4)}"
                for parent in parents
            ]
            expression = parse(" + ".join(terms))
        noise = (
            NoiseSpec.normal(0.0, 0.4)
            if rng.random() < 0.7
            else NoiseSpec.uniform(-0.6, 0.6)
        )
        mechanisms[name] = Mechanism(parents, expression, noise)
    scm = build_scm(f"random_{seed}", mechanisms)
    size = int(rng.integers(1, k + 1))
    features = tuple(str(f) for f in rng.choice(names, size=size, replace=False))
    terms = ["0.1"] + [
        f"{rng.uniform(-0.5, 0.5):.3f}*{f}^{rng.integers(1, 4)}" for f in features
    ]
    predictor = ClosedFormPredictor(" + ".join(terms), features)
    return scm, predictor, str(rng.choice(features))


def test_criterion_01_nddp_matches_ice_on_random_models():
    worst = 0.0
    accepted = 0
    seed = 0
    while accepted < 20:
        seed += 1
        scm, predictor, var = _random_fixture(seed)
        data, _ = sample(scm, 50, seed)
        if np.max(np.abs(data.values)) > 5.0:
            continue
        accepted += 1
        grid = make_grid(data, var, 21)
        direct = nddp(build_ecm(scm, predictor), data, var, grid)
        baseline = ice(predictor, data, var, grid)
        worst = max(worst, float(np.max(np.abs(direct.curves - baseline.curves))))
    _report(1, worst < 1e-9, f"20 random models, max |NDDP - ICE| = {worst:.3g}")


def test_criterion_02_correct_model_tdp_matches_the_propagated_form():
    scm = load_scm_spec(FIXTURES / "mediation.scm")
    data, noise = sample(scm, 200, 7)
    u_m = noise.column("M")
    model = ClosedFormPredictor(CORRECT_FORM, ("X", "M"))
    grid = make_grid(data, "X", 21)
    curves = tdp(build_ecm(scm, model), data, "X", grid)
    x = grid.values
    oracle = 0.25 * x**6 - 0.5 * x**2 + np.mean(u_m) * x**3 + np.mean(u_m**2)
    worst = float(np.max(np.abs(curves.mean - oracle)))
    _report(2, worst < 1e-6, f"TDP mean vs closed form, max diff = {worst:.3g}")


def test_criterion_03_linear_model_mediation_curve_shapes():
    scm = load_scm_spec(FIXTURES / "mediation.scm")
    data, _ = sample(scm, 5000, 7)
    ecm = build_ecm(scm, fit_ols(data, "Y", ("X", "M"), 1))
    grid = make_grid(data, "X", 21)
    r2_total, _ = _cubic_stats(grid, tdp(ecm, data, "X", grid).mean)
    r2_indirect, _ = _cubic_stats(grid, nidp(ecm, data, "X", grid).mean)
    _, c = _cubic_stats(grid, nddp(ecm, data, "X", grid).mean)
    affine = max(abs(c[0]), abs(c[1])) < 0.05 * abs(c[2])
    ok = r2_total > 0.95 and r2_indirect > 0.95 and affine
    _report(
        3,
        ok,
        f"TDP r2 = {r2_total:.6f}, NIDP r2 = {r2_indirect:.6f}, "
        f"NDDP higher terms {max(abs(c[0]), abs(c[1])):.2g} vs |c1| = {abs(c[2]):.2g}",
    )


def test_criterion_04_linear_model_salary_curve_shapes():
    scm = load_scm_spec(FIXTURES / "salary.scm")
    data, _ = sample(scm, 2000, 11)
    ecm = build_ecm(scm, fit_ols(data, "S", ("P", "F"), 1))
    grid = make_grid(data, "P", 21)
    r2_total, c_total = _cubic_stats(grid, tdp(ecm, data, "P", grid).mean)
    _, c = _cubic_stats(grid, nddp(ecm, data, "P", grid).mean)
    cubic = abs(c_total[0]) > 0.1 * abs(c_total[2])
    affine = max(abs(c[0]), abs(c[1])) < 0.05 * abs(c[2])
    ok = r2_total > 0.99 and cubic and affine
    _report(
        4,
        ok,
        f"TDP r2 = {r2_total:.6f}, |c3|/|c1| = {abs(c_total[0]) / abs(c_total[2]):.3f}, "
        f"NDDP affine = {affine}",
    )


def _max_anchor_error(scm, data, predictor, var, units):
    ecm = build_ecm(scm, predictor)
    base = make_grid(data, var, 21)
    factual = predictor.predict_columns(data.column_dict())
    worst = 0.0
    for unit in units:
        x_i = float(data.column(var)[unit])
        values = np.unique(np.append(base.values, x_i))
        grid = Grid(var, values)
        idx = int(np.nonzero(values == x_i)[0][0])
        for plot in (tdp, nddp):
            curves = plot(ecm, data, var, grid)
            worst = max(
                worst, abs(float(curves.curves[unit, idx]) - float(factual[unit]))
            )
    return worst


def test_criterion_05_curves_pass_through_the_factual_prediction():
    salary = load_scm_spec(FIXTURES / "salary.scm")
    salary_data, _ = sample(salary, 200, 11)
    salary_model = fit_ols(salary_data, "S", ("P", "F"), 2)
    mediation = load_scm_spec(FIXTURES / "mediation.scm")
    mediation_data, _ = sample(mediation, 200, 7)
    mediation_model = ClosedFormPredictor(CORRECT_FORM, ("X", "M"))
    worst = max(
        _max_anchor_error(salary, salary_data, salary_model, "P", range(25)),
        _max_anchor_error(mediation, mediation_data, mediation_model, "X", range(25)),
    )
    _report(5, worst < 1e-9, f"worst factual anchoring gap = {worst:.3g}")


def test_criterion_06_edge_free_model_collapses_the_plots():
    scm = build_scm(
        "roots",
        {
            "A": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "B": Mechanism((), None, NoiseSpec.uniform(-1.0, 2.0)),
            "C": Mechanism((), None, NoiseSpec.normal(0.5, 0.8)),
        },
    )
    data, _ = sample(scm, 60, 9)
    model = ClosedFormPredictor("A^2 - 0.5*B + 0.3*A*C", ("A", "B", "C"))
    ecm = build_ecm(scm, model)
    grid = make_grid(data, "A", 21)
    baseline = ice(model, data, "A", grid).curves
    gap = max(
        float(np.max(np.abs(tdp(ecm, data, "A", grid).curves - baseline))),
        float(np.max(np.abs(nddp(ecm, data, "A", grid).curves - baseline))),
    )
    wiggle = float(np.max(np.ptp(nidp(ecm, data, "A", grid).curves, axis=1)))
    ok = gap < 1e-12 and wiggle < 1e-12
    _report(6, ok, f"max |TDP/NDDP - ICE| = {gap:.3g}, max NIDP wiggle = {wiggle:.3g}")


def test_criterion_07_affine_curves_decompose():
    scm = build_scm(
        "affine",
        {
            "X": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "M": Mechanism(("X",), parse("2*X + 1"), NoiseSpec.normal(0.0, 0.5)),
        },
    )
    data, _ = sample(scm, 50, 14)
    model = OlsPredictor(
        ("X", "M"), 1, ((0, 0), (1, 0), (0, 1)), np.array([0.5, -1.0, 2.0])
    )
    ecm = build_ecm(scm, model)
    grid = Grid("X", np.linspace(-2.0, 2.0, 21))
    total = tdp(ecm, data, "X", grid).curves
    direct = nddp(ecm, data, "X", grid).curves
    indirect = nidp(ecm, data, "X", grid).curves
    center = lambda c: c - c[:, :1]
    residual = float(
        np.max(np.abs(center(total) - center(direct) - center(indirect)))
    )
    _report(7, residual < 1e-9, f"max decomposition residual = {residual:.3g}")


def test_criterion_08_controlled_direct_effect():
    scm = load_scm_spec(FIXTURES / "mediation.scm")
    data, _ = sample(scm, 100, 3)
    ecm = build_ecm(scm, ClosedFormPredictor(CORRECT_FORM, ("X", "M")))
    grid = Grid("X", np.arange(-2.0, 2.5, 0.5))
    curves = pcdp(ecm, data, "X", grid, {"M": 0.0})
    diff = effect_difference(curves, 0.0, 2.0)
    gap = abs(diff.mean - (-2.0))
    _report(8, gap < 1e-9, f"PCDP do(M=0) effect 0 -> 2 = {diff.mean:.12f}")


def test_criterion_09_discovery_recovers_chain_and_collider():
    chain_hits = 0
    collider_hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, 5000)
        m = x + rng.normal(0.0, 0.5, 5000)
        y = m + rng.normal(0.0, 0.5, 5000)
        data = Dataset(("X", "M", "Y"), np.column_stack([x, m, y]))
        skeleton, sepsets = pc_skeleton(data, 0.05, 3)
        cpdag = orient_cpdag(skeleton, sepsets)
        v_at_m = ("X", "M") in cpdag.directed and ("Y", "M") in cpdag.directed
        if set(skeleton.edges) == {("M", "X"), ("M", "Y")} and not v_at_m:
            chain_hits += 1

        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(0.0, 1.0, 5000)
        y = rng.normal(0.0, 1.0, 5000)
        z = x + y + rng.normal(0.0, 0.5, 5000)
        data = Dataset(("X", "Y", "Z"), np.column_stack([x, y, z]))
        skeleton, sepsets = pc_skeleton(data, 0.05, 3)
        cpdag = orient_cpdag(skeleton, sepsets)
        if {("X", "Z"), ("Y", "Z")} <= cpdag.directed:
            collider_hits += 1
    ok = chain_hits >= 45 and collider_hits >= 45
    _report(9, ok, f"chain {chain_hits}/50, collider {collider_hits}/50")


def test_criterion_10_band_separates_mediation_from_none():
    mediation = load_scm_spec(FIXTURES / "salary.scm")
    independent = load_scm_spec(FIXTURES / "salary_independent.scm")
    data, _ = sample(mediation, 500, 11)
    shared = fit_ols(data, "S", ("P", "F"), 1)
    ecms = [build_ecm(mediation, shared), build_ecm(independent, shared)]
    grid = make_grid(data, "P", 21)
    total = uncertainty_band(ecms, data, "P", grid, "TDP")
    direct = uncertainty_band(ecms, data, "P", grid, "NDDP")
    spread = float(np.max(total.upper - total.lower))
    collapse = float(np.max(direct.upper - direct.lower))
    ok = spread > 1e-6 and collapse < 1e-9
    _report(10, ok, f"TDP band width up to {spread:.3g}, NDDP width <= {collapse:.3g}")


def test_criterion_11_runs_are_reproducible_and_external_round_trips(tmp_path):
    config = str(FIXTURES / "salary.json")
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--config", config, "--output-dir", str(first)]) == 0
    assert main(["run", "--config", config, "--output-dir", str(second)]) == 0
    csvs = sorted(p.name for p in first.glob("*.csv"))
    identical = bool(csvs) and all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in csvs
    )

    scm = load_scm_spec(FIXTURES / "salary.scm")
    data, _ = sample(scm, 50, 11)
    grid = make_grid(data, "P", 21)
    builtin = ClosedFormPredictor("F - P^2", ("P", "F"))
    external = open_external(
        [sys.executable, str(FIXTURES / "external_eval.py"), "F - P**2"],
        ("P", "F"),
    )
    try:
        ours = tdp(build_ecm(scm, builtin), data, "P", grid)
        theirs = tdp(build_ecm(scm, external), data, "P", grid)
    finally:
        external.close()
    gap = float(np.max(np.abs(ours.curves - theirs.curves)))
    ok = identical and gap < 1e-12
    _report(
        11,
        ok,
        f"{len(csvs)} curve files byte-identical = {identical}, "
        f"loopback max diff = {gap:.3g}",
    )
