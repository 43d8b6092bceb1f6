"""Byte-level regression check of the curve engine.

For three models and all six plot kinds, the sha256 of the exported
curve CSV must match a recorded digest. The CSV keeps 17 significant
digits, so any change to a curve value, however small, changes a
digest. The third model is an additive-noise model fitted to simulated
data, whose recomputed non-root variables differ from the data by an
ulp for some units; it pins down how counterfactual worlds treat
variables that are not descendants of the explained one.
"""

import dataclasses
import hashlib
from importlib import resources
from pathlib import Path

import pytest

from cdplot.cli import load_scm_spec
from cdplot.discovery import Dag, fit_anm
from cdplot.engine import build_ecm, ice, make_grid, nddp, nidp, pcdp, tdp
from cdplot.expr import parse
from cdplot.predictors import ClosedFormPredictor, fit_ols
from cdplot.render import export_csv
from cdplot.scm import Intervention, Mechanism, NoiseSpec, build_scm, sample

FIXTURES = Path(str(resources.files("cdplot").joinpath("fixtures")))


def _salary():
    scm = load_scm_spec(FIXTURES / "salary.scm")
    data, _ = sample(scm, 200, seed=7)
    predictor = fit_ols(data, "S", ("P", "F"), degree=3)
    controls = {"P": Intervention.do({"F": 1.0}), "F": Intervention(())}
    return scm, data, predictor, controls


def _mediation():
    scm = load_scm_spec(FIXTURES / "mediation.scm")
    data, _ = sample(scm, 100, seed=3)
    predictor = ClosedFormPredictor("M^2 - 0.5*X^2 + 0.25*Y", ("X", "M", "Y"))
    controls = {
        "X": Intervention.do({"M": 0.0}),
        "M": Intervention.do({"X": 0.5}),
        "Y": Intervention.do({"M": 0.0}),
    }
    return scm, data, predictor, controls


def _chain_anm():
    truth = build_scm(
        "chain",
        {
            "A": Mechanism((), None, NoiseSpec.normal(0.0, 1.0)),
            "B": Mechanism(("A",), parse("0.8*A + 0.3*A^2"), NoiseSpec.normal(0.0, 0.5)),
            "C": Mechanism(("B",), parse("sin(B) + 0.5*B"), NoiseSpec.normal(0.0, 0.3)),
            "D": Mechanism(("C",), parse("0.7*C^2 - C"), NoiseSpec.normal(0.0, 0.4)),
            "Y": Mechanism(("B", "C", "D"), parse("B - C + 0.5*D"), NoiseSpec.normal(0.0, 0.2)),
        },
    )
    data, _ = sample(truth, 150, seed=11)
    dag = Dag(("A", "B", "C", "D"), frozenset({("A", "B"), ("B", "C"), ("C", "D")}))
    scm = fit_anm(dag, data, degree=2)
    predictor = fit_ols(data, "Y", ("A", "B", "C", "D"), degree=2)
    controls = {"B": Intervention.do({"D": 0.5}), "C": Intervention.do({"A": 0.0})}
    return scm, data, predictor, controls


CASES = {"salary": _salary, "mediation": _mediation, "chain_anm": _chain_anm}


def _digests(case: str) -> dict[str, str]:
    scm, data, predictor, controls = CASES[case]()
    ecm = build_ecm(scm, predictor)
    out = {}
    for var, control in controls.items():
        grid = make_grid(data, var)
        curve_sets = {
            "ICE": ice(predictor, data, var, grid),
            "TDP": tdp(ecm, data, var, grid),
            "PCDP": pcdp(ecm, data, var, grid, control),
            "NDDP": nddp(ecm, data, var, grid),
            "NIDP": nidp(ecm, data, var, grid),
        }
        curve_sets["PDP"] = dataclasses.replace(curve_sets["ICE"], kind="PDP")
        for kind, curve_set in curve_sets.items():
            text = export_csv(curve_set)
            out[f"{var}/{kind}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


GOLDEN = {
    "chain_anm": {
        "B/ICE": "0fa70c00a4cfcec04e084fccdeafd92e1bf094a2b12f82630ae5e3a87de0a730",
        "B/TDP": "d243fa53cf448880bbe366b566458644ace573794f46446f1c8d143b11c08f32",
        "B/PCDP": "a211e871ff5403b7b121bb6eccf433f7b6d24497de4a42cee5352fd9cc0b8147",
        "B/NDDP": "acfb4c2459f79c14d5c6f68953be70c85828cc542400a376dfa1d4bb58ce3ae1",
        "B/NIDP": "13c93f20462c7bd6430c56e40f21430cab9f3307d0a1ea443e89bd4d38b9ee01",
        "B/PDP": "87f8b6d2b86018695a3442c88171ab4bfbcc2fa623c6830c0e8a9d74fa413f37",
        "C/ICE": "9d2e05ded0843a413f06b21666dffa009453913739d205ca1007e65377d4236f",
        "C/TDP": "3ac5ed5252a0fd8e0a766aedee60b217dd9ab5f376164de207b556aa15db281e",
        "C/PCDP": "d9f6ebf3c929c0a3734a2fb5216fc0f1c368ef6b7137e2208ea41bf0ad5321f8",
        "C/NDDP": "4ae277c4ac4ec767daa9c5a0d44b07dc2f2459fb87880499ea8651c3ed65ec3a",
        "C/NIDP": "4c0e59079b6821dc62cd3803681314749307ad09e8893bd2bd0192118fcc6f06",
        "C/PDP": "a50084399027a8474dfbdec306cae64410ceebb28c3b7b2f57ec91bc5aa191b3",
    },
    "mediation": {
        "X/ICE": "06d3492b09e36e7146762f8c98976c5e097e212126348ef09802a64f97c779c8",
        "X/TDP": "d5102235ca6cec0be0ccc89f004584cb7f9848296284e2145457e7d941cb128c",
        "X/PCDP": "0c8d29a81b424b9d8794a3589b09d5a50e232b270d2c928d487b6320db3343ee",
        "X/NDDP": "3b306b9085dea2099ad07d65882bafc85d7c38124c9d27746eeb27ec4f895f79",
        "X/NIDP": "03a3a709b265c0268eb38028371e7dabb24dd30a3529b6ef123452e03e33d526",
        "X/PDP": "e0c5742379b71b88f2942968cc949528947f0dd57ba7213e0391cd2666faa666",
        "M/ICE": "5dc93a773d45f25a11c9b75d7a1bd82efd3a1aeef11083fca36d2403b91c8c63",
        "M/TDP": "cfcf7f914132dfb1b9b5d10e6a88b4ad774562b3154c5e7ea76e0da527107676",
        "M/PCDP": "ad929c42c60d841f0519f379b22f317576d2fa7007874d66a126687dfc369bdd",
        "M/NDDP": "c2928652a3eae5ca9085ba44316eefda1f7c6408a4e014cacf1f9154d3171184",
        "M/NIDP": "d8c56bf33ac2ffa716fba896e57eced0e0e24bd1b7492114be1de8704cd9a482",
        "M/PDP": "378f9b3f76f6b048b146b8e34b69542a0718599c1c51ae19b8d996bc0ff6392f",
        "Y/ICE": "dbca80e334f063ae661c9f2108a4f9cc5c2758fe47c8c266b1483d1fadc38425",
        "Y/TDP": "8422f33a6f7dba4830530f8e7383b19b8b66f4511d4fba5e33229ebac16a2515",
        "Y/PCDP": "8e393d4d6c81e02efc68792ef33b519198221031c6f928e6e57b30b4a60995fe",
        "Y/NDDP": "86468b668324a0fcbb6353982d01a261c5c1920a9afd9cc4c5d272fa27792fe3",
        "Y/NIDP": "385e1b247a812402705245b65525b62b3b83688ab881334d0e3140be601944e8",
        "Y/PDP": "d71fc7c92c005729bf4702b6ccb79faaaaf6d0ed6293a636d0329d80fbdf446b",
    },
    "salary": {
        "P/ICE": "0bb1fe6541e532695c9e5d423f9cac7293d7cd52a6d7d92eb4ab33a99d64ec82",
        "P/TDP": "0e86d6672387a092d902515488a1e7aed4a47abad757b047d32c759c85508257",
        "P/PCDP": "5322b8dda6c9d1bd52b1d67e9bb3bc3e8372c7195b1fa47193eeb960f586bed6",
        "P/NDDP": "707f7d569cd1275c6d7ae8718e6ad4a3dd0ceee3c99cdb2a657cb659f1b98625",
        "P/NIDP": "67eea2cb1707a5ffa60a95309bf4afa164c51959efdbdf3087644e8434205509",
        "P/PDP": "d7efa1c3d0cb4f97aa68413a47be5ae9fe572957d8348b29ffefb9c4d693e2fb",
        "F/ICE": "a513496da478d456aa42c5b8a9a61c785365eb25abb538946181e0bc565b112a",
        "F/TDP": "ad455dc98f79b1b0d40b7c39e4acbba144354e224a0e935d41019a1c95ec73c8",
        "F/PCDP": "f89ddcbaa90ca60af39ae16c14b22d31d419051d6796caa959b276a5ac50681e",
        "F/NDDP": "c60e8945f048c92e80fb7c4a84835286b30ca19a3691d50ce42d3e96c386d42a",
        "F/NIDP": "99fe2fa0aa9e215bee92c88cd5dd7e9e41c29ba553a2b65ab61d8f734adf7161",
        "F/PDP": "3fbe27815f02ab5ecf4a84cdfddf73dc7c7971288f9ccf5a3a4dcfda805bb24d",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_curve_csv_bytes_are_unchanged(case):
    got = _digests(case)
    changed = sorted(k for k in GOLDEN[case] if got.get(k) != GOLDEN[case][k])
    assert sorted(got) == sorted(GOLDEN[case])
    assert not changed, f"curve CSV bytes changed for {case}: {changed}"
