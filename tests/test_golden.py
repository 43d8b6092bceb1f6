"""Byte-level regression check of the curve engine and the writers.

For three models and all six plot kinds, the sha256 of the exported
curve CSV must match a recorded digest. The CSV keeps 17 significant
digits, so any change to a curve value, however small, changes a
digest. The third model is an additive-noise model fitted to simulated
data, whose recomputed non-root variables differ from the data by an
ulp for some units; it pins down how counterfactual worlds treat
variables that are not descendants of the explained one.

The SVG of every one of those curve sets, and the CSV and SVG of a
two-model uncertainty band, are pinned the same way.
"""

import dataclasses
import hashlib
from importlib import resources
from pathlib import Path

import pytest

from cdplot.cli import load_scm_spec
from cdplot.discovery import Dag, fit_anm
from cdplot.engine import (
    band_kinds,
    build_ecm,
    ice,
    make_grid,
    nddp,
    nidp,
    pcdp,
    tdp,
    uncertainty_band,
)
from cdplot.expr import parse
from cdplot.predictors import ClosedFormPredictor, fit_ols
from cdplot.render import export_band_csv, export_csv, render_band, render_curves
from cdplot.scm import Mechanism, NoiseSpec, build_scm, sample

FIXTURES = Path(str(resources.files("cdplot").joinpath("fixtures")))


def _salary():
    scm = load_scm_spec(FIXTURES / "salary.scm")
    data, _ = sample(scm, 200, seed=7)
    predictor = fit_ols(data, "S", ("P", "F"), degree=3)
    controls = {"P": {"F": 1.0}, "F": {}}
    return scm, data, predictor, controls


def _mediation():
    scm = load_scm_spec(FIXTURES / "mediation.scm")
    data, _ = sample(scm, 100, seed=3)
    predictor = ClosedFormPredictor("M^2 - 0.5*X^2 + 0.25*Y", ("X", "M", "Y"))
    controls = {
        "X": {"M": 0.0},
        "M": {"X": 0.5},
        "Y": {"M": 0.0},
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
    controls = {"B": {"D": 0.5}, "C": {"A": 0.0}}
    return scm, data, predictor, controls


CASES = {"salary": _salary, "mediation": _mediation, "chain_anm": _chain_anm}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(case: str, writer=export_csv) -> dict[str, str]:
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
            out[f"{var}/{kind}"] = _sha256(writer(curve_set))
    return out


def _band_digests() -> dict[str, str]:
    scm, data, predictor, _ = _salary()
    independent = load_scm_spec(FIXTURES / "salary_independent.scm")
    ecms = [build_ecm(scm, predictor), build_ecm(independent, predictor)]
    out = {}
    for var in ("P", "F"):
        grid = make_grid(data, var)
        for kind in band_kinds():
            band = uncertainty_band(ecms, data, var, grid, kind)
            out[f"{var}/{kind}/csv"] = _sha256(export_band_csv(band))
            out[f"{var}/{kind}/svg"] = _sha256(render_band(band))
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


GOLDEN_SVG = {
    "chain_anm": {
        "B/ICE": "8069beff2a36f3700032129da0e4722f12f5f34a69c581825be758af452e9b8b",
        "B/TDP": "511ab9c0d992de22720459691d52b95b833341531e79d784ed3d13eb685a3858",
        "B/PCDP": "32b0986684d1fbc36fcf432deb1169f4b5b61debdd8fcc81ecaa1ad67217078c",
        "B/NDDP": "a3dc56cd9eb15684108fef90a626fa992f6702866e0733955de720493fa69fc6",
        "B/NIDP": "31ade2135a1091df1b239183ce5c74ee20c770f3e26572e3d9e4e164c00f5129",
        "B/PDP": "1591dc80e3d446a4bad7e5b399e479ecc90162cc22b3044769297ad12a2dc8b8",
        "C/ICE": "5c1b8bd2176edd1edf7568b9d62082e3dd2bce521d5f20fb9bcdae726e12c914",
        "C/TDP": "4c348678c39ec545137eb49d8fdd7c95eba640a1ffe6773c932d0405533db619",
        "C/PCDP": "36f4a9dc41527618e7ec016736ac6885702532b17c35b9a9a26ef5d5f0fb921c",
        "C/NDDP": "edb5dc483992defad046040d4c713deed58705dcad2c8ad2bad77017a533337e",
        "C/NIDP": "1e68769c472d1b787190477b3006e78761b584a9fa8231458277360d1a5bae3d",
        "C/PDP": "97d26c43468b63a6a4eb4a27f26bd742739b3fd81dd5ed4468f8fa1326ba20cc",
    },
    "mediation": {
        "X/ICE": "14237eca5c2aea6b32f994226c4348c6db333bfb9a924890e2d67ae7ba6d5a24",
        "X/TDP": "00e65f25c48b9f514d1ba08f2e778cba23935dca4915c25be6eb7b6c069f45da",
        "X/PCDP": "b99b42feb98407f3954bf51bc9b46dc134d35bc72e58d873fdc32743744c375b",
        "X/NDDP": "d31a6d23481533344c7032a4259e49d1ce3c4b042cf4db0f7f9195a1946a58b7",
        "X/NIDP": "a8c5d188139823aee374ecf4480b384da7d8bd5d8e7624f9e74a7ee5fdd070af",
        "X/PDP": "9195b66ce659e3f755dd44d0074aedc83dec61a261a0f2276d5920264453fb06",
        "M/ICE": "3e9e80cd3e0e8329c4f2bb14cc79c15aa98efa4ecf29e0951a4f1f824754c344",
        "M/TDP": "2a17e83a8560d20ab7606106ec4d4ca5203c06f8da75f85bd5532267063d5f9f",
        "M/PCDP": "df0b0364f5c48e7d30c39ce17a24a351fba7c016ac180c1721bb020423ad42c4",
        "M/NDDP": "650a1275060aefc74b5ea7fc4ea10280acd6ed7ab3c71892494438ab0ee45433",
        "M/NIDP": "a0cda00142ccefebea7bcea33472a73a1513104cd94308ed1af07f81c4136261",
        "M/PDP": "854fdeb64927c1bfc2f38617decb6301531e85d0d59e0bb2a702a645d7e7abdd",
        "Y/ICE": "77b2a3de8359df027c1d88c178b73e7ce61045b92fda167e1712814a680604a4",
        "Y/TDP": "4396f7f9caa914a9e8d7a4ed72fbd04f2b140ee6d351202134405dab4fb22e7e",
        "Y/PCDP": "2e36375bb91523cc18320ac2c03b50085fdae22107f49d73ed88c65be48091c8",
        "Y/NDDP": "1017efc1235fd6eda1d5312c41dbbbbc4d291fd39dee2778006ce2c13a861a3b",
        "Y/NIDP": "1a110fa7d6b4f7df09aec42c34dbfa39533d34d4e997ce9982050a5d61b7bba4",
        "Y/PDP": "4caaf911433ff40683f8975e80cc2ab473044e31ec682fd3b1dd58a884d6620c",
    },
    "salary": {
        "P/ICE": "38d8e9f57dacab7d15f0ca365c9759b12eb09fab03188ef6653589b3a8e303b1",
        "P/TDP": "cb76aefdc104af28c35f7e52b9370af93956e2a202d715a338139d3f6da4d05f",
        "P/PCDP": "f8a12e86e7991115d438647e42779cdc7f2217e08ebfb510186bea1175b114d7",
        "P/NDDP": "e11e3fbe3074e95ea9ac41269d39fd2b1a748675314d221fe685fd148617c42f",
        "P/NIDP": "c13d0f52276d28efa4576a31c71b89177380107772de9c6a25c01c46febbc9be",
        "P/PDP": "838436c9e0e3339e36c5f8794abfcab8435e74b3f76516cf227b3227d5bcb166",
        "F/ICE": "e76791c042ead92d916aa69d6a9b83faefc58bdd97c7972f87193ed238345b41",
        "F/TDP": "e3c081f6ea5144b29cdbf47cb4b92db66274aba697fcca7b4b8e286314b88ab6",
        "F/PCDP": "2d251bf1304918754feb580c78d865ed31a37ca9b4142e8b492f093136757a7f",
        "F/NDDP": "3463db0a02265649662a8d6c48577e196d37bf9f9a72fc72ab428275dc159d40",
        "F/NIDP": "dcc21ce3a32878555d14ce05e0cdf83b77455421c282eb6379981c2b7094e584",
        "F/PDP": "ce1ff9b7b79d5364799302faab2fe85c9b4d506d694738c631deafa666b10d9c",
    },
}

GOLDEN_BAND = {
    "P/TDP/csv": "a1e1633137cc9ab98634ead8707dd787989f854a7a00063eccc066f883dac3c4",
    "P/TDP/svg": "9ae727b137aba8969561cb72e1ce4bd9835c23e9c5479cc616ca95075c03541e",
    "P/NDDP/csv": "023e3352e8945293e2504e05d45e3d87a7e9fe9f42f64da91857bf94d7295343",
    "P/NDDP/svg": "d4b2a6b594c684ece612d467340ec2644a3b1b5da6724c6da420130ee649fdac",
    "P/NIDP/csv": "b8ab3a68dcf8f6a8993b3e4dca238c3d83678d243f8de6390177e04d4e758860",
    "P/NIDP/svg": "6b95ebc434bab06f0b18133c1adffb30bacd528f33a46f17e0d22d41a0b5a164",
    "F/TDP/csv": "ed043a94503de508ad46c9ecfe74c720f18ffef2ae3cb7771c77115d1abc5232",
    "F/TDP/svg": "8ae033714dc235e64fd41a60d0f258d050e71b108d604f35feb8332bbfe0854e",
    "F/NDDP/csv": "305d7d1fc720d6083a8f96387a990f22cff7ffd6b412971818408094a36868b7",
    "F/NDDP/svg": "0d0c8803c8bfa344e6410419404d64f30860a372f93cd7a4d5192a053c80a247",
    "F/NIDP/csv": "8e1d0015d8fcfce799a6eb0bab6419ffb95b9ebe9d68fd62eb6954da6642800c",
    "F/NIDP/svg": "86f6fd1517f423e0df5eeb3ea15941a096a28863b6af04049b8e464ec03ac910",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_curve_csv_bytes_are_unchanged(case):
    got = _digests(case)
    changed = sorted(k for k in GOLDEN[case] if got.get(k) != GOLDEN[case][k])
    assert sorted(got) == sorted(GOLDEN[case])
    assert not changed, f"curve CSV bytes changed for {case}: {changed}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_curve_svg_bytes_are_unchanged(case):
    got = _digests(case, render_curves)
    changed = sorted(k for k in GOLDEN_SVG[case] if got.get(k) != GOLDEN_SVG[case][k])
    assert sorted(got) == sorted(GOLDEN_SVG[case])
    assert not changed, f"curve SVG bytes changed for {case}: {changed}"


def test_band_csv_and_svg_bytes_are_unchanged():
    got = _band_digests()
    changed = sorted(k for k in GOLDEN_BAND if got.get(k) != GOLDEN_BAND[k])
    assert sorted(got) == sorted(GOLDEN_BAND)
    assert not changed, f"band bytes changed: {changed}"
