"""Structure learning: independence tests, skeleton, orientation, ANM fit."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdplot.cli import main, write_dataset_csv
from cdplot.discovery import (
    Cpdag,
    Dag,
    DiscoveryError,
    DiscoverySettings,
    SepsetTable,
    Skeleton,
    cpdag_to_text,
    enumerate_dags,
    fisher_z_test,
    fit_anm,
    learn_cpdag,
    orient_cpdag,
    pc_skeleton,
    select,
)
from cdplot.errors import DataError
from cdplot.expr import evaluate
from cdplot.scm import Dataset, abduct, sample


def _dataset(**columns):
    names = tuple(columns)
    return Dataset(names, np.column_stack([np.asarray(columns[n], float) for n in names]))


def _chain(seed, n=5000):
    # X -> M -> Y, unit coefficients, noise sd 0.5
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    m = x + 0.5 * rng.normal(size=n)
    y = m + 0.5 * rng.normal(size=n)
    return _dataset(X=x, M=m, Y=y)


def _collider(seed, n=5000):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    z = x + y + 0.5 * rng.normal(size=n)
    return _dataset(X=x, Y=y, Z=z)


# --- fisher z --------------------------------------------------------------


def test_zero_correlation_gives_zero_statistic():
    data = _dataset(
        a=np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
        b=np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]),
    )
    statistic, independent = fisher_z_test(data, "a", "b", (), alpha=0.5)
    assert statistic == 0.0
    assert independent


def test_chain_conditional_independence_monte_carlo():
    hits = 0
    for seed in range(50):
        data = _chain(seed)
        _, indep_given_m = fisher_z_test(data, "X", "Y", ("M",), alpha=0.05)
        _, indep_marginal = fisher_z_test(data, "X", "Y", (), alpha=0.05)
        if indep_given_m and not indep_marginal:
            hits += 1
    assert hits >= 45


def test_statistic_symmetric_in_pair():
    data = _chain(3)
    s1, _ = fisher_z_test(data, "X", "M", ("Y",), alpha=0.05)
    s2, _ = fisher_z_test(data, "M", "X", ("Y",), alpha=0.05)
    assert s1 == s2


def test_fisher_z_input_validation():
    data = _chain(0, n=100)
    with pytest.raises(DiscoveryError):
        fisher_z_test(data, "X", "X", (), alpha=0.05)
    with pytest.raises(DiscoveryError):
        fisher_z_test(data, "X", "M", (), alpha=1.5)
    tiny = _dataset(X=np.arange(4.0), M=np.arange(4.0) ** 2, Y=np.arange(4.0) ** 3)
    with pytest.raises(DiscoveryError, match="rows"):
        fisher_z_test(tiny, "X", "Y", ("M",), alpha=0.05)


def _fisher_z_reference(data, i, j, conditioning):
    """The statistic from a fresh np.corrcoef of the tested columns only."""
    names = tuple(sorted((i, j))) + tuple(conditioning)
    corr = np.corrcoef(np.column_stack([data.column(n) for n in names]), rowvar=False)
    if conditioning:
        precision = np.linalg.inv(corr)
        r = -precision[0, 1] / np.sqrt(precision[0, 0] * precision[1, 1])
    else:
        r = corr[0, 1]
    return np.sqrt(data.m - len(conditioning) - 3) * abs(np.arctanh(r))


def test_fisher_z_matches_a_per_subset_correlation():
    rng = np.random.default_rng(11)
    mixed = rng.normal(size=(500, 5)) @ rng.normal(size=(5, 5))
    data = Dataset(("A", "B", "C", "D", "E"), mixed)
    for i, j in itertools.combinations(data.columns, 2):
        rest = [v for v in data.columns if v not in (i, j)]
        for size in range(4):
            for conditioning in itertools.combinations(rest, size):
                statistic, _ = fisher_z_test(data, i, j, conditioning)
                expected = _fisher_z_reference(data, i, j, conditioning)
                assert statistic == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_fisher_z_constant_column_fails_only_the_tests_using_it():
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    data = _dataset(X=x, Y=x + rng.normal(size=200), C=np.full(200, 2.0))
    _, independent = fisher_z_test(data, "X", "Y", (), alpha=0.05)
    assert not independent
    with pytest.raises(DiscoveryError, match="constant column among X, Y, C"):
        fisher_z_test(data, "X", "Y", ("C",), alpha=0.05)
    with pytest.raises(DiscoveryError, match="constant column among C, X"):
        fisher_z_test(data, "X", "C", (), alpha=0.05)


def test_fisher_z_perfect_correlation_is_dependent():
    x = np.linspace(0, 1, 50)
    data = _dataset(a=x, b=2 * x + 0.0)
    statistic, independent = fisher_z_test(data, "a", "b", (), alpha=0.05)
    assert statistic == np.inf
    assert not independent


# --- skeleton --------------------------------------------------------------


def test_independent_pair_yields_empty_skeleton():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = _dataset(A=rng.normal(size=5000), B=rng.normal(size=5000))
        skeleton, _ = pc_skeleton(data, alpha=0.05, max_cond=3)
        if not skeleton.edges:
            hits += 1
    assert hits >= 45


def test_chain_skeleton_monte_carlo():
    hits = 0
    for seed in range(50):
        skeleton, _ = pc_skeleton(_chain(seed), alpha=0.05, max_cond=3)
        if skeleton.edges == frozenset({("M", "X"), ("M", "Y")}):
            hits += 1
    assert hits >= 45


def test_max_cond_zero_uses_marginal_tests_only():
    # X and Y in a chain are marginally dependent, so without
    # conditioning the X-Y edge survives
    skeleton, _ = pc_skeleton(_chain(1), alpha=0.05, max_cond=0)
    assert ("X", "Y") in skeleton.edges


def test_column_permutation_invariance():
    data = _chain(7)
    permuted = Dataset(
        ("Y", "X", "M"),
        np.column_stack([data.column("Y"), data.column("X"), data.column("M")]),
    )
    a, _ = pc_skeleton(data, alpha=0.05, max_cond=3)
    b, _ = pc_skeleton(permuted, alpha=0.05, max_cond=3)
    assert a.edges == b.edges


def test_sepsets_recorded_for_removed_edges():
    skeleton, sepsets = pc_skeleton(_chain(2), alpha=0.05, max_cond=3)
    if ("X", "Y") not in skeleton.edges:
        assert sepsets.get("X", "Y") == ("M",)


# --- orientation -----------------------------------------------------------


def test_collider_is_oriented_monte_carlo():
    hits = 0
    for seed in range(50):
        skeleton, sepsets = pc_skeleton(_collider(seed), alpha=0.05, max_cond=3)
        cpdag = orient_cpdag(skeleton, sepsets)
        if {("X", "Z"), ("Y", "Z")} <= set(cpdag.directed):
            hits += 1
    assert hits >= 45


def test_chain_stays_undirected():
    hits = 0
    for seed in range(50):
        skeleton, sepsets = pc_skeleton(_chain(seed), alpha=0.05, max_cond=3)
        cpdag = orient_cpdag(skeleton, sepsets)
        if (
            cpdag.undirected == frozenset({("M", "X"), ("M", "Y")})
            and not cpdag.directed
        ):
            hits += 1
    assert hits >= 45


def test_empty_skeleton_empty_cpdag():
    skeleton = Skeleton(("A", "B"), frozenset())
    cpdag = orient_cpdag(skeleton, SepsetTable())
    assert not cpdag.directed and not cpdag.undirected


def test_meek_rule_one_propagates():
    # collider A -> B <- C plus B - D: rule 1 orients B -> D because
    # a D -> B orientation would create a new collider
    skeleton = Skeleton(
        ("A", "B", "C", "D"),
        frozenset({("A", "B"), ("B", "C"), ("B", "D")}),
    )
    sepsets = SepsetTable()
    sepsets.record("A", "C", ())
    sepsets.record("A", "D", ("B",))
    sepsets.record("C", "D", ("B",))
    cpdag = orient_cpdag(skeleton, sepsets)
    assert ("A", "B") in cpdag.directed
    assert ("C", "B") in cpdag.directed
    assert ("B", "D") in cpdag.directed


def test_shielded_triple_stays_undirected():
    # a complete triangle has no unshielded triple, so nothing orients
    cpdag = orient_cpdag(
        Skeleton(("A", "B", "C"), frozenset({("A", "B"), ("B", "C"), ("A", "C")})),
        SepsetTable(),
    )
    assert not cpdag.directed
    assert len(cpdag.undirected) == 3


def test_meek_rule_two_closes_triangle():
    # collider A -> B <- F, then rule 1 gives B -> C, then rule 2 must
    # close the A - C edge as A -> C to avoid the cycle
    skeleton = Skeleton(
        ("A", "B", "C", "F"),
        frozenset({("A", "B"), ("B", "F"), ("B", "C"), ("A", "C")}),
    )
    sepsets = SepsetTable()
    sepsets.record("A", "F", ())
    sepsets.record("C", "F", ("B",))
    cpdag = orient_cpdag(skeleton, sepsets)
    assert ("A", "B") in cpdag.directed
    assert ("F", "B") in cpdag.directed
    assert ("B", "C") in cpdag.directed
    assert ("A", "C") in cpdag.directed
    assert not cpdag.undirected


def test_meek_rule_three_orients_hub():
    # H - C1 -> T and H - C2 -> T with C1, C2 non-adjacent force H -> T
    skeleton = Skeleton(
        ("C1", "C2", "H", "T"),
        frozenset(
            {("C1", "H"), ("C2", "H"), ("H", "T"), ("C1", "T"), ("C2", "T")}
        ),
    )
    sepsets = SepsetTable()
    sepsets.record("C1", "C2", ("H",))
    cpdag = orient_cpdag(skeleton, sepsets)
    assert ("C1", "T") in cpdag.directed
    assert ("C2", "T") in cpdag.directed
    assert ("H", "T") in cpdag.directed
    assert cpdag.undirected == frozenset({("C1", "H"), ("C2", "H")})


def test_conflicting_votes_leave_edge_undirected(caplog):
    # two triples push B - C in opposite directions; the edge must
    # survive undirected with the conflict logged, and the uncontested
    # arms still orient
    skeleton = Skeleton(
        ("B", "C", "D", "E"),
        frozenset({("B", "C"), ("C", "D"), ("B", "E")}),
    )
    sepsets = SepsetTable()
    sepsets.record("B", "D", ())
    sepsets.record("C", "E", ())
    with caplog.at_level("WARNING", logger="cdplot.discovery"):
        cpdag = orient_cpdag(skeleton, sepsets)
    assert ("B", "C") in cpdag.undirected
    assert ("D", "C") in cpdag.directed
    assert ("E", "B") in cpdag.directed
    collider_conflicts = [
        r for r in caplog.records if "conflicting collider" in r.getMessage()
    ]
    assert len(collider_conflicts) == 1  # once per edge, not per direction
    # both arms then push B - C by rule 1, so propagation contests it too
    assert cpdag.conflicts == (("B", "C"),)
    assert cpdag.contested == (("B", "C"),)


def _random_linear_gaussian(seed, k=12, p=0.2, n=3000):
    rng = np.random.default_rng(seed)
    adjacency = np.triu(rng.random((k, k)) < p, 1)
    weights = adjacency * rng.uniform(0.5, 1.5, (k, k)) * rng.choice([-1, 1], (k, k))
    values = np.zeros((n, k))
    for j in range(k):
        values[:, j] = values @ weights[:, j] + rng.normal(size=n)
    return Dataset(tuple(f"V{j:02d}" for j in range(k)), values)


@pytest.mark.parametrize("seed, candidates", [(20, 0), (24, 2)])
def test_propagation_never_closes_a_cycle(caplog, seed, candidates):
    # conflicting collider votes in finite samples once let the
    # propagation rules close a directed cycle here, and orient_cpdag
    # raised instead of returning
    skeleton, sepsets = pc_skeleton(_random_linear_gaussian(seed), 0.05, 3)
    with caplog.at_level("WARNING", logger="cdplot.discovery"):
        cpdag = orient_cpdag(skeleton, sepsets)
    guarded = [
        r.getMessage()
        for r in caplog.records
        if "would close a directed cycle" in r.getMessage()
    ]
    assert guarded and len(guarded) == len(set(guarded))
    assert len(enumerate_dags(cpdag).dags) == candidates
    # the records name exactly the edges the warnings name
    logged = {"conflicting collider": set(), "propagation conflict": set(),
              "would close": set()}
    for record in caplog.records:
        message = record.getMessage()
        for key, edges in logged.items():
            if key in message:
                names = re.findall(r"V\d\d", message)
                edges.add(tuple(sorted(names)))
    assert cpdag.conflicts == tuple(sorted(logged["conflicting collider"]))
    assert cpdag.contested == tuple(
        sorted(logged["propagation conflict"] | logged["would close"])
    )


def test_cpdag_text_lists_each_edge():
    cpdag = Cpdag(
        ("A", "B", "C"),
        frozenset({("A", "B")}),
        frozenset({("B", "C")}),
    )
    assert cpdag_to_text(cpdag).splitlines() == ["A -> B", "B -- C"]


# --- enumeration -----------------------------------------------------------


def test_fully_directed_cpdag_enumerates_to_itself():
    cpdag = Cpdag(("A", "B"), frozenset({("A", "B")}), frozenset())
    result = enumerate_dags(cpdag, cap=10)
    assert len(result.dags) == 1
    assert result.dags[0].edges == frozenset({("A", "B")})
    assert not result.truncated


def test_single_undirected_edge_gives_two_dags():
    cpdag = Cpdag(("A", "B"), frozenset(), frozenset({("A", "B")}))
    result = enumerate_dags(cpdag, cap=10)
    edge_sets = {dag.edges for dag in result.dags}
    assert edge_sets == {frozenset({("A", "B")}), frozenset({("B", "A")})}


def test_breast_cancer_graph_gives_two_orientations():
    # the learned graph: directed edges into Class plus MargAdhesion ->
    # CellShape, with CellSize - CellShape left undirected
    cpdag = Cpdag(
        (
            "CellSize",
            "CellShape",
            "Class",
            "MargAdhesion",
            "NormNucleoli",
            "ClumpThickness",
        ),
        frozenset(
            {
                ("CellSize", "Class"),
                ("ClumpThickness", "Class"),
                ("MargAdhesion", "CellShape"),
                ("CellShape", "Class"),
                ("NormNucleoli", "Class"),
                ("MargAdhesion", "Class"),
            }
        ),
        frozenset({("CellShape", "CellSize")}),
    )
    result = enumerate_dags(cpdag, cap=10)
    assert len(result.dags) == 2
    oriented = {
        ("CellShape", "CellSize") in dag.edges or ("CellSize", "CellShape") in dag.edges
        for dag in result.dags
    }
    assert oriented == {True}
    directions = {
        ("CellShape", "CellSize") if ("CellShape", "CellSize") in dag.edges else ("CellSize", "CellShape")
        for dag in result.dags
    }
    assert directions == {("CellShape", "CellSize"), ("CellSize", "CellShape")}


def test_enumeration_respects_cap():
    variables = ("A", "B", "C", "D")
    undirected = frozenset({("A", "B"), ("A", "C"), ("A", "D")})
    cpdag = Cpdag(variables, frozenset(), undirected)
    result = enumerate_dags(cpdag, cap=3)
    assert len(result.dags) == 3
    assert result.truncated


def test_enumerated_dags_keep_skeleton_and_old_v_structures():
    def skeleton_of(edges):
        return {tuple(sorted(e)) for e in edges}

    def v_structures(edges):
        edge_set = set(edges)
        adjacent = skeleton_of(edges)
        out = set()
        for a, b in edge_set:
            for c, d in edge_set:
                if d == b and c != a and tuple(sorted((a, c))) not in adjacent:
                    out.add((min(a, c), b, max(a, c)))
        return out

    cpdag = Cpdag(
        ("A", "B", "C", "D", "E"),
        frozenset({("A", "B"), ("C", "B")}),
        frozenset({("B", "D"), ("D", "E")}),
    )
    result = enumerate_dags(cpdag, cap=64)
    assert result.dags
    base_v = v_structures(cpdag.directed)
    want_skeleton = skeleton_of(cpdag.directed) | set(cpdag.undirected)
    for dag in result.dags:
        assert skeleton_of(dag.edges) == want_skeleton
        assert base_v <= v_structures(dag.edges)


def _scan_dags(cpdag, cap):
    """Reference enumeration: every one of the 2^k orientations, in
    lexicographic order of the orientation vector."""
    undirected = sorted(cpdag.undirected)
    adjacent = {v: set() for v in cpdag.variables}
    for a, b in set(cpdag.directed) | set(undirected):
        adjacent[a].add(b)
        adjacent[b].add(a)
    k = len(undirected)
    dags = []
    for bits in range(2**k):
        oriented = {
            (b, a) if (bits >> (k - 1 - position)) & 1 else (a, b)
            for position, (a, b) in enumerate(undirected)
        }
        try:
            dag = Dag(cpdag.variables, frozenset(set(cpdag.directed) | oriented))
        except DiscoveryError:  # a directed cycle
            continue
        parents = {}
        for a, b in oriented:
            parents.setdefault(b, []).append(a)
        if any(
            q not in adjacent[p]
            for group in parents.values()
            for p, q in itertools.combinations(group, 2)
        ):
            continue
        if len(dags) == cap:
            return dags, True
        dags.append(dag)
    return dags, False


@st.composite
def _small_cpdags(draw):
    n = draw(st.integers(2, 5))
    # the directed edges follow a random order, so the directed part is
    # acyclic but need not follow the names
    order = draw(st.permutations([f"V{i}" for i in range(n)]))
    directed, undirected = set(), set()
    for a, b in itertools.combinations(order, 2):
        kind = draw(st.sampled_from(["none", "undirected", "undirected", "directed"]))
        if kind == "directed":
            directed.add((a, b))
        elif kind == "undirected":
            undirected.add((min(a, b), max(a, b)))
    return Cpdag(tuple(sorted(order)), frozenset(directed), frozenset(undirected))


@settings(max_examples=150, deadline=None)
@given(cpdag=_small_cpdags(), extra=st.integers(1, 40))
def test_enumeration_matches_the_full_scan(cpdag, extra):
    total = len(_scan_dags(cpdag, 2 ** len(cpdag.undirected))[0])
    for cap in sorted({1, 2, total - 1, total, total + 1, extra} - {-1, 0}):
        want_dags, want_truncated = _scan_dags(cpdag, cap)
        result = enumerate_dags(cpdag, cap)
        assert [dag.edges for dag in result.dags] == [dag.edges for dag in want_dags]
        assert result.truncated == want_truncated


def test_enumeration_work_follows_the_cap(deadline):
    # 2^40 orientations of a 40-edge chain; only 41 are collider-free,
    # one per choice of the single source
    names = tuple(f"X{i:02d}" for i in range(41))
    chain = Cpdag(names, frozenset(), frozenset(zip(names, names[1:])))
    with deadline(10):
        result = enumerate_dags(chain, cap=3)
    assert result.truncated
    sources = [
        {v for v in names if not dag.parents(v)} for dag in result.dags
    ]
    assert sources == [{"X00"}, {"X01"}, {"X02"}]


# --- anm fitting -----------------------------------------------------------


def test_fit_anm_exact_linear_mechanism():
    x = np.linspace(-2, 2, 100)
    data = _dataset(x=x, y=2 * x)
    scm = fit_anm(Dag(("x", "y"), frozenset({("x", "y")})), data, degree=1)
    mech = scm.mechanisms["y"]
    assert mech.parents == ("x",)
    assert abs(evaluate(mech.expression, {"x": 3.0}) - 6.0) < 1e-6
    assert mech.noise.p2 < 1e-6  # residual sd


def test_fit_anm_abduction_returns_residuals():
    rng = np.random.default_rng(4)
    x = rng.normal(size=400)
    y = 1.5 * x - 0.5 * x**2 + 0.3 * rng.normal(size=400)
    data = _dataset(x=x, y=y)
    dag = Dag(("x", "y"), frozenset({("x", "y")}))
    scm = fit_anm(dag, data, degree=2)
    noise = abduct(scm, data)
    design = np.column_stack([np.ones_like(x), x, x**2])
    beta = np.linalg.solve(design.T @ design, design.T @ y)
    residuals = y - design @ beta
    assert np.max(np.abs(noise["y"] - residuals)) < 1e-9


def test_fit_anm_salary_cubic_coefficient():
    rng = np.random.default_rng(123)
    p = rng.uniform(0, 1.5, size=5000)
    f = 2 * p**3 + 0.2 * rng.normal(size=5000)
    data = _dataset(P=p, F=f)
    scm = fit_anm(Dag(("P", "F"), frozenset({("P", "F")})), data, degree=3)
    expression = scm.mechanisms["F"].expression
    # third difference of a cubic recovers 6 * leading coefficient
    values = [evaluate(expression, {"P": t}) for t in (0.0, 1.0, 2.0, 3.0)]
    lead = (values[3] - 3 * values[2] + 3 * values[1] - values[0]) / 6.0
    assert abs(lead - 2.0) < 0.1


def test_fit_anm_root_distribution():
    rng = np.random.default_rng(9)
    x = rng.normal(3.0, 2.0, size=2000)
    data = _dataset(x=x)
    scm = fit_anm(Dag(("x",), frozenset()), data, degree=1)
    noise = scm.mechanisms["x"].noise
    assert noise.kind == "normal"
    assert abs(noise.p1 - x.mean()) < 1e-12
    assert abs(noise.p2 - x.std(ddof=1)) < 1e-12


def test_fit_anm_round_trip_recovers_coefficients():
    rng = np.random.default_rng(31)
    x = rng.normal(size=20000)
    y = 1.0 + 2.0 * x + 0.5 * rng.normal(size=20000)
    scm = fit_anm(
        Dag(("x", "y"), frozenset({("x", "y")})), _dataset(x=x, y=y), degree=1
    )
    resampled, _ = sample(scm, 20000, seed=77)
    refit = fit_anm(Dag(("x", "y"), frozenset({("x", "y")})), resampled, degree=1)
    slope = evaluate(refit.mechanisms["y"].expression, {"x": 1.0}) - evaluate(
        refit.mechanisms["y"].expression, {"x": 0.0}
    )
    assert abs(slope - 2.0) / 2.0 < 0.1


# --- selection -------------------------------------------------------------


def test_select_keeps_the_first_candidate_without_the_targets():
    scm, record = select(DiscoverySettings(degree=1), _chain(0), {"Y"})
    assert record == {
        "cpdag": ["M -- X", "M -- Y"],
        "chosen_dag": ["M -> X", "M -> Y"],
        "collider_conflicts": [],
        "contested": [],
        "candidates": 3,
        "truncated": False,
    }
    assert scm.variables == ("X", "M")
    assert scm.mechanisms["X"].parents == ("M",)
    assert scm.mechanisms["M"].parents == ()


def test_a_discovery_variable_missing_from_the_data_is_a_data_error(tmp_path, capsys):
    message = "discovery variable 'Q' missing from the data"
    with pytest.raises(DataError, match=f"^{message}$"):
        learn_cpdag(DiscoverySettings(variables=("X", "Q")), _chain(0))
    data = tmp_path / "d.csv"
    data.write_text(write_dataset_csv(_chain(0, n=200)), encoding="utf-8")
    assert main(["discover", "--data", str(data), "--variables", "X,Q"]) == 3
    assert capsys.readouterr().err == f"error (data): {message}\n"


def test_a_graph_without_an_acyclic_candidate_is_a_compute_error(tmp_path, capsys):
    # seed 20's collider conflicts leave no acyclic orientation (see
    # test_propagation_never_closes_a_cycle)
    data = _random_linear_gaussian(20)
    message = "no acyclic orientation of the discovered graph"
    with pytest.raises(DiscoveryError, match=f"^{message}$"):
        select(DiscoverySettings(), data, set())
    (tmp_path / "d.csv").write_text(write_dataset_csv(data), encoding="utf-8")
    config = {
        "discovery": {},
        "data": "d.csv",
        "predictor": {"kind": "ols", "target": "V11"},
        "variables": ["V00"],
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "run.json")]) == 4
    assert capsys.readouterr().err == f"error (compute): {message}\n"
    assert not (tmp_path / "out").exists()
