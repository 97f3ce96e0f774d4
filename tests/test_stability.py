import itertools
import logging

import numpy as np
import pytest

from oracles import oracle_stability_curves, sem_implied_covariance, stability_curve
from stablesearch import pipeline, search, stability
from stablesearch.errors import DegenerateData, SearchFailed, ShapeMismatch
from stablesearch.graphs import ConstraintMask, Dag, dag_to_cpdag, topological_order
from stablesearch.scoring import Dataset, FitResult, sample_covariance
from stablesearch.search import ParetoModel, SearchParams
from stablesearch.stability import (
    CAUSAL_PATH,
    EDGE,
    RelevantStructure,
    StabilityGraph,
    Thresholds,
    assemble_graph,
    collect_models,
    complete_dag_under,
    compute_pi_bic,
    relevant_structures,
    run_searches,
    stability_graphs,
    subsample,
    subsample_blocks,
)


def make_model(n, arcs, mask=None, bic=0.0, chi=1.0):
    mask = mask or ConstraintMask.empty(n)
    dag = Dag(n, frozenset(arcs))
    fit = FitResult(chi, len(dag.arcs), bic)
    return ParetoModel(dag, fit, dag_to_cpdag(dag, mask))


def chain_dataset(rng, rows=400):
    sigma = sem_implied_covariance(3, {(0, 1): 0.9, (1, 2): 0.8}, [1.0] * 3)
    vals = rng.standard_normal((rows, 3)) @ np.linalg.cholesky(sigma).T
    return Dataset(["X1", "X2", "X3"], vals)


def test_subsample_sizes_and_determinism():
    rng = np.random.default_rng(0)
    data = Dataset(["a", "b"], np.arange(366.0).reshape(183, 2))
    subsets = subsample(data, 5, rng)
    assert len(subsets) == 5
    assert all(s.n_rows == 91 for s in subsets)

    rows = {tuple(r) for r in data.values}
    for s in subsets:
        got = {tuple(r) for r in s.values}
        assert got <= rows
        # without replacement: all drawn rows are distinct
        assert len(got) == 91

    again = subsample(data, 5, np.random.default_rng(0))
    for x, y in zip(subsets, again):
        assert np.array_equal(x.values, y.values)


def test_subsample_rejects_too_small():
    data = Dataset(["a", "b", "c"], np.random.default_rng(2).random((8, 3)))
    # floor(8/2) = 4 < p + 2 = 5
    with pytest.raises(DegenerateData):
        subsample(data, 2, np.random.default_rng(0))


def random_dataset(rng, p, rows):
    """Rows of a random linear SEM on p variables, in causal order."""
    weights = np.triu(rng.uniform(-1, 1, (p, p)) * (rng.random((p, p)) < 0.3), 1)
    return Dataset([f"X{i + 1}" for i in range(p)],
                   rng.standard_normal((rows, p)) @ np.linalg.inv(np.eye(p) - weights))


# p=3 is solved exactly; p=10 is past search.EXACT_NODES, so evolve runs
@pytest.mark.parametrize("p", [3, 10])
def test_run_searches_deterministic_across_parallelism(p):
    rng = np.random.default_rng(3)
    data = chain_dataset(rng, rows=120) if p == 3 else random_dataset(rng, p, 120)
    subsets = subsample(data, 4, np.random.default_rng(7))
    mask = ConstraintMask.empty(p)
    params = SearchParams(generations=6, population_size=12, seed=11)

    serial = run_searches([(subsets, mask, params)])
    parallel = run_searches([(subsets, mask, params)], parallelism=2)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert a.index == b.index and not a.failed and not b.failed
        assert [m.dag.arcs for m in a.models] == [m.dag.arcs for m in b.models]
        assert [m.fit.chi_square for m in a.models] == [
            m.fit.chi_square for m in b.models
        ]


def test_one_pool_maps_an_exact_problem_and_an_evolve_problem_in_order():
    rng = np.random.default_rng(4)
    problems = []
    for p in (3, 10):  # solved exactly, then past search.EXACT_NODES
        data = chain_dataset(rng, rows=120) if p == 3 else random_dataset(rng, p, 120)
        params = SearchParams(generations=6, population_size=12, seed=p)
        subsets = subsample(data, 4, np.random.default_rng(p))
        problems.append((subsets, ConstraintMask.empty(p), params))

    serial = run_searches(problems)
    parallel = run_searches(problems, parallelism=2)
    assert [(r.index, r.models[0].dag.n_nodes) for r in parallel] == [
        (i, p) for p in (3, 10) for i in range(4)
    ]
    for a, b in zip(serial, parallel, strict=True):
        assert a.index == b.index and not a.failed and not b.failed
        assert [(m.dag.arcs, m.fit) for m in a.models] == [(m.dag.arcs, m.fit) for m in b.models]


def refuse(name):
    def call(*args):
        raise AssertionError(f"{name} must not run here")
    return call


# (nodes, forbidden arcs, exact): at the limit, 8 nodes take a parent from 7
# candidates each; one node past it, 9 nodes do; one candidate past it, 8
# nodes (all but the root 0) take a parent from 8 candidates
DISPATCH = {
    "at the limit": (8, [], True),
    "transition model of 4 variables": (8, [(a, b) for a in range(8) for b in range(4)], True),
    "one node past": (9, [(a, (a + 1) % 9) for a in range(9)], False),
    "one candidate past": (9, [(a, 0) for a in range(1, 9)], False),
}


@pytest.mark.parametrize("case", sorted(DISPATCH))
def test_search_dispatch_at_the_exact_front_limit(case, monkeypatch):
    p, arcs, exact = DISPATCH[case]
    mask = ConstraintMask.empty(p).with_forbidden(arcs)
    subsets = [random_dataset(np.random.default_rng(4), p, 60)]
    params = SearchParams(generations=2, population_size=8, seed=1)
    skipped = "evolve_batch" if exact else "exact_front"
    monkeypatch.setattr(search, skipped, refuse(skipped))  # looked up by pareto_fronts
    (result,) = run_searches([(subsets, mask, params)])
    assert not result.failed and result.models


def test_run_searches_caps_pool_at_subset_count(in_process_pool):
    rng = np.random.default_rng(3)
    subsets = subsample(chain_dataset(rng, rows=120), 3, np.random.default_rng(7))
    mask = ConstraintMask.empty(3)
    params = SearchParams(generations=2, population_size=8, seed=11)

    results = run_searches([(subsets, mask, params)], parallelism=64)
    assert in_process_pool == [3]
    for r, s in zip(results, subsets):
        assert np.array_equal(r.cov, sample_covariance(s))
    run_searches([(subsets[:1], mask, params)], parallelism=64)
    assert in_process_pool == [3]  # one subset runs in-process


def good_and_bad_subsets():
    """A chain dataset, and a copy whose constant column makes its sample
    covariance degenerate, so a search of it fails."""
    good = chain_dataset(np.random.default_rng(4), rows=80)
    bad_vals = np.array(good.values, copy=True)
    bad_vals[:, 0] = 1.0
    return good, Dataset(good.columns, bad_vals)


@pytest.mark.parametrize("cols", [4, 10])  # the exact path's size, then the GA's
def test_search_stability_rejects_a_mask_of_another_size(cols, monkeypatch):
    def never(*args):
        raise AssertionError("no subset is drawn or searched")

    monkeypatch.setattr(pipeline, "subsample", never)
    monkeypatch.setattr(pipeline, "run_searches", never)
    rng = np.random.default_rng(cols)
    data = Dataset([f"X{i}" for i in range(cols)], rng.standard_normal((60, cols)))
    model = (data, ConstraintMask.empty(cols + 1), SearchParams(seed=0), None)
    with pytest.raises(ShapeMismatch, match=f"mask has {cols + 1} nodes but data has {cols} "):
        pipeline.search_stability([model], 4, 1)


def test_run_searches_failure_budget():
    good, bad = good_and_bad_subsets()
    mask = ConstraintMask.empty(3)
    params = SearchParams(generations=4, population_size=8, seed=0)

    results = run_searches([([good] * 9 + [bad], mask, params)])
    assert sum(r.failed for r in results) == 1
    assert results[9].failed and "DegenerateData" in results[9].error
    assert results[9].cov is None
    assert len(collect_models(results)) > 0

    with pytest.raises(SearchFailed):
        run_searches([([good] * 8 + [bad] * 2, mask, params)])


def test_run_searches_maps_every_problem_once_and_budgets_each(in_process_pool):
    good, bad = good_and_bad_subsets()
    mask = ConstraintMask.empty(3)
    first = SearchParams(generations=4, population_size=8, seed=0)
    second = SearchParams(generations=4, population_size=8, seed=5)

    # each problem's seeds come from its own params and subset indices
    subsets = subsample(good, 3, np.random.default_rng(1))
    joint = run_searches([(subsets, mask, first), (subsets[::-1], mask, second)], 2)
    alone = run_searches([(subsets, mask, first)]) + run_searches([(subsets[::-1], mask, second)])
    assert in_process_pool == [2]
    assert [r.index for r in joint] == [0, 1, 2, 0, 1, 2]
    assert [[m.dag.arcs for m in r.models] for r in joint] == [
        [m.dag.arcs for m in r.models] for r in alone
    ]

    # 1 failure of 6 is over the budget, though 1 of the map's 12 would not be
    with pytest.raises(SearchFailed, match="^1 of 6 subset searches failed$"):
        run_searches([([good] * 5 + [bad], mask, first), ([good] * 6, mask, second)], 2)
    # the second problem's failures do not count against the first
    results = run_searches(
        [([good] * 9 + [bad], mask, first), ([bad] + [good] * 9, mask, second)], 2
    )
    assert [r.index for r in results if r.failed] == [9, 0]
    with pytest.raises(SearchFailed, match="^2 of 10 subset searches failed$"):
        run_searches([([good] * 10, mask, first), ([bad] * 2 + [good] * 8, mask, second)], 2)
    assert in_process_pool == [2] * 4  # one pool per call


def result_bits(results):
    """Each result's index, error and models' arcs and fits, in order."""
    return [(r.index, r.error, None if r.failed else [(m.dag.arcs, m.fit) for m in r.models])
            for r in results]


# p = 6 is solved exactly, one exact_front per subset; p = 10 is past
# search.EXACT_NODES, so each chunk is one evolve_batch
@pytest.mark.parametrize("p", [6, 10])
def test_chunked_batches_return_the_same_results(p, in_process_pool, monkeypatch):
    # 10 subsets are 1, 2 or 3 chunks, and one of them fails
    subsets = subsample(random_dataset(np.random.default_rng(5), p, 120), 10,
                        np.random.default_rng(6))
    mask = ConstraintMask.empty(p)
    params = SearchParams(generations=6, population_size=12, seed=3)
    clean = run_searches([(subsets, mask, params)])
    # a determinant of -1: the scorer rejects this covariance
    flipped = np.diag([-1.0] + [1.0] * (p - 1))
    covariance = stability.sample_covariance
    monkeypatch.setattr(stability, "sample_covariance",
                        lambda s: flipped if s is subsets[4] else covariance(s))
    runs = [run_searches([(subsets, mask, params)], parallelism) for parallelism in (1, 2, 3)]
    assert in_process_pool == [2, 3]
    for results in runs:
        assert result_bits(results) == result_bits(runs[0])
    bad = runs[0][4]
    assert bad.failed and bad.error == "DegenerateData: covariance is not positive definite"
    # its neighbours, in the same batch, return what they return without it
    assert result_bits(runs[0][:4] + runs[0][5:]) == result_bits(clean[:4] + clean[5:])


def test_edge_probabilities_count_cpdags():
    mask = ConstraintMask.empty(3)
    models = [
        make_model(3, {(0, 1)}, mask),
        make_model(3, {(0, 1)}, mask),
        make_model(3, {(1, 0)}, mask),  # same class as 0->1
        make_model(3, {(0, 2)}, mask),
    ]
    sg = stability_graphs(models, mask, ("A", "B", "C"))[0]
    assert stability_curve(sg, 0, 1)[1] == pytest.approx(0.75)
    assert stability_curve(sg, 0, 2)[1] == pytest.approx(0.25)
    assert stability_curve(sg, 1, 2)[1] == 0.0
    # pinned boundaries: empty pattern at 0, complete pattern at max
    assert all(stability_curve(sg, a, b)[0] == 0.0 for a, b in [(0, 1), (0, 2), (1, 2)])
    assert all(stability_curve(sg, a, b)[3] == 1.0 for a, b in [(0, 1), (0, 2), (1, 2)])
    # linear interpolation across the unobserved complexity 2
    assert stability_curve(sg, 0, 1)[2] == pytest.approx((0.75 + 1.0) / 2)
    assert list(sg.imputed) == [True, False, True, True]


def test_path_probabilities_use_directed_closure():
    mask = ConstraintMask.empty(3)
    models = [
        make_model(3, {(0, 1)}, mask),          # class is undirected: no path
        make_model(3, {(0, 2), (1, 2)}, mask),  # collider stays directed
    ]
    sg = stability_graphs(models, mask, ("A", "B", "C"))[1]
    assert stability_curve(sg, 0, 1)[1] == 0.0
    assert stability_curve(sg, 0, 2)[1] == 0.0
    assert stability_curve(sg, 0, 2)[2] == 1.0
    assert stability_curve(sg, 1, 2)[2] == 1.0
    assert stability_curve(sg, 2, 0)[2] == 0.0
    # complexity 0 pins to zero and the empty-mask complete class is undirected
    assert stability_curve(sg, 0, 2)[0] == 0.0
    assert stability_curve(sg, 0, 2)[3] == 0.0

    # with only the collider observed, complexity 1 is a genuine gap and
    # interpolates between the zero pin and the observed 1.0
    sg = stability_graphs([make_model(3, {(0, 2), (1, 2)}, mask)], mask, ("A", "B", "C"))[1]
    assert stability_curve(sg, 0, 2)[1] == pytest.approx(0.5)
    assert list(sg.imputed) == [True, True, False, True]


def test_path_stability_mask_compelled_pair():
    mask = ConstraintMask.empty(2).with_forbidden([(1, 0)])
    models = [make_model(2, {(0, 1)}, mask)]
    sg = stability_graphs(models, mask, ("A", "B"))[1]
    assert list(stability_curve(sg, 0, 1)) == [0.0, 1.0]
    assert list(stability_curve(sg, 1, 0)) == [0.0, 0.0]

    edge_sg = stability_graphs(models, mask, ("A", "B"))[0]
    assert list(stability_curve(edge_sg, 0, 1)) == [0.0, 1.0]


def test_fully_forbidden_pair_pins_and_skips():
    mask = ConstraintMask.empty(2).with_forbidden([(0, 1), (1, 0)])
    dense = complete_dag_under(mask)
    assert dense is not None and dense.arcs == frozenset()
    models = [make_model(2, set(), mask)]
    edge_sg, path_sg = stability_graphs(models, mask, ("A", "B"))
    # no allowed DAG holds the pair, so its edge curve is pinned to 0 at max too
    assert list(stability_curve(edge_sg, 0, 1)) == [0.0, 0.0]
    # the densest reachable graph has no arc, so nothing is ever compelled
    assert list(stability_curve(path_sg, 0, 1)) == [0.0, 0.0]


def test_edge_curve_of_a_pair_forbidden_both_ways_stays_zero():
    # A-C forbidden both ways; models at complexities 0, 1 and 2 of max 3
    mask = ConstraintMask.empty(3).with_forbidden([(0, 2), (2, 0)])
    models = [
        make_model(3, set(), mask),
        make_model(3, {(0, 1)}, mask),
        make_model(3, {(0, 1), (1, 2)}, mask),
    ]
    edge_sg = stability_graphs(models, mask, ("A", "B", "C"))[0]
    assert list(stability_curve(edge_sg, 0, 2)) == [0.0, 0.0, 0.0, 0.0]
    assert list(stability_curve(edge_sg, 0, 1)) == [0.0, 1.0, 1.0, 1.0]
    assert list(stability_curve(edge_sg, 1, 2)) == [0.0, 0.0, 1.0, 1.0]


def test_forced_cycle_extends_last_anchor():
    # forced precedences forming a cycle: 0<1, 1<2, 2<0
    mask = ConstraintMask.empty(3).with_forbidden([(1, 0), (2, 1), (0, 2)])
    assert complete_dag_under(mask) is None
    models = [make_model(3, {(0, 1)}, mask)]
    edge_sg, path_sg = stability_graphs(models, mask, ("A", "B", "C"))
    assert list(stability_curve(edge_sg, 0, 1)) == [0.0, 1.0, 1.0, 1.0]
    # no max-complexity anchor exists, so the path curve extends its last one
    assert list(stability_curve(path_sg, 0, 1)) == [0.0, 1.0, 1.0, 1.0]


def assert_matches_oracle(models, mask):
    """stability_graphs' curves, key order and imputed flags equal the
    dict-based oracle's, byte for byte."""
    edge_sg, path_sg = stability_graphs(models, mask, tuple(map(str, range(mask.n_nodes))))
    edge_want, path_want, imputed = oracle_stability_curves(models, mask)
    for sg, want in ((edge_sg, edge_want), (path_sg, path_want)):
        assert list(sg.probabilities) == list(want)
        got = [curve.tobytes() for curve in sg.probabilities.values()]
        assert got == [curve.tobytes() for curve in want.values()]
        assert sg.imputed.tobytes() == imputed.tobytes()


def random_models(rng, p, mask):
    """1..30 models, each a random DAG the mask allows at a random density."""
    models = []
    for _ in range(int(rng.integers(1, 31))):
        order = [int(v) for v in rng.permutation(p)]
        rate = rng.random()
        arcs = {
            (order[i], order[j]) for i in range(p) for j in range(i + 1, p)
            if rng.random() < rate and mask.allows(order[i], order[j])
        }
        models.append(make_model(p, arcs, mask))
    return models


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_stability_graphs_match_the_dict_based_oracle(masked):
    rng = np.random.default_rng(67 if masked else 61)
    unpinned = no_zero = 0
    for p in range(3, 9):
        for _ in range(8):
            mask = ConstraintMask.empty(p)
            if masked:
                mask = ConstraintMask(p, rng.random((p, p)) < 0.3)
                unpinned += complete_dag_under(mask) is None
            models = random_models(rng, p, mask)
            no_zero += all(m.fit.complexity > 0 for m in models)
            assert_matches_oracle(models, mask)
    assert no_zero > 0
    assert unpinned > 0 or not masked


@pytest.mark.parametrize("p", range(3, 9))
def test_stability_graphs_match_the_oracle_at_the_anchor_edge_cases(p):
    empty = ConstraintMask.empty(p)
    chain = {(a, a + 1) for a in range(p - 1)}
    complete = set(itertools.combinations(range(p), 2))
    # the forced precedences 0 < 1 < 2 < 0 leave no complete DAG to pin paths
    cyclic = empty.with_forbidden([(1, 0), (2, 1), (0, 2)])
    assert complete_dag_under(cyclic) is None
    cases = [
        ([make_model(p, chain, empty)], empty),  # no model at complexity 0
        # anchors only at the pinned complexities 0 and max
        ([make_model(p, set(), empty)], empty),
        ([make_model(p, complete, empty)], empty),
        ([make_model(p, set(), empty), make_model(p, complete, empty)], empty),
        ([make_model(p, chain, cyclic), make_model(p, {(0, 1)}, cyclic)], cyclic),
    ]
    for models, mask in cases:
        assert_matches_oracle(models, mask)


def test_complete_dag_under_masks():
    empty = ConstraintMask.empty(3)
    dag = complete_dag_under(empty)
    assert dag is not None and len(dag.arcs) == 3

    forced = ConstraintMask.empty(3).with_forbidden([(1, 0), (2, 1)])
    dag = complete_dag_under(forced)
    assert dag is not None
    assert (0, 1) in dag.arcs and (1, 2) in dag.arcs

    # both directions of one pair forbidden: the pair stays disconnected
    gap = ConstraintMask.empty(3).with_forbidden([(0, 1), (1, 0)])
    dag = complete_dag_under(gap)
    assert dag is not None and len(dag.arcs) == 2
    assert not any({a, b} == {0, 1} for a, b in dag.arcs)


def test_compute_pi_bic_argmin_and_ties():
    def with_bics(pairs):
        out = []
        for j, bic in pairs:
            arcs = {(0, k + 1) for k in range(j)}
            out.append(make_model(4, arcs, bic=bic))
        return out

    models = with_bics([(0, 10.0), (1, 4.0), (2, 7.0)])
    assert compute_pi_bic(models) == 1

    models = with_bics([(0, 1.0), (1, 2.0), (2, 3.0)])
    assert compute_pi_bic(models) == 0

    # means tie at 5: the smaller complexity wins
    models = with_bics([(0, 5.0), (1, 5.0), (2, 9.0)])
    assert compute_pi_bic(models) == 0

    # mean, not single values: j=0 has 10 and 2 -> mean 6; j=1 has 5
    models = with_bics([(0, 10.0), (0, 2.0), (1, 5.0)])
    assert compute_pi_bic(models) == 1

    # every mean infinite: the smallest complexity
    models = with_bics([(2, np.inf), (1, np.inf), (3, np.inf)])
    assert compute_pi_bic(models) == 1


def sg_from_curves(kind, curves, p=2):
    probs = {k: np.asarray(v, dtype=float) for k, v in curves.items()}
    some = next(iter(probs.values()))
    return StabilityGraph(
        kind,
        tuple(f"X{i + 1}" for i in range(p)),
        probs,
        np.zeros(len(some), dtype=bool),
    )


def test_relevant_structures_prefix_maximum():
    edge_sg = sg_from_curves(EDGE, {(0, 1): [0.0, 0.2, 0.7, 1.0]})
    path_sg = sg_from_curves(
        CAUSAL_PATH, {(0, 1): [0.0, 0.0, 0.0, 0.0], (1, 0): [0.0, 0.0, 0.0, 0.0]}
    )
    got = relevant_structures(edge_sg, path_sg, Thresholds(0.6, 2))
    assert got == [RelevantStructure(EDGE, (0, 1), 0.7)]

    assert relevant_structures(edge_sg, path_sg, Thresholds(0.6, 1)) == []

    got = relevant_structures(edge_sg, path_sg, Thresholds(1e-9, 3))
    assert {(s.kind, s.key) for s in got} == {(EDGE, (0, 1))}


def test_reliability_is_the_windowed_peak_in_key_order():
    sg = sg_from_curves(
        CAUSAL_PATH, {(1, 0): [0.0, 0.9, 0.1], (0, 1): [0.3, 0.2, 1.0]}
    )
    assert sg.reliability(0) == {(0, 1): 0.3, (1, 0): 0.0}
    assert list(sg.reliability(1).items()) == [((0, 1), 0.3), ((1, 0), 0.9)]
    # a window past J covers the whole curve
    assert sg.reliability(2) == sg.reliability(50) == {(0, 1): 1.0, (1, 0): 0.9}


def test_relevant_structures_monotone():
    rng = np.random.default_rng(5)
    curves_e = {(0, 1): rng.random(4), (0, 2): rng.random(4), (1, 2): rng.random(4)}
    curves_p = {
        (a, b): rng.random(4) for a in range(3) for b in range(3) if a != b
    }
    edge_sg = sg_from_curves(EDGE, curves_e, p=3)
    path_sg = sg_from_curves(CAUSAL_PATH, curves_p, p=3)

    def keyset(pi_sel, pi_bic):
        got = relevant_structures(edge_sg, path_sg, Thresholds(pi_sel, pi_bic))
        return {(s.kind, s.key) for s in got}

    for pi_sel in (0.2, 0.5, 0.8):
        for j in (1, 2, 3):
            assert keyset(pi_sel + 0.1, j) <= keyset(pi_sel, j)
            assert keyset(pi_sel, j - 1) <= keyset(pi_sel, j)


def test_assemble_graph_rules(caplog):
    labels = ("A", "B", "C")
    mask = ConstraintMask.empty(3)
    edges = [
        RelevantStructure(EDGE, (0, 1), 0.9),
        RelevantStructure(EDGE, (1, 2), 0.8),
    ]
    paths = [RelevantStructure(CAUSAL_PATH, (0, 1), 0.7)]
    g = assemble_graph(edges, paths, mask, labels)
    assert g.directed == {(0, 1): 0.9}
    assert g.undirected == {(1, 2): 0.8}

    # no path, no mask: stays undirected
    g = assemble_graph(edges, [], mask, labels)
    assert g.directed == {} and set(g.undirected) == {(0, 1), (1, 2)}

    # mask forbidding all arcs out of node 1 forces 0 -> 1 and 2 -> 1
    hard = mask.with_forbidden([(1, 0), (1, 2)])
    g = assemble_graph(edges, [], hard, labels)
    assert set(g.directed) == {(0, 1), (2, 1)}


def test_assemble_graph_conflict_and_cycles(caplog):
    labels = ("A", "B", "C")
    mask = ConstraintMask.empty(3)
    edges = [
        RelevantStructure(EDGE, (0, 1), 0.9),
        RelevantStructure(EDGE, (1, 2), 0.9),
        RelevantStructure(EDGE, (0, 2), 0.9),
    ]
    paths = [
        RelevantStructure(CAUSAL_PATH, (0, 1), 0.95),
        RelevantStructure(CAUSAL_PATH, (1, 0), 0.9),
        RelevantStructure(CAUSAL_PATH, (1, 2), 0.85),
        RelevantStructure(CAUSAL_PATH, (2, 0), 0.8),
    ]
    with caplog.at_level(logging.WARNING, logger="stablesearch.stability"):
        g = assemble_graph(edges, paths, mask, labels)
    assert (0, 1) in g.directed and (1, 2) in g.directed
    # (1, 0) conflicts, (2, 0) would close the cycle; both stay out
    assert (1, 0) not in g.directed and (2, 0) not in g.directed
    assert (0, 2) in g.undirected
    assert any("conflict" in r.message for r in caplog.records)
    assert any("cycle" in r.message for r in caplog.records)



def test_assemble_graph_never_orients_an_arc_the_mask_forbids(caplog):
    # the prior forbids B -> A, C -> B and A -> C, so the mask forces the
    # cycle A -> B -> C -> A; B -> C is skipped, and the path C ~> B may not
    # orient the edge B - C against the prior
    labels = ("A", "B", "C")
    mask = ConstraintMask.empty(3).with_forbidden([(1, 0), (2, 1), (0, 2)])
    edges = [RelevantStructure(EDGE, key, 0.9) for key in [(0, 1), (1, 2), (0, 2)]]
    paths = [RelevantStructure(CAUSAL_PATH, (2, 1), 0.8)]
    with caplog.at_level(logging.WARNING, logger="stablesearch.stability"):
        g = assemble_graph(edges, paths, mask, labels)
    assert g.directed == {(0, 1): 0.9, (2, 0): 0.9}
    assert g.undirected == {(1, 2): 0.9}
    assert [r.getMessage() for r in caplog.records] == [
        "skipping orientation B -> C: would close a directed cycle",
        "skipping orientation C -> B: the prior forbids it",
    ]


def test_assemble_graph_keeps_the_mask_acyclicity_and_the_relevant_edges():
    rng = np.random.default_rng(33)
    for _ in range(300):
        p = int(rng.integers(3, 7))
        mask = ConstraintMask(p, rng.random((p, p)) < 0.3)
        pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
        edges = [
            RelevantStructure(EDGE, key, float(rng.random()))
            for key in pairs if rng.random() < 0.6
        ]
        paths = [
            RelevantStructure(CAUSAL_PATH, (a, b), round(float(rng.random()), 1))
            for a in range(p) for b in range(p) if a != b and rng.random() < 0.4
        ]
        g = assemble_graph(edges, paths, mask, tuple("ABCDEF"[:p]))
        assert topological_order(p, list(g.directed)) is not None
        assert all(mask.allows(a, b) for a, b in g.directed)
        # each relevant edge appears once, directed or not, with its reliability
        oriented = {(min(arc), max(arc)): r for arc, r in g.directed.items()}
        assert len(oriented) == len(g.directed)
        assert not oriented.keys() & g.undirected.keys()
        assert oriented | g.undirected == {st.key: st.reliability for st in edges}


def test_end_to_end_stability_on_chain_data():
    data = chain_dataset(np.random.default_rng(6), rows=500)
    mask = ConstraintMask.empty(3)
    subsets = subsample(data, 12, np.random.default_rng(42))
    params = SearchParams(generations=12, population_size=24, seed=5)
    results = run_searches([(subsets, mask, params)])
    models = collect_models(results)
    edge_sg, path_sg = stability_graphs(models, mask, data.names)

    for sg in (edge_sg, path_sg):
        for curve in sg.probabilities.values():
            assert np.all(curve >= 0) and np.all(curve <= 1)
    pi_bic = compute_pi_bic(models)
    assert 0 <= pi_bic <= 3

    got = relevant_structures(edge_sg, path_sg, Thresholds(0.6, pi_bic))
    edge_keys = {s.key for s in got if s.kind == EDGE}
    assert {(0, 1), (1, 2)} <= edge_keys


def test_stability_stages_reject_empty_or_bad_input():
    with pytest.raises(ValueError, match="pi_bic must be nonnegative"):
        Thresholds(pi_bic=-1)
    data = chain_dataset(np.random.default_rng(0), rows=40)
    with pytest.raises(ValueError, match="n_subsets must be positive"):
        subsample_blocks(data, 40, 0, np.random.default_rng(0))
    params = SearchParams(population_size=4, generations=1, seed=0)
    with pytest.raises(SearchFailed, match="no subsets to search"):
        run_searches([([], ConstraintMask.empty(3), params)])
    with pytest.raises(SearchFailed, match="no models to aggregate"):
        stability_graphs([], ConstraintMask.empty(3), ("A", "B", "C"))
    with pytest.raises(SearchFailed, match="no models, pi_bic undefined"):
        compute_pi_bic([])
