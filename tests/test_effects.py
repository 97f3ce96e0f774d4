import math
from collections import Counter

import numpy as np
import pytest

from oracles import member_arcs, oracle_class_effects, sem_implied_covariance
from stablesearch import effects
from stablesearch.effects import EffectEstimate, aggregate_effects, causal_effect
from stablesearch.errors import (
    DegenerateData,
    EmptyMultiset,
    ExtensionCapExceeded,
    NoExtension,
)
from stablesearch.graphs import (
    ConstraintMask,
    Cpdag,
    Dag,
    count_orientations,
    dag_to_cpdag,
    enumerate_extensions,
)
from stablesearch.scoring import Column, Dataset, FitResult, sample_covariance
from stablesearch.search import ParetoModel
from stablesearch.stability import SubsetResult


def test_simple_regression_when_source_has_no_parents():
    cov = sem_implied_covariance(2, {(0, 1): 0.7}, [1.0, 1.0])
    dag = Dag(2, frozenset({(0, 1)}))
    # pa(x) empty: plain cov(x, y) / var(x)
    assert causal_effect(dag, cov, 0, 1) == pytest.approx(cov[0, 1] / cov[0, 0])


def test_parent_target_gives_zero():
    cov = sem_implied_covariance(2, {(1, 0): 0.7}, [1.0, 1.0])
    dag = Dag(2, frozenset({(1, 0)}))
    assert causal_effect(dag, cov, 0, 1) == 0.0


def test_chain_total_effect_is_product_of_weights():
    cov = sem_implied_covariance(3, {(0, 1): 1.0, (1, 2): 1.0}, [1.0] * 3)
    chain = Dag(3, frozenset({(0, 1), (1, 2)}))
    assert causal_effect(chain, cov, 0, 2) == pytest.approx(1.0)

    cov = sem_implied_covariance(3, {(0, 1): 0.5, (1, 2): -0.8}, [1.0, 2.0, 0.5])
    assert causal_effect(chain, cov, 0, 2) == pytest.approx(-0.4)


def test_backdoor_adjustment_uses_parents_of_source():
    # confounder z -> x, z -> y plus x -> y: adjusting for pa(x) = {z}
    # recovers the direct weight
    weights = {(2, 0): 0.9, (2, 1): -0.6, (0, 1): 0.4}
    cov = sem_implied_covariance(3, weights, [1.0] * 3)
    dag = Dag(3, frozenset(weights))
    assert causal_effect(dag, cov, 0, 1) == pytest.approx(0.4)


def test_effect_free_of_the_adjustment_sets_units():
    # the confounder z measured in units 1e7 times smaller: same effect
    weights = {(2, 0): 0.9, (2, 1): -0.6, (0, 1): 0.4}
    scale = np.array([1.0, 1.0, 1e7])
    cov = sem_implied_covariance(3, weights, [1.0] * 3) * np.outer(scale, scale)
    assert causal_effect(Dag(3, frozenset(weights)), cov, 0, 1) == pytest.approx(0.4)


def test_two_node_effect_matches_lstsq():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    y = 1.7 * x + rng.standard_normal(300)
    data = Dataset(["x", "y"], np.column_stack([x, y]))
    cov = sample_covariance(data)
    dag = Dag(2, frozenset({(0, 1)}))
    design = np.column_stack([x - x.mean(), np.ones_like(x)])
    slope = np.linalg.lstsq(design, y - y.mean(), rcond=None)[0][0]
    assert causal_effect(dag, cov, 0, 1) == pytest.approx(slope, abs=1e-10)


def test_effect_invariant_under_relabeling():
    weights = {(2, 0): 0.9, (2, 1): -0.6, (0, 1): 0.4}
    cov = sem_implied_covariance(3, weights, [1.0, 0.7, 1.3])
    dag = Dag(3, frozenset(weights))
    base = causal_effect(dag, cov, 0, 1)

    perm = [2, 0, 1]  # old label i becomes perm[i]
    relabeled = Dag(3, frozenset((perm[a], perm[b]) for a, b in weights))
    inv = np.argsort(perm)
    cov_perm = cov[np.ix_(inv, inv)]
    assert causal_effect(relabeled, cov_perm, perm[0], perm[1]) == pytest.approx(base)


def test_singular_regressors_raise():
    cov = np.ones((3, 3))
    dag = Dag(3, frozenset({(1, 0), (0, 2)}))
    with pytest.raises(DegenerateData):
        causal_effect(dag, cov, 0, 2)


def class_effect(cpdag, cov, mask, x, y) -> EffectEstimate:
    """The estimate of x -> y over one subset whose one model has pattern
    cpdag: its median and n_values read the class's effect multiset.
    aggregate_effects reads only a model's pattern and complexity."""
    p, k = cpdag.n_nodes, len(cpdag.directed) + len(cpdag.undirected)
    model = ParetoModel(Dag(p, frozenset()), FitResult(1.0, k, 1.0), cpdag)
    data = Dataset(range(p), np.random.default_rng(0).standard_normal((20, p)))
    return aggregate_effects([SubsetResult(0, [model])], [cov], k, [(x, y)], data, mask)[0]


def test_ida_singleton_class_has_one_value():
    cov = sem_implied_covariance(3, {(0, 2): 1.0, (1, 2): 1.0}, [1.0] * 3)
    collider = Dag(3, frozenset({(0, 2), (1, 2)}))
    cpdag = dag_to_cpdag(collider)
    assert cpdag.undirected == frozenset()
    est = class_effect(cpdag, cov, None, 0, 2)
    assert est.n_values == 1
    assert est.median == pytest.approx(causal_effect(collider, cov, 0, 2))


def test_ida_undirected_pair_yields_slope_and_zero():
    cov = sem_implied_covariance(2, {(0, 1): 0.7}, [1.0, 1.0])
    cpdag = Cpdag(2, frozenset(), frozenset({(0, 1)}))
    est = class_effect(cpdag, cov, None, 0, 1)
    # one orientation regresses y on x, the other makes y a parent of x
    assert est.n_values == 2
    assert est.median == pytest.approx((cov[0, 1] / cov[0, 0] + 0.0) / 2)


def test_ida_class_size_matches_member_count():
    chain = Dag(3, frozenset({(0, 1), (1, 2)}))
    cov = sem_implied_covariance(3, {(0, 1): 1.0, (1, 2): 1.0}, [1.0] * 3)
    cpdag = dag_to_cpdag(chain)
    assert class_effect(cpdag, cov, None, 0, 2).n_values == 3  # three members

    mask = ConstraintMask.empty(3).with_forbidden([(1, 0)])
    constrained = dag_to_cpdag(chain, mask)
    assert class_effect(constrained, cov, mask, 0, 2).n_values < 3


def _result(index, models):
    return SubsetResult(index, models)


def _model(n, arcs, cov_n, chi=1.0, bic=10.0, mask=None):
    dag = Dag(n, frozenset(arcs))
    fit = FitResult(chi, len(dag.arcs), bic)
    return ParetoModel(dag, fit, dag_to_cpdag(dag, mask))


def test_aggregate_median_and_standardization_identity():
    weights = {(0, 1): 1.0, (1, 2): 1.0}
    cov = sem_implied_covariance(3, weights, [1.0] * 3)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((500, 3)) @ np.linalg.cholesky(cov).T
    data = Dataset(["a", "b", "c"], vals)

    mask = ConstraintMask.empty(3).with_forbidden([(1, 0), (2, 1), (2, 0)])
    model = _model(3, {(0, 1), (1, 2)}, 3, mask=mask)
    results = [_result(0, [model]), _result(1, [model])]
    covs = [cov, cov]

    out = aggregate_effects(results, covs, 2, [(0, 2)], data, mask)
    assert len(out) == 1
    est = out[0]
    # the constrained class is the chain alone, twice: median is the chain effect
    assert est.n_values == 2
    assert est.median == pytest.approx(1.0)
    sx, sy = np.std(vals[:, 0], ddof=1), np.std(vals[:, 2], ddof=1)
    assert est.standardized * sy == pytest.approx(est.median * sx, abs=1e-12)


def test_aggregate_skips_failed_subsets_and_respects_order():
    cov = sem_implied_covariance(2, {(0, 1): 0.5}, [1.0, 1.0])
    data = Dataset(["a", "b"], np.random.default_rng(1).standard_normal((50, 2)))
    mask = ConstraintMask.empty(2).with_forbidden([(1, 0)])
    model = _model(2, {(0, 1)}, 2, mask=mask)
    results = [_result(0, [model]), _result(1, None), _result(2, [model])]
    covs = [cov, None, 2.0 * cov]

    out = aggregate_effects(results, covs, 1, [(0, 1)], data, mask)
    assert out[0].n_values == 2
    # both covariances give the same regression slope (scaling cancels)
    assert out[0].median == pytest.approx(0.5)


def test_aggregate_raises_when_no_model_has_complexity_pi_bic():
    cov = sem_implied_covariance(2, {(0, 1): 0.5}, [1.0, 1.0])
    data = Dataset(["a", "b"], np.random.default_rng(2).standard_normal((50, 2)))
    mask = ConstraintMask.empty(2).with_forbidden([(1, 0)])
    results = [_result(0, [_model(2, {(0, 1)}, 2, mask=mask)])]

    with pytest.raises(EmptyMultiset, match="no effect values for path 0 -> 1"):
        aggregate_effects(results, [cov], 0, [(0, 1)], data, mask)


def test_aggregate_empty_models_raise():
    data = Dataset(["a", "b"], np.random.default_rng(3).standard_normal((10, 2)))
    with pytest.raises(EmptyMultiset):
        aggregate_effects([_result(0, None)], [None], 0, [(0, 1)], data)


def test_discrete_endpoint_reports_no_standardized_value():
    cov = sem_implied_covariance(2, {(0, 1): 0.5}, [1.0, 1.0])
    cols = [Column("a", "discrete"), Column("b")]
    data = Dataset(cols, np.random.default_rng(4).standard_normal((50, 2)))
    mask = ConstraintMask.empty(2).with_forbidden([(1, 0)])
    results = [_result(0, [_model(2, {(0, 1)}, 2, mask=mask)])]
    out = aggregate_effects(results, [cov], 1, [(0, 1)], data, mask)
    assert out[0].standardized is None
    assert isinstance(out[0], EffectEstimate)


def per_path_effects(results, covariances, pi_bic, paths, data, mask):
    """The per-path loop aggregate_effects ran before classes were shared:
    every path re-enumerates every chosen class and regresses per member."""
    models = [(r.index, m) for r in results if not r.failed for m in r.models]
    chosen = [(i, m) for i, m in models if m.fit.complexity == pi_bic]
    out = []
    for x, y in paths:
        values = []
        for i, m in chosen:
            if covariances[i] is not None:
                values += oracle_class_effects(m.cpdag, covariances[i], mask, x, y)
        out.append((float(np.median(values)), len(values)))
    return out


def random_effects_case(rng, masked):
    """Five subsets at p = 5..8: subset 0 holds two members of one class,
    subset 1 a model off the chosen complexity too, subset 2 has models but
    no covariance, subset 3 failed and subset 4 chose another member of
    subset 1's class under its own covariance.  Paths share their sources."""
    p = int(rng.integers(5, 9))
    n_arcs = int(rng.integers(p - 1, 2 * p - 2))

    def random_arcs():
        order = rng.permutation(p)
        pairs = [
            (int(order[i]), int(order[j])) for i in range(p) for j in range(i + 1, p)
        ]
        picks = rng.choice(len(pairs), n_arcs, replace=False)
        return frozenset(pairs[k] for k in picks)

    arcsets = [random_arcs() for _ in range(3)]
    mask = None
    if masked:
        forbidden = rng.random((p, p)) < 0.3
        for a, b in set().union(*arcsets):
            forbidden[a, b] = False
        mask = ConstraintMask(p, forbidden)
    first, second, third = (_model(p, arcs, p, mask=mask) for arcs in arcsets)
    twin = _model(p, member_arcs(enumerate_extensions(first.cpdag, mask)[-1]), p, mask=mask)
    sibling = _model(p, member_arcs(enumerate_extensions(second.cpdag, mask)[0]), p, mask=mask)
    off = _model(p, sorted(arcsets[1])[1:], p, mask=mask)
    results = [
        _result(0, [first, twin]),
        _result(1, [off, second]),
        _result(2, [third]),
        _result(3, None),
        _result(4, [sibling]),
    ]
    covs = [np.cov(rng.standard_normal((60, p)), rowvar=False) for _ in range(2)]
    covs += [None, None]
    sources = [int(v) for v in rng.choice(p, 2, replace=False)]
    paths = [(x, y) for x in sources for y in range(p) if y != x][:7]
    data = Dataset([f"v{j}" for j in range(p)], rng.standard_normal((40, p)))
    covs.append(np.cov(rng.standard_normal((60, p)), rowvar=False))
    return results, covs, n_arcs, paths, data, mask


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_aggregate_matches_per_path_loop_bit_for_bit(masked):
    rng = np.random.default_rng(43 if masked else 41)
    for _ in range(25):
        case = random_effects_case(rng, masked)
        got = aggregate_effects(*case)
        want = per_path_effects(*case)
        assert [(e.median, e.n_values) for e in got] == want
        assert [(e.source, e.target) for e in got] == case[3]


def enumerated_subpatterns(cpdag, sources):
    """The sub-patterns effects enumerates for one pattern: every directed
    arc plus the undirected edges of one component, for each component that
    holds a source or an arc between two of its nodes."""
    comps = []
    for v in range(cpdag.n_nodes):
        if not any(v in comp for comp in comps):
            comp, grown = set(), {v}
            while grown:
                comp |= grown
                grown = {u for e in cpdag.undirected if comp & set(e) for u in e} - comp
            comps.append(comp)
    return {
        Cpdag(cpdag.n_nodes, cpdag.directed,
              frozenset(e for e in cpdag.undirected if e[0] in comp))
        for comp in comps
        if comp & set(sources) or any({a, b} <= comp for a, b in cpdag.directed)
    }


def test_aggregate_enumerates_each_class_once_and_regresses_per_parent_set(monkeypatch):
    rng = np.random.default_rng(47)
    for masked in (False, True):
        results, covs, pi_bic, paths, data, mask = random_effects_case(rng, masked)
        chosen = [
            (r.index, m) for r in results if not r.failed
            for m in r.models if m.fit.complexity == pi_bic
        ]
        expected = {
            (i, x, tuple(sorted(a for a, b in member_arcs(member) if b == x)), y)
            for i, m in chosen if covs[i] is not None
            for member in enumerate_extensions(m.cpdag, mask)
            for x, y in paths
        }
        subset_of = {id(c): i for i, c in enumerate(covs) if c is not None}
        enumerated, regressed = [], []

        def counting_enumerate(cpdag, mask=None):
            enumerated.append(cpdag)
            return enumerate_extensions(cpdag, mask)

        def counting_effect(dag, cov, x, y):
            regressed.append((subset_of[id(cov)], x, tuple(dag.parents(x)), y))
            return causal_effect(dag, cov, x, y)

        monkeypatch.setattr(effects, "enumerate_extensions", counting_enumerate)
        monkeypatch.setattr(effects, "causal_effect", counting_effect)
        aggregate_effects(results, covs, pi_bic, paths, data, mask)
        # subset 0 holds two members of one class and subset 1 one model
        # whose class subset 4 shares; subset 2 has no covariance.  Each
        # pattern enumerates its sources' own components once, and a
        # component with a mask-forced arc inside once, to count it.
        patterns = {m.cpdag for i, m in chosen if covs[i] is not None}
        assert sum(covs[i] is not None for i, _ in chosen) == 4
        assert len(patterns) == 2
        sources = {x for x, _ in paths}
        assert len(enumerated) == len(set(enumerated))
        assert set(enumerated) == set().union(
            *(enumerated_subpatterns(cp, sources) for cp in patterns)
        )
        assert len(regressed) == len(set(regressed))
        assert set(regressed) == expected

        enumerated.clear()
        assert aggregate_effects(results, covs, pi_bic, [], data, mask) == []
        assert enumerated == []
        monkeypatch.undo()


def grouped_by_parents(cpdag, mask, x, values):
    """The per-member values regrouped by pa(x), stably, in the order each
    pa(x) first appears in the whole-class enumeration."""
    parents = [member[x] for member in enumerate_extensions(cpdag, mask)]
    first = {pa: i for i, pa in reversed(list(enumerate(parents)))}
    order = sorted(range(len(values)), key=lambda i: first[parents[i]])
    return [values[i] for i in order]


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_class_values_match_the_per_member_loop_in_order(masked):
    # the per-member values as multisets, and in the order aggregate_effects
    # pools them: grouped by pa(x) in first-seen order, which a source's own
    # component decides
    rng = np.random.default_rng(53 if masked else 51)
    for _ in range(10):
        results, covs, _, paths, _, mask = random_effects_case(rng, masked)
        sources = list(dict.fromkeys(x for x, _ in paths))
        for r in results:
            cov = covs[r.index]
            for m in r.models if cov is not None else ():
                counts = effects._parent_counts(m.cpdag, mask, sources)
                for x, y in paths:
                    want = oracle_class_effects(m.cpdag, cov, mask, x, y)
                    pairs = effects._effect_pairs(counts[x], m.cpdag.n_nodes, cov, x, y, {})
                    got = [v for v, k in pairs for _ in range(k)]
                    assert Counter(got) == Counter(want)
                    assert got == grouped_by_parents(m.cpdag, mask, x, want)


def test_subsets_sharing_a_pattern_enumerate_it_once(monkeypatch):
    # two members of the 3-chain's class, where pa(0) is () or (1,), chosen
    # by two subsets under different covariances
    members = enumerate_extensions(dag_to_cpdag(Dag(3, frozenset({(0, 1), (1, 2)}))))
    results = [_result(0, [_model(3, member_arcs(members[0]), 3)]),
               _result(1, [_model(3, member_arcs(members[-1]), 3)])]
    assert results[0].models[0].cpdag == results[1].models[0].cpdag
    assert results[0].models[0].dag != results[1].models[0].dag
    rng = np.random.default_rng(59)
    covs = [np.cov(rng.standard_normal((50, 3)), rowvar=False) for _ in range(2)]
    data = Dataset(["a", "b", "c"], rng.standard_normal((50, 3)))
    paths = [(0, 2), (0, 1)]
    want = per_path_effects(results, covs, 2, paths, data, None)
    enumerated, regressed = [], []

    def counting_enumerate(cpdag, mask=None):
        enumerated.append(cpdag)
        return enumerate_extensions(cpdag, mask)

    def counting_effect(dag, cov, x, y):
        subset = next(i for i, c in enumerate(covs) if c is cov)
        regressed.append((subset, x, tuple(dag.parents(x)), y))
        return causal_effect(dag, cov, x, y)

    monkeypatch.setattr(effects, "enumerate_extensions", counting_enumerate)
    monkeypatch.setattr(effects, "causal_effect", counting_effect)
    got = aggregate_effects(results, covs, 2, paths, data)
    assert len(enumerated) == 1
    assert sorted(regressed) == sorted(
        (i, x, pa, y) for i in (0, 1) for pa in ((), (1,)) for x, y in paths
    )
    assert [(e.median, e.n_values) for e in got] == want
    assert [n for _, n in want] == [6, 6]


def class_parent_counts(cpdag, mask, x):
    return Counter(member[x] for member in enumerate_extensions(cpdag, mask))


def test_mask_forced_arc_inside_a_component_is_enumerated_not_counted():
    # 0 -> 7 is forced by the mask inside the undirected path 3 - 0 - 5 - 7:
    # 0 -> 5 <- 7 makes no new v-structure since 0 and 7 are adjacent, so
    # the class has 5 members where the path alone has 4 orientations
    dag = Dag(8, frozenset({(0, 2), (0, 3), (0, 5), (0, 7), (5, 7), (6, 2), (7, 4)}))
    mask = ConstraintMask.empty(8).with_forbidden([(7, 0), (4, 7)])
    cpdag = dag_to_cpdag(dag, mask)
    assert (0, 7) in cpdag.directed
    assert cpdag.undirected == {(0, 3), (0, 5), (5, 7)}
    assert len(enumerate_extensions(cpdag, mask)) == 5
    adj = [0] * 8
    for a, b in cpdag.undirected:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    assert count_orientations(adj, 0b10101001) == 4
    for x in range(8):  # one source at a time, so the path is counted
        counts = effects._parent_counts(cpdag, mask, [x])[x]
        assert dict(counts) == class_parent_counts(cpdag, mask, x)


def test_factorised_parent_counts_match_the_whole_class():
    # patterns of random DAGs at p = 3..8, half of them under a mask that
    # forbids 30% of the cells the DAG leaves free
    rng = np.random.default_rng(61)
    checks = forced = 0
    for case in range(600):
        p = 3 + case % 6
        order = rng.permutation(p)
        upper = np.triu(rng.random((p, p)) < rng.uniform(0.2, 0.8), k=1)
        arcs = {(int(order[i]), int(order[j])) for i, j in zip(*np.nonzero(upper))}
        mask = None
        if case % 2:
            forbidden = rng.random((p, p)) < 0.3
            for a, b in arcs:
                forbidden[a, b] = False
            mask = ConstraintMask(p, forbidden)
        cpdag = dag_to_cpdag(Dag(p, frozenset(arcs)), mask)
        for x in range(p):  # one source at a time: every other component is counted
            counts = effects._parent_counts(cpdag, mask, [x])[x]
            assert dict(counts) == class_parent_counts(cpdag, mask, x)
            checks += 1
        forced += any(
            {a, b} <= {v for e in cpdag.undirected for v in e} for a, b in cpdag.directed
        )
    assert checks > 3000
    assert forced > 10


def test_a_non_chordal_component_away_from_the_source_has_no_extension():
    # the undirected 4-cycle 2 - 3 - 4 - 5 admits no orientation, so the
    # class is empty whether it is enumerated or counted
    cpdag = Cpdag(6, frozenset({(0, 1)}), frozenset({(2, 3), (3, 4), (4, 5), (2, 5)}))
    with pytest.raises(NoExtension):
        enumerate_extensions(cpdag)
    with pytest.raises(NoExtension):
        class_effect(cpdag, np.eye(6), None, 0, 1)


def test_seven_clique_away_from_every_source_yields_effects():
    # u=0 and w=1 point into c=2, which points into the 7-clique 3..9: the
    # class has 7! = 5,040 members, past the enumeration cap, but only the
    # sources' own components are enumerated
    clique = range(3, 10)
    arcs = [(0, 2), (1, 2)] + [(2, k) for k in clique]
    arcs += [(a, b) for a in clique for b in clique if a < b]
    model = _model(10, arcs, 10)
    with pytest.raises(ExtensionCapExceeded):
        enumerate_extensions(model.cpdag)
    rng = np.random.default_rng(67)
    data = Dataset([f"v{j}" for j in range(10)], rng.standard_normal((80, 10)))
    covs = [np.cov(rng.standard_normal((80, 10)), rowvar=False) for _ in range(3)]
    results = [_result(i, [model]) for i in range(3)]
    paths = [(0, 2), (2, 5), (1, 9)]
    out = aggregate_effects(results, covs, len(arcs), paths, data)
    assert [e.n_values for e in out] == [5040 * 3] * 3
    for (x, y), est in zip(paths, out):
        dag = Dag(10, frozenset((a, x) for a, b in arcs if b == x))
        assert est.median == float(np.median([causal_effect(dag, c, x, y) for c in covs]))


@pytest.mark.parametrize("total", ["odd", "even"])
def test_pair_median_is_np_median_of_the_expanded_list(total):
    rng = np.random.default_rng(71 if total == "odd" else 73)
    for _ in range(300):
        values = rng.choice(
            np.concatenate([rng.standard_normal(6), [0.0, -0.0, 1e308]]),
            int(rng.integers(1, 6)),
        )
        counts = [int(k) for k in rng.integers(1, 5, len(values))]
        if (sum(counts) % 2 == 0) != (total == "even"):
            counts[0] += 1
        pairs = [(float(v), k) for v, k in zip(values, counts)]
        expanded = [v for v, k in pairs for _ in range(k)]
        with np.errstate(over="ignore"):
            want = float(np.median(expanded))
        median, n_values = effects._median(pairs)
        assert n_values == len(expanded)
        assert repr(median) == repr(want)
    # counts are Python ints: a 20-clique's class is never expanded
    assert effects._median([(1.0, math.factorial(20)), (2.0, 1)]) == (1.0, math.factorial(20) + 1)


def test_causal_effect_rejects_a_source_that_is_its_target():
    dag = Dag(2, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="source and target must differ"):
        causal_effect(dag, np.eye(2), 1, 1)
