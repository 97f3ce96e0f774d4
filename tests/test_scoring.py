import warnings

import numpy as np
import pytest

from oracles import (
    all_dag_arcsets,
    equivalence_class,
    gaussian_deviance,
    node_regression,
    oracle_midranks,
    oracle_sem_params,
    sem_implied_covariance,
)
from stablesearch import scoring
from stablesearch.errors import DegenerateData, ShapeMismatch
from stablesearch.search import SearchParams, evolve
from stablesearch.graphs import ConstraintMask, Dag, is_acyclic
from stablesearch.scoring import (
    CONTINUOUS,
    DISCRETE,
    Column,
    Dataset,
    fit_dag_ml,
    load_dataset,
    log_psi,
    rank_normalize,
    sample_covariance,
    small_fits,
)


def implied_covariance(dag, cov):
    """Covariance the ML fit of the DAG implies, from per-node least squares."""
    return sem_implied_covariance(dag.n_nodes, *oracle_sem_params(dag.n_nodes, dag.arcs, cov))


def random_dataset(rng, n=200, p=4):
    values = rng.standard_normal((n, p))
    return Dataset([f"X{i}" for i in range(p)], values)


def test_dataset_shape_and_missing_checks():
    with pytest.raises(ShapeMismatch):
        Dataset(["a", "b"], np.zeros((3, 3)))
    with pytest.raises(DegenerateData):
        Dataset(["a"], np.array([[np.nan], [1.0]]))


def test_dataset_copies_instead_of_freezing_caller_array():
    values = np.zeros((3, 2))
    data = Dataset(["a", "b"], values)
    assert values.flags.writeable
    values[0, 0] = 5.0
    assert data.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        data.values[0, 0] = 1.0


def test_sample_covariance_two_point_example():
    values = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(np.cov(values, rowvar=False, ddof=1), 0.5)
    data = Dataset(["a", "b"], values)
    # too few rows, and perfectly correlated columns are singular anyway
    with pytest.raises(DegenerateData):
        sample_covariance(data)


def test_sample_covariance_monte_carlo_independence():
    rng = np.random.default_rng(0)
    data = Dataset(["a", "b", "c"], rng.standard_normal((100_000, 3)))
    cov = sample_covariance(data)
    off = cov[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 0.02)
    assert np.allclose(cov, cov.T)


def test_sample_covariance_names_collinear_columns():
    rng = np.random.default_rng(11)
    a, b, d = rng.standard_normal((3, 80))
    data = Dataset(["A", "B", "C", "D"], np.column_stack([a, b, a + b, d]))
    with pytest.raises(DegenerateData, match="columns 'A', 'B', 'C' are collinear"):
        sample_covariance(data)


def test_sample_covariance_rejects_zero_variance():
    vals = np.column_stack([np.ones(10), np.arange(10.0)])
    with pytest.raises(DegenerateData):
        sample_covariance(Dataset(["a", "b"], vals))


@pytest.mark.parametrize("scaled", [[0], [1], [1, 2]])
def test_sample_covariance_names_a_column_that_overflows(scaled):
    vals = np.random.default_rng(6).standard_normal((60, 3))
    vals[:, scaled] *= 1e200  # finite values whose squares are not
    first = "ABC"[scaled[0]]
    with pytest.raises(DegenerateData, match=f"^column '{first}' overflows the sample covariance"):
        sample_covariance(Dataset(["A", "B", "C"], vals))


def test_sample_covariance_is_free_of_the_columns_units():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((200, 3))
    scale = np.array([1e7, 1.0, 1e-6])
    cov = sample_covariance(Dataset(["A", "B", "C"], vals * scale))
    unscaled = sample_covariance(Dataset(["A", "B", "C"], vals))
    assert np.allclose(cov, unscaled * np.outer(scale, scale), rtol=1e-9, atol=0)


def test_saturated_model_reproduces_sample_covariance():
    rng = np.random.default_rng(1)
    data = random_dataset(rng, n=120, p=4)
    cov = sample_covariance(data)
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        arcs = frozenset(
            (order[i], order[j]) for i in range(4) for j in range(i + 1, 4)
        )
        fit = fit_dag_ml(Dag(4, arcs), cov, data.n_rows)
        assert fit.chi_square < 1e-8
        assert np.max(np.abs(implied_covariance(Dag(4, arcs), cov) - cov)) < 1e-8


def test_empty_model_chi_square_on_standardized_data():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((150, 3))
    vals = (vals - vals.mean(axis=0)) / vals.std(axis=0, ddof=1)
    data = Dataset(["a", "b", "c"], vals)
    cov = sample_covariance(data)
    fit = fit_dag_ml(Dag(3, frozenset()), cov, data.n_rows)
    _, logdet = np.linalg.slogdet(cov)
    assert abs(fit.chi_square - (data.n_rows - 1) * (-logdet)) < 1e-8


def test_chi_square_matches_full_deviance_formula():
    rng = np.random.default_rng(3)
    universe = all_dag_arcsets(4)
    data = random_dataset(rng, n=300, p=4)
    cov = sample_covariance(data)
    for i in rng.choice(len(universe), size=40, replace=False):
        dag = Dag(4, universe[i])
        fit = fit_dag_ml(dag, cov, data.n_rows)
        direct = gaussian_deviance(cov, implied_covariance(dag, cov), data.n_rows)
        assert abs(fit.chi_square - direct) < 1e-8
        assert fit.chi_square >= 0
        assert abs(fit.bic - (fit.chi_square + fit.complexity * np.log(data.n_rows))) < 1e-12


def test_covariance_equivalent_dags_score_identically():
    rng = np.random.default_rng(4)
    data = random_dataset(rng, n=250, p=2)
    cov = sample_covariance(data)
    a = fit_dag_ml(Dag(2, frozenset({(0, 1)})), cov, data.n_rows)
    b = fit_dag_ml(Dag(2, frozenset({(1, 0)})), cov, data.n_rows)
    assert abs(a.chi_square - b.chi_square) < 1e-6

    universe = all_dag_arcsets(4)
    data = random_dataset(rng, n=250, p=4)
    cov = sample_covariance(data)
    for i in rng.choice(len(universe), size=25, replace=False):
        members = equivalence_class(4, universe[i], universe)
        scores = [
            fit_dag_ml(Dag(4, m), cov, data.n_rows).chi_square for m in members
        ]
        assert max(scores) - min(scores) < 1e-6


def test_chi_square_non_increasing_under_arc_addition():
    rng = np.random.default_rng(5)
    for _ in range(60):
        data = random_dataset(rng, n=100, p=4)
        cov = sample_covariance(data)
        universe = all_dag_arcsets(4)
        arcs = universe[int(rng.integers(len(universe)))]
        base = fit_dag_ml(Dag(4, arcs), cov, data.n_rows)
        candidates = [
            (a, b)
            for a in range(4)
            for b in range(4)
            if a != b
            and (a, b) not in arcs
            and (b, a) not in arcs
        ]
        rng.shuffle(candidates)
        for a, b in candidates:
            bigger = arcs | {(a, b)}
            if not is_acyclic(4, bigger):
                continue
            grown = fit_dag_ml(Dag(4, frozenset(bigger)), cov, data.n_rows)
            assert grown.chi_square <= base.chi_square + 1e-9
            break


def test_chi_square_invariant_under_relabeling():
    rng = np.random.default_rng(6)
    data = random_dataset(rng, n=200, p=4)
    cov = sample_covariance(data)
    arcs = frozenset({(0, 1), (1, 2), (0, 3)})
    fit = fit_dag_ml(Dag(4, arcs), cov, data.n_rows)
    perm = [2, 0, 3, 1]
    permuted_arcs = frozenset((perm[a], perm[b]) for a, b in arcs)
    # relabel: node i becomes perm[i], so covariance row perm[i] is old row i
    permuted_cov = np.empty_like(cov)
    for i in range(4):
        for j in range(4):
            permuted_cov[perm[i], perm[j]] = cov[i, j]
    other = fit_dag_ml(Dag(4, permuted_arcs), permuted_cov, data.n_rows)
    assert abs(fit.chi_square - other.chi_square) < 1e-8


def test_fit_matches_known_generating_model():
    # x0 -> x1 with weight 0.8: regression recovers the weight from cov alone
    cov = sem_implied_covariance(2, {(0, 1): 0.8}, [1.0, 1.0])
    fit = fit_dag_ml(Dag(2, frozenset({(0, 1)})), cov, 1000)
    weights, _ = oracle_sem_params(2, {(0, 1)}, cov)
    assert abs(weights[(0, 1)] - 0.8) < 1e-12
    assert fit.chi_square < 1e-8


def test_degenerate_parent_block_raises():
    # the permutation swapping nodes 0 <-> 2 and 1 <-> 3 has determinant +1,
    # so the scorer accepts it, but node 2's parent block {0, 1} is zero
    cov = np.eye(4)[[2, 3, 0, 1]]
    assert np.linalg.slogdet(cov)[0] == 1
    with pytest.raises(DegenerateData, match="a node's regression on its parents is degenerate"):
        fit_dag_ml(Dag(4, frozenset({(0, 2), (1, 2)})), cov, 50)


def test_log_psi_is_infinite_for_a_singular_parent_block():
    cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DegenerateData, match="singular parent block for node 2"):
        node_regression(cov, 2, [0, 1])
    assert log_psi(cov[None], np.array([0]), np.array([2]), np.array([[0, 1]])).tolist() == [np.inf]


def test_log_psi_is_infinite_for_a_negative_residual():
    # positive determinant (5), yet node 1 on parent 0 leaves 1 - 2 * 2 = -3,
    # and node 2 on parents {0, 1} leaves 1 - 8 / 3
    cov = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
    assert np.linalg.det(cov) > 0
    for j, parents in ((1, [0]), (2, [0, 1])):
        with pytest.raises(DegenerateData, match=f"non-positive residual variance at node {j}"):
            node_regression(cov, j, parents)
        assert log_psi(cov[None], np.array([0]), np.array([j]), np.array([parents])).tolist() == [
            np.inf
        ]
    assert small_fits(cov[None])[0, 0, 1] == np.inf
    with pytest.raises(DegenerateData, match="a node's regression on its parents is degenerate"):
        fit_dag_ml(Dag(3, frozenset({(0, 2), (1, 2)})), cov, 50)


def reference_log_psi(cov, j, parents):
    """ln of the oracle's residual variance, +inf where it raises."""
    try:
        return np.log(node_regression(cov, j, parents))
    except DegenerateData:
        return np.inf


def test_log_psi_equals_node_regression_bit_for_bit():
    rng = np.random.default_rng(38)
    rows = 0
    for p in range(3, 17):
        covs = []  # a stack of a random and a near-collinear covariance
        for collinear in (False, True):
            x = rng.standard_normal((p + 12, p)) * rng.uniform(0.01, 100.0, p)
            if collinear:
                x[:, -1] = x[:, 0] * rng.uniform(-3, 3) + 1e-7 * rng.standard_normal(len(x))
            covs.append(np.cov(x, rowvar=False))
        covs = np.array(covs)
        for c in range(2, min(8, p - 1) + 1):
            search, heads = rng.integers(0, 2, 80), rng.integers(0, p, 80)
            parents = np.array([rng.choice(np.delete(np.arange(p), j), c, replace=False)
                                for j in heads.tolist()])
            got = log_psi(covs, search, heads, parents)
            for s, j, pa, val in zip(search.tolist(), heads.tolist(), parents.tolist(), got):
                want = np.float64(reference_log_psi(covs[s], j, pa))
                assert val.tobytes() == want.tobytes(), (p, c, s, j, pa)
            rows += len(heads)
    assert rows > 5000


def test_log_psi_retries_a_stack_that_one_singular_block_fails():
    # columns 0 and 4 are equal, so any block holding both is exactly singular
    x = np.random.default_rng(7).standard_normal((30, 5))
    x[:, 4] = x[:, 0]
    cov = np.cov(x, rowvar=False)
    heads = np.array([1, 2, 3, 1])
    parents = np.array([[0, 2], [0, 4], [2, 4], [4, 0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(cov[parents[:, :, None], parents[:, None, :]], cov[parents, 0][..., None])
    got = log_psi(cov[None], 0 * heads, heads, parents)
    want = [reference_log_psi(cov, j, pa) for j, pa in zip(heads.tolist(), parents.tolist())]
    assert got.tobytes() == np.array(want).tobytes()
    assert got.tolist()[1::2] == [np.inf, np.inf] and np.isfinite(got[::2]).all()


def small_fit_covariances():
    """Random and near-collinear covariances for p = 2..18, and degenerate ones:
    the zero-diagonal permutation, a negative residual, negative variances."""
    rng = np.random.default_rng(32)
    covs = []
    for p in range(2, 19):
        for collinear in (False, True):
            x = rng.standard_normal((p + 12, p)) * rng.uniform(0.01, 100.0, p)
            if collinear:
                x[:, -1] = x[:, 0] * rng.uniform(-3, 3) + 1e-7 * rng.standard_normal(len(x))
            covs.append(np.cov(x, rowvar=False))
    covs.append(np.eye(4)[[2, 3, 0, 1]])
    covs.append(np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]]))
    covs.append(np.diag([-1.0, -1.0, 1.0]))
    return covs


def test_small_fits_equal_node_regression_bit_for_bit():
    infeasible = 0
    for cov in small_fit_covariances():
        p = len(cov)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = small_fits(np.stack([np.eye(p), cov]))[1]  # the second of a stack
        assert table.shape == (p + 1, p)
        assert np.all(table[np.arange(p), np.arange(p)] == np.inf)
        for j in range(p):
            for row in [a for a in range(p) if a != j] + [p]:
                try:
                    want = np.log(node_regression(cov, j, [row] if row < p else []))
                except DegenerateData:
                    want = np.inf
                    infeasible += 1
                assert table[row, j].tobytes() == np.float64(want).tobytes(), (p, row, j)
    assert infeasible > 0


def test_scorer_solves_only_new_fits_on_two_or_more_parents(monkeypatch):
    rng = np.random.default_rng(5)
    p = 6
    cov = sample_covariance(Dataset(range(p), rng.standard_normal((60, p))))
    want = fit_dag_ml(Dag(p, frozenset({(0, 2), (1, 2)})), cov, 60).chi_square
    solves, calls = [], []  # one (node, parents) per kernel row; rows per call
    kernel = scoring.log_psi

    def counted(covs, search, heads, parents):
        solves.extend(zip(heads.tolist(), map(tuple, parents.tolist())))
        calls.append(len(heads))
        return kernel(covs, search, heads, parents)

    monkeypatch.setattr(scoring, "log_psi", counted)
    scorer = scoring.Scorer(cov[None], (60,))
    first = np.zeros(3, dtype=int)  # every row scores under the one covariance
    small = np.zeros((3, p, p), dtype=bool)
    small[0, [0, 1, 2], [1, 2, 3]] = True  # a path: one parent each
    small[1, [5, 5, 5], [0, 1, 2]] = True  # a fan-out from node 5
    assert np.isfinite(scorer.chi_squares(small, first)).all()
    assert solves == []

    collider = np.zeros((3, p, p), dtype=bool)
    collider[:, [0, 1], 2] = True  # node 2 on parents {0, 1}, in every row
    collider[1, 4, 3] = True
    got = scorer.chi_squares(collider, first)
    assert solves == [(2, (0, 1))]
    assert got[0] == got[2] == want

    empty = np.zeros((0, p, p), dtype=bool)
    assert scorer.chi_squares(empty, first[:0]).shape == (0,)
    for batch in (small, collider, empty):  # a second pass solves nothing
        scorer.chi_squares(batch, first[: len(batch)])
    assert solves == [(2, (0, 1))]

    # one kernel call per parent count, each new key once, in batch order
    mixed = np.zeros((3, p, p), dtype=bool)
    mixed[0, [0, 1, 2], 3] = True
    mixed[1, [0, 1], 4] = True
    mixed[2, [0, 2], 4] = True
    mixed[2, [0, 1], 2] = True  # solved above
    mixed[1, [0, 1, 2], 3] = True
    del calls[:]
    scorer.chi_squares(mixed, first)
    assert solves[1:] == [(4, (0, 1)), (4, (0, 2)), (3, (0, 1, 2))] and calls == [2, 1]


def test_a_negative_variance_is_degenerate_without_parents():
    # the determinant is positive, so only the node's own check can catch it
    cov = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(DegenerateData, match="non-positive residual variance at node 0"):
        node_regression(cov, 0, [])
    assert small_fits(cov[None])[0, 3].tolist() == [np.inf, np.inf, 0.0]
    with pytest.raises(DegenerateData):
        fit_dag_ml(Dag(3, frozenset()), cov, 10)
    models = evolve(cov, 10, 3, ConstraintMask.empty(3), SearchParams(seed=1), None)
    assert all(np.isfinite(m.fit.chi_square) for m in models)


def test_fit_dag_ml_rejects_a_dag_of_another_size():
    with pytest.raises(ShapeMismatch, match="dag has 2 nodes, covariance is 3x3"):
        fit_dag_ml(Dag(2, frozenset()), np.eye(3), 10)


def test_column_and_dataset_reject_bad_input():
    with pytest.raises(ValueError, match="unknown column kind 'ordinal'"):
        Column("a", "ordinal")
    with pytest.raises(ShapeMismatch, match="values must be a 2-d matrix"):
        Dataset(["a"], [1.0, 2.0, 3.0])


def test_load_dataset_and_rank_normalize(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,2\n2,5\n4,1\n")
    data = load_dataset(path, kinds={"b": DISCRETE})
    assert data.names == ("a", "b")
    assert data.kinds() == (CONTINUOUS, DISCRETE)

    normed = rank_normalize(data)
    col = normed.values[:, 1]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std(ddof=1) - 1.0) < 1e-12
    # continuous column untouched
    assert np.array_equal(normed.values[:, 0], data.values[:, 0])
    # ties got the same midrank, hence the same normalized value
    assert col[0] == col[1]


def test_rank_normalize_matches_oracle_midranks():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(5, 60))
        discrete = rng.integers(0, int(rng.integers(2, 8)), size=n).astype(float)
        data = Dataset(
            [Column("c"), Column("d", DISCRETE)],
            np.column_stack([rng.standard_normal(n), discrete]),
        )
        ranks = oracle_midranks(discrete.tolist())
        expected = (ranks - ranks.mean()) / ranks.std(ddof=1)
        assert np.array_equal(rank_normalize(data).values[:, 1], expected)


def test_rank_normalize_rejects_an_all_tied_column():
    data = Dataset([Column("d", DISCRETE)], np.full((12, 1), 4.0))
    with pytest.raises(DegenerateData, match="discrete column 'd' is constant"):
        rank_normalize(data)


def test_load_dataset_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DegenerateData):
        load_dataset(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ShapeMismatch):
        load_dataset(ragged)

    text = tmp_path / "text.csv"
    text.write_text("a\nfoo\n")
    with pytest.raises(DegenerateData):
        load_dataset(text)
