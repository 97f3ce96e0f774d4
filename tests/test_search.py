from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    _clone_last_array,
    _rank_array,
    _survivors,
    oracle_crowding,
    oracle_dominates,
    oracle_exact_front,
    oracle_front_ranks,
    oracle_is_acyclic,
    oracle_pareto_front,
    oracle_reachability,
    oracle_survivors,
    sem_implied_covariance,
    stack_ids,
)
from stablesearch import scoring, search
from stablesearch.errors import DegenerateData
from stablesearch.graphs import ConstraintMask, Dag, arc_matrix, reachability, repair_arcs
from stablesearch.longitudinal import transition_mask
from stablesearch.scoring import Dataset, sample_covariance
from stablesearch.search import (
    SearchParams,
    _arcs,
    _clone_last,
    _crowding,
    _rank_stack,
    _survivor_stack,
    _tournament,
    _vary,
    evolve,
    evolve_batch,
    exact_front,
)
from stablesearch.stability import complete_dag_under


def ranks(points):
    """Front indices of one search: a stack of one."""
    return _rank_stack(*stack_ids(np.array(points, dtype=float)[None]))[0][0].tolist()


def crowding(points):
    """Crowding distances of one front: one segment, each objective keyed by
    its value's place among the front's distinct values."""
    objs = np.array(points, dtype=float).reshape(-1, 2)
    keys = np.column_stack([np.unique(col, return_inverse=True)[1] for col in objs.T])
    return _crowding(objs, np.zeros(len(objs), dtype=int), keys).tolist()


def tournament(rank, crowd, coin=False):
    """Winner of one tournament between candidates 0 and 1."""
    won = _tournament(
        np.array(rank), np.array(crowd, dtype=float), np.array([[0, 1]]), np.array([coin])
    )
    return int(won[0])


def vary_pair(a, b, rng, p_crossover=0.85, p_mutation=0.0, allowed=None):
    """Two offspring of one parent pair, drawn the way evolve draws them."""
    p = a.shape[0]
    if allowed is None:
        allowed = ~np.eye(p, dtype=bool)
    apply_cx = rng.random(1) < p_crossover
    mix = rng.random((1, p, p)) < 0.5
    do_mut = rng.random(2) < p_mutation
    flips = rng.random((int(do_mut.sum()), p, p)) < 1.0 / (p * (p - 1))
    offspring = np.stack([a, b])
    _vary(offspring, apply_cx, mix, np.flatnonzero(do_mut), flips, allowed)
    return offspring


def random_adj(rng, p, density=0.3):
    adj = rng.random((p, p)) < density
    np.fill_diagonal(adj, False)
    return adj


def test_dominates_examples():
    assert ranks([(1.0, 3), (2.0, 3)]) == [0, 1]
    assert ranks([(1.0, 3), (1.0, 3)]) == [0, 0]
    assert ranks([(1.0, 5), (2.0, 3)]) == [0, 0]
    # infeasible fits never dominate, but can be dominated
    assert ranks([(np.inf, 0), (np.inf, 3)]) == [0, 0]
    assert ranks([(5.0, 3), (np.inf, 3)]) == [0, 1]


def test_sort_single_front_and_chain():
    assert ranks([(1.0, 1)] * 5) == [0] * 5
    assert ranks([(4.0, 4), (3.0, 3), (2.0, 2), (1.0, 1)]) == [3, 2, 1, 0]


def test_sort_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for trial in range(10):
        objs = [
            (float(rng.integers(0, 12)), int(rng.integers(0, 6))) for _ in range(50)
        ]
        assert ranks(objs) == oracle_front_ranks(objs)


def test_sort_handles_infeasible_fits():
    # the infeasible individual is dominated by (7.0, 0) but dominates nothing
    assert ranks([(np.inf, 0), (5.0, 1), (7.0, 0)]) == [1, 0, 0]


def test_sort_matches_oracle_with_ties_and_infeasible_fits():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 60))
        chi = rng.integers(0, 8, size=n).astype(float)  # few values: many ties
        chi[rng.random(n) < 0.2] = np.inf
        objs = [(c, int(k)) for c, k in zip(chi.tolist(), rng.integers(0, 6, size=n))]
        assert ranks(objs) == oracle_front_ranks(objs)
    # infeasible rows below, between and above every feasible complexity
    objs = [(np.inf, 0), (3.0, 1), (np.inf, 2), (2.0, 3), (4.0, 3), (np.inf, 5)]
    assert ranks(objs) == oracle_front_ranks(objs) == [0, 0, 1, 0, 1, 2]


def test_crowding_small_fronts_and_hand_example():
    assert crowding([(1.0, 1)]) == [np.inf]
    assert crowding([(1.0, 1), (2.0, 0)]) == [np.inf, np.inf]
    three = crowding([(0.0, 10), (5.0, 5), (10.0, 0)])
    assert three[0] == np.inf and three[2] == np.inf
    assert three[1] == pytest.approx(2.0)


def test_crowding_matches_oracle_with_ties_and_infeasible_fits():
    rng = np.random.default_rng(12)
    for trial in range(60):
        m = int(rng.integers(1, 12))
        chi = rng.integers(0, 5, size=m).astype(float)
        chi[rng.random(m) < 0.25] = np.inf
        points = [(c, int(k)) for c, k in zip(chi.tolist(), rng.integers(0, 4, size=m))]
        assert crowding(points) == oracle_crowding(points)


def test_survivors_match_oracle():
    rng = np.random.default_rng(13)
    cases = 0
    for trial in range(60):
        m = int(rng.integers(4, 40))
        chi = rng.integers(0, 6, size=m).astype(float)  # few values: many ties
        chi[rng.random(m) < 0.2] = np.inf
        points = [(c, int(k)) for c, k in zip(chi.tolist(), rng.integers(0, 6, size=m))]
        objs, ranks = np.array(points, dtype=float), np.array(oracle_front_ranks(points))
        ids, table = stack_ids(objs[None])
        got_ranks, keys = _rank_stack(ids, table)
        assert got_ranks[0].tolist() == ranks.tolist()
        filled = np.cumsum(np.bincount(ranks)).tolist()  # a front ends exactly at each
        for k in {1, int(rng.integers(1, m + 1)), *filled[:2], m}:
            kept, crowd = _survivor_stack(ids, table, got_ranks, keys, k)
            kept, crowd = kept[0], crowd[0]
            want_kept, want_crowd = oracle_survivors(points, k)
            assert kept.tolist() == want_kept
            assert crowd[kept].tolist() == want_crowd
            assert np.isnan(np.delete(crowd, kept)).all()
            cases += k < m and k not in filled  # a split front
    assert cases > 50


def random_stacks():
    """300 random (S, 2N, 2) stacks of scores, with their (ids, table) and N:
    few values, so copies and split fronts abound, and +inf rows.  A score
    is held by up to three genotypes, each its own id."""
    rng = np.random.default_rng(39)
    for _ in range(300):
        n_s, half = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        chi = rng.integers(0, rng.integers(1, 9), size=(n_s, 2 * half)).astype(float)
        chi[rng.random(chi.shape) < 0.2] = np.inf
        k = rng.integers(0, int(rng.integers(1, 7)), size=chi.shape)
        objs = np.stack([chi, k], axis=-1).astype(float)
        yield objs, *stack_ids(objs, rng.integers(0, 3, size=chi.shape)), half


def test_batched_ranks_and_survivors_match_the_per_search_loops():
    """_rank_stack and _survivor_stack on the ids of random_stacks()
    against the per-search _rank_array and _survivors on the stacks, bit
    for bit: ranks, kept order and crowding distances (NaN where a row is
    dropped)."""
    seen = {"infeasible": 0, "copies": 0, "small fronts": 0, "split": 0}
    for objs, ids, table, half in random_stacks():
        n_s = len(objs)
        ranks, keys = _rank_stack(ids, table)
        for keep in (half, 2 * half):  # a generation's truncation, the initial crowding
            kept, crowd = _survivor_stack(ids, table, ranks, keys, keep)
            for s in range(n_s):
                want_ranks = _rank_array(objs[s])
                assert ranks[s].tolist() == want_ranks.tolist()
                want_kept, want_crowd = _survivors(objs[s], want_ranks, keep)
                assert kept[s].tolist() == want_kept.tolist()
                assert crowd[s].tobytes() == want_crowd.tobytes()
                sizes = np.bincount(want_ranks)
                seen["infeasible"] += bool(np.isinf(objs[s, :, 0]).any())
                seen["copies"] += len(np.unique(objs[s], axis=0)) < len(objs[s])
                seen["small fronts"] += bool((sizes <= 2).any())
                seen["split"] += keep not in np.cumsum(sizes)
    assert min(seen.values()) > 100, seen


def test_clone_last_ranks_and_survivors_match_the_per_search_loops():
    """_clone_last on random_stacks(), then _survivor_stack, against the
    per-search _clone_last_array and _survivors on those ranks, bit for
    bit: ranks, kept order and crowding distances."""
    seen = {"demoted": 0, "copy split": 0, "distinct split": 0, "infeasible copies": 0}
    for objs, ids, table, half in random_stacks():
        ranks, keys = _clone_last(*_rank_stack(ids, table))
        for keep in (half, 2 * half):
            kept, crowd = _survivor_stack(ids, table, ranks, keys, keep)
            for s in range(len(objs)):
                want_ranks = _clone_last_array(objs[s])
                assert ranks[s].tolist() == want_ranks.tolist()
                want_kept, want_crowd = _survivors(objs[s], want_ranks, keep)
                assert kept[s].tolist() == want_kept.tolist()
                assert crowd[s].tobytes() == want_crowd.tobytes()
                demoted = want_ranks > _rank_array(objs[s]).max()
                split = np.sort(want_ranks)[keep - 1]
                seen["demoted"] += bool(demoted.any())
                seen["infeasible copies"] += bool(np.isinf(objs[s, demoted, 0]).any())
                if keep < 2 * half and (want_ranks == split).sum() > 1:
                    seen["copy split" if demoted[want_ranks == split][0] else
                         "distinct split"] += keep < (want_ranks <= split).sum()
    assert min(seen.values()) > 50, seen


def test_clone_last_without_copies_is_the_plain_sort():
    """Where no search of a stack repeats a point, clone-last ranks are the
    plain fronts and the survivors and crowding bits are the plain ones."""
    rng = np.random.default_rng(42)
    cells = np.array([(c, k) for c in (*range(8), np.inf) for k in range(6)], dtype=float)
    for _ in range(200):
        n_s, m = int(rng.integers(1, 6)), int(rng.integers(2, 24))
        objs = np.stack([cells[rng.choice(len(cells), m, replace=False)] for _ in range(n_s)])
        ids, table = stack_ids(objs)
        front, keys = _rank_stack(ids, table)
        ranks, shifted = _clone_last(front, keys)
        assert ranks.tolist() == front.tolist()
        for keep in {1, m // 2, m}:
            plain = _survivor_stack(ids, table, front, keys, keep)
            clone_last = _survivor_stack(ids, table, ranks, shifted, keep)
            assert plain[0].tolist() == clone_last[0].tolist()
            assert plain[1].tobytes() == clone_last[1].tobytes()


def test_evolve_keeps_no_copy_while_dropping_a_distinct_point(monkeypatch):
    """Every generation's survivors of every search hold a copy of a point
    only when they hold every distinct point of the union."""
    survivor_stack, checked = search._survivor_stack, []

    def recorded(ids, table, ranks, keys, k):
        kept, crowd = survivor_stack(ids, table, ranks, keys, k)
        if ids.shape[1] == 2 * k:  # a generation's union
            for row_ids, rows in zip(ids, kept):
                points = [tuple(pt) for pt in table[row_ids, :2].tolist()]
                held = [points[i] for i in rows]
                copies, dropped = len(held) > len(set(held)), set(points) - set(held)
                assert not (copies and dropped)
                checked.append((copies, bool(dropped)))
        return kept, crowd

    monkeypatch.setattr(search, "_survivor_stack", recorded)
    rng = np.random.default_rng(41)
    for p in (3, 10):  # fewer distinct points than the population, then more
        covs, ns, masks = zip(*[random_problem(rng, p, "unmasked", 200) for _ in range(3)])
        evolve_batch(np.array(covs), ns, (1, 2, 3), masks[0], SearchParams(seed=0), None)
    assert len(checked) == 6 * SearchParams().generations
    assert {(True, False), (False, True)} <= set(checked)


def test_infeasible_points_tie_in_row_order_within_a_front():
    """Two infeasible points of different complexity share front 1 with two
    feasible ones; their copies interleave in row order.  On the chi-square
    axis both sit at the clipped ceiling, so their rows tie and keep row
    order (kept order, once a split front is cut): the batched helpers
    equal the per-search loops bit for bit at a split and at an unsplit
    truncation, whichever genotypes hold the copies."""
    inf = search.INFEASIBLE
    objs = np.array([
        (inf, 4), (1.0, 0), (inf, 2), (2.0, 6), (inf, 4), (inf, 2),
        (1.5, 7), (inf, 2), (inf, 4), (2.0, 6), (1.0, 0), (9.0, 9),
    ])
    want_ranks = _rank_array(objs)
    assert want_ranks.tolist() == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 2]
    for tags in (None, np.arange(len(objs)) % 2):
        ids, table = stack_ids(objs[None], tags)
        got_ranks, keys = _rank_stack(ids, table)
        assert got_ranks[0].tolist() == want_ranks.tolist()
        for keep in (6, 11):  # front 1 cut to 4 of its 9 rows; fronts 0 and 1 whole
            kept, crowd = _survivor_stack(ids, table, got_ranks, keys, keep)
            want_kept, want_crowd = _survivors(objs, want_ranks, keep)
            assert kept[0].tolist() == want_kept.tolist()
            assert crowd[0].tobytes() == want_crowd.tobytes()


def test_tournament_rank_and_crowding_rules():
    assert tournament([0, 2], [1.0, 1.0]) == 0
    assert tournament([2, 0], [1.0, 1.0]) == 1
    assert tournament([0, 0], [np.inf, 1.0]) == 0
    assert tournament([0, 0], [1.0, 3.0]) == 1
    assert tournament([0, 0], [1.0, 1.0], coin=True) == 0
    assert tournament([0, 0], [1.0, 1.0], coin=False) == 1


def test_tournament_is_fair_on_identical_candidates():
    rng = np.random.default_rng(1)
    trials = 10_000
    cand = rng.integers(0, 2, size=(trials, 2))
    coin = rng.random(trials) < 0.5
    winners = _tournament(np.zeros(2, dtype=np.int64), np.full(2, np.inf), cand, coin)
    assert np.all((winners == cand[:, 0]) | (winners == cand[:, 1]))
    assert abs(np.mean(winners == 0) - 0.5) < 0.05


def test_crossover_identity_cases():
    rng = np.random.default_rng(2)
    a = arc_matrix(3, [(0, 1), (1, 2)])
    c1, c2 = vary_pair(a, a.copy(), rng, p_crossover=1.0)
    assert np.array_equal(c1, a) and np.array_equal(c2, a)

    a = arc_matrix(3, [(0, 1)])
    b = arc_matrix(3, [(2, 1)])
    c1, c2 = vary_pair(a, b, rng, p_crossover=0.0)
    assert np.array_equal(c1, a) and np.array_equal(c2, b)


def test_crossover_children_within_parent_union():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pa, pb = random_adj(rng, 4), random_adj(rng, 4)
        c1, c2 = vary_pair(pa, pb, rng, p_crossover=1.0)
        # uniform crossover exchanges cells, so the pair keeps union and overlap
        assert np.array_equal(c1 | c2, pa | pb)
        assert np.array_equal(c1 & c2, pa & pb)


def test_mutate_identity_and_mask_respect():
    rng = np.random.default_rng(4)
    mask = ConstraintMask.empty(3).with_forbidden([(0, 1), (2, 1)])
    allowed = ~mask.forbidden
    c = arc_matrix(3, [(1, 0)])
    same, _ = vary_pair(c, c, rng, p_crossover=0.0, p_mutation=0.0, allowed=allowed)
    assert np.array_equal(same, c)
    for _ in range(300):
        c, _ = vary_pair(c, c, rng, p_crossover=0.0, p_mutation=1.0, allowed=allowed)
        assert not c[0, 1] and not c[2, 1]
        assert not c.diagonal().any()


def test_mutate_expected_flip_count():
    rng = np.random.default_rng(5)
    trials, p = 10_000, 4
    base = np.zeros((trials // 2, p, p), dtype=bool)
    no_cx = np.zeros(trials // 2, dtype=bool)
    flip = rng.random((trials, p, p)) < 1.0 / (p * (p - 1))
    out = np.zeros((trials, p, p), dtype=bool)
    _vary(out, no_cx, base, np.arange(trials), flip, ~np.eye(p, dtype=bool))
    assert abs(out.sum() / trials - 1.0) < 0.1


def test_fast_acyclicity_check_matches_oracle():
    rng = np.random.default_rng(6)
    # a triangle is the classic miss for naive power-of-two reachability
    tri = arc_matrix(3, [(0, 1), (1, 2), (2, 0)])
    assert reachability(tri).diagonal().all()
    for _ in range(300):
        p = int(rng.integers(2, 8))
        adj = random_adj(rng, p)
        arcs = _arcs(adj)
        reach = reachability(adj)
        assert np.array_equal(reach, oracle_reachability(p, arcs))
        assert (not reach.diagonal().any()) == oracle_is_acyclic(p, arcs)


def scalar_chi_square(cov, n, adj, infeasible=frozenset()):
    """The per-row scoring loop that the batched scorer replaced.

    infeasible holds (node, parents) keys whose fit is taken to degenerate.
    """
    logdet_s = np.linalg.slogdet(cov)[1]
    total = 0.0
    for j, col in enumerate(adj.T.tolist()):
        pa = [i for i, arc in enumerate(col) if arc]
        if (j, tuple(pa)) in infeasible:
            return search.INFEASIBLE
        if not pa:
            psi = float(cov[j, j])
        else:
            try:
                beta = np.linalg.solve(cov[np.ix_(pa, pa)], cov[pa, j])
            except np.linalg.LinAlgError:
                return search.INFEASIBLE
            psi = float(cov[j, j] - cov[j, pa] @ beta)
            if psi <= 0 or not np.isfinite(psi):
                return search.INFEASIBLE
        total += np.log(psi)
    return max((n - 1) * (total - logdet_s), 0.0)


def force_degenerate(monkeypatch, bad, solves=None):
    """Make the fit of key bad = (node, parents) degenerate on the path that
    scores it: the small_fits table for at most one parent, log_psi for more.
    solves, if given, records the node of each row log_psi solves."""
    node, parents = bad
    small_fits, kernel = scoring.small_fits, scoring.log_psi

    def table(covs):
        fits = small_fits(covs)
        if len(parents) <= 1:
            fits[:, parents[0] if parents else covs.shape[1], node] = np.inf
        return fits

    def degenerate(covs, search, heads, pa):
        if solves is not None:
            solves.extend(heads.tolist())
        out = kernel(covs, search, heads, pa)
        out[[(j, tuple(row)) == bad for j, row in zip(heads.tolist(), pa.tolist())]] = np.inf
        return out

    monkeypatch.setattr(scoring, "small_fits", table)
    monkeypatch.setattr(scoring, "log_psi", degenerate)


@pytest.mark.parametrize("p", [5, 8, 16, 70])
def test_batched_scorer_equals_per_row_loop(p, monkeypatch):
    rng = np.random.default_rng(p)
    n = 3 * p + 20
    cov = sample_covariance(Dataset(range(p), rng.standard_normal((n, p))))
    batches = []
    for density in (0.05, 2.0 / p, 0.3):
        adjs = np.stack([random_adj(rng, p, density) for _ in range(30)])
        batches.append(np.concatenate([adjs, adjs[::3]]))  # duplicate rows
    # the shapes evolve passes: one C-ordered new individual, and rows
    # fancy-indexed out of a larger population
    batches.append(np.ascontiguousarray(random_adj(rng, p)[None]))
    batches.append(np.concatenate(batches[:3])[rng.permutation(120)[:17]])
    # force one key of the first batch infeasible, the node's fit degenerating
    i, j = 1, p - 1
    bad = (j, tuple(np.flatnonzero(batches[0][i, :, j]).tolist()))
    solves = []
    force_degenerate(monkeypatch, bad, solves)
    scorer = scoring.Scorer(cov[None], (n,))
    wants = [[scalar_chi_square(cov, n, adj, {bad}) for adj in adjs] for adjs in batches]
    for adjs, want in zip(batches, wants):
        assert scorer.chi_squares(adjs, np.zeros(len(adjs), dtype=int)).tolist() == want
    solved = len(solves)
    for adjs, want in zip(batches, wants):  # the repeats hit the key cache
        assert scorer.chi_squares(adjs, np.zeros(len(adjs), dtype=int)).tolist() == want
    assert len(solves) == solved
    assert search.INFEASIBLE in wants[0]


def test_evolve_scores_each_distinct_individual_once(monkeypatch):
    scored, covs, varied, ranked = [], [], [], []
    chi_squares, vary = scoring.Scorer.chi_squares, search._vary

    def recorded(self, adjs, search):
        scored.extend(adj.tobytes() for adj in adjs)
        covs.append(self.covs[0])
        return chi_squares(self, adjs, search)

    def recorded_vary(offspring, *args):
        vary(offspring, *args)
        varied.append(offspring)  # the array settle then repairs in place

    # node 4 without parents degenerates: a common infeasible key, so
    # infeasible individuals are bred again
    bad = (4, ())
    force_degenerate(monkeypatch, bad)
    monkeypatch.setattr(scoring.Scorer, "chi_squares", recorded)
    monkeypatch.setattr(search, "_vary", recorded_vary)
    monkeypatch.setattr(
        search, "_rank_stack",
        lambda ids, table: ranked.append(table[ids[0], :2]) or _rank_stack(ids, table),
    )
    golden_run("cross")
    assert len(scored) == len(set(scored))

    # every offspring visit (repaired in place) reads what the scalar loop
    # gives; the union ranked after generation g ends with its offspring
    cov = covs[0]
    infeasible = []
    for offspring, objs in zip(varied, ranked[1:]):
        for adj, (chi, k) in zip(offspring, objs[-len(offspring):].tolist()):
            assert (chi, k) == (scalar_chi_square(cov, 300, adj, {bad}), adj.sum())
            if chi == search.INFEASIBLE:
                infeasible.append(adj.tobytes())
    assert len(infeasible) > len(set(infeasible)) > 0  # revisited, still infeasible


def test_evolve_ranks_once_per_generation(monkeypatch):
    calls = []

    def counted(ids, table):
        calls.append(ids.shape)
        return _rank_stack(ids, table)

    monkeypatch.setattr(search, "_rank_stack", counted)
    golden_run("cross")
    assert calls == [(1, 24)] + [(1, 48)] * 12


def dataset_from_model(n, weighted_arcs, rng, rows):
    p = n
    sigma = sem_implied_covariance(p, weighted_arcs, [1.0] * p)
    chol = np.linalg.cholesky(sigma)
    vals = rng.standard_normal((rows, p)) @ chol.T
    return Dataset([f"X{i}" for i in range(p)], vals)


def test_evolve_two_variables_recovers_both_front_points():
    rng = np.random.default_rng(7)
    data = dataset_from_model(2, {(0, 1): 0.9}, rng, 500)
    cov = sample_covariance(data)
    mask = ConstraintMask.empty(2)
    params = SearchParams(generations=10, population_size=20, seed=1)
    models = evolve(cov, data.n_rows, 2, mask, params, None)

    expect = oracle_pareto_front(2, cov, data.n_rows)
    assert sorted(m.fit.complexity for m in models) == sorted(expect)
    for m in models:
        assert m.fit.chi_square == pytest.approx(expect[m.fit.complexity], abs=1e-6)
    one_arc = next(m for m in models if m.fit.complexity == 1)
    assert one_arc.cpdag.undirected == frozenset({(0, 1)})


def test_evolve_same_seed_same_result():
    rng = np.random.default_rng(8)
    data = dataset_from_model(3, {(0, 1): 0.8, (1, 2): -0.6}, rng, 300)
    cov = sample_covariance(data)
    mask = ConstraintMask.empty(3)
    params = SearchParams(generations=8, population_size=16, seed=42)
    first = evolve(cov, data.n_rows, 3, mask, params, None)
    second = evolve(cov, data.n_rows, 3, mask, params, None)
    assert [m.dag.arcs for m in first] == [m.dag.arcs for m in second]
    assert [m.fit.chi_square for m in first] == [m.fit.chi_square for m in second]


def test_evolve_all_arcs_forbidden_returns_empty_model():
    rng = np.random.default_rng(9)
    data = dataset_from_model(3, {(0, 1): 0.8}, rng, 200)
    cov = sample_covariance(data)
    every = [(a, b) for a in range(3) for b in range(3) if a != b]
    mask = ConstraintMask.empty(3).with_forbidden(every)
    params = SearchParams(generations=5, population_size=8, seed=0)
    models = evolve(cov, data.n_rows, 3, mask, params, None)
    assert len(models) == 1
    assert models[0].dag.arcs == frozenset()


def test_evolve_respects_mask_and_mutual_nondomination():
    rng = np.random.default_rng(10)
    for trial in range(5):
        data = dataset_from_model(
            4, {(0, 1): 0.7, (2, 3): -0.8, (0, 3): 0.5}, rng, 250
        )
        cov = sample_covariance(data)
        forbidden = rng.random((4, 4)) < 0.2
        mask = ConstraintMask(4, forbidden)
        params = SearchParams(generations=12, population_size=24, seed=trial)
        models = evolve(cov, data.n_rows, 4, mask, params, None)
        assert models
        for m in models:
            assert all(mask.allows(a, b) for a, b in m.dag.arcs)
            assert m.fit.complexity <= 6
        objs = [(m.fit.chi_square, m.fit.complexity) for m in models]
        for x in objs:
            for y in objs:
                if x is not y:
                    assert not oracle_dominates(x, y)


def test_evolve_matches_exhaustive_front_three_variables():
    hits = 0
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        data = dataset_from_model(3, {(0, 1): 0.8, (0, 2): 0.6}, rng, 400)
        cov = sample_covariance(data)
        expect = oracle_pareto_front(3, cov, data.n_rows)
        models = evolve(
            cov, data.n_rows, 3, ConstraintMask.empty(3),
            SearchParams(seed=seed), None,
        )
        got = {m.fit.complexity: m.fit.chi_square for m in models}
        if set(got) == set(expect) and all(
            abs(got[k] - expect[k]) < 1e-6 for k in expect
        ):
            hits += 1
    assert hits >= 2


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_evolve_never_beats_the_exact_front(p, masked):
    rng = np.random.default_rng(30 + p + 10 * masked)
    for trial in range(2):
        order = rng.permutation(p).tolist()
        arcs = {
            (order[a], order[b]): float(rng.choice([-1, 1]) * rng.uniform(0.3, 1.0))
            for a in range(p) for b in range(a + 1, p) if rng.random() < 0.4
        }
        data = dataset_from_model(p, arcs, rng, 200)
        cov, n = sample_covariance(data), data.n_rows
        forbidden = np.zeros((p, p), dtype=bool)
        if masked:
            forbidden = (rng.random((p, p)) < 0.3) & ~np.eye(p, dtype=bool)
        mask = ConstraintMask(p, forbidden)
        optimum, front = oracle_exact_front(cov, n, mask)

        chis = [m.fit.chi_square for m in front]
        assert chis == sorted(chis, reverse=True) and len(set(chis)) == len(chis)
        scorer = scoring.Scorer(cov[None], (n,))
        for m in front:
            assert all(mask.allows(a, b) for a, b in m.dag.arcs)
            adj = arc_matrix(p, m.dag.arcs)[None]
            chi = scorer.chi_squares(adj, np.zeros(1, dtype=int))[0]
            assert chi == m.fit.chi_square == optimum[m.fit.complexity]
        if p <= 4:
            brute = oracle_pareto_front(p, cov, n, forbidden)
            assert [m.fit.complexity for m in front] == sorted(brute)
            for m in front:
                want = brute[m.fit.complexity]
                assert m.fit.chi_square == pytest.approx(want, rel=1e-9, abs=1e-9)

        # the search's own score is never below its exact optimum
        for m in evolve(cov, n, p, mask, SearchParams(seed=trial), None):
            want = optimum[m.fit.complexity]
            assert m.fit.chi_square >= want - 1e-12 * max(want, 1.0)


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(p_crossover=1.5)
    with pytest.raises(ValueError):
        SearchParams(population_size=7)
    with pytest.raises(ValueError):
        SearchParams(generations=0)
    for bad in (
        {"generations": 2.5},
        {"population_size": 10.0},
        {"generations": True},
        {"p_crossover": True},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            SearchParams(**bad)


def test_adjacency_arcs_roundtrip_and_order():
    full = ~np.eye(3, dtype=bool)
    assert _arcs(full) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    adj = arc_matrix(3, {(1, 2), (0, 1)})
    assert _arcs(adj) == [(0, 1), (1, 2)]
    assert Dag(3, frozenset(_arcs(adj))) == Dag(3, frozenset({(0, 1), (1, 2)}))


GOLDEN_ARCS = {(0, 1): 0.8, (1, 2): -0.6, (0, 3): 0.5, (3, 4): 0.7, (2, 4): 0.4}

# (sorted arcs, chi-square) of every returned model at a fixed seed; a change
# to the order of generator draws, to cycle repair or to survival changes
# these runs
GOLDEN_RUNS = {
    "cross": [
        ([], 471.2896504027231),
        ([(0, 1)], 339.8227365944575),
        ([(1, 0), (1, 2)], 221.97633205345275),
        ([(0, 1), (1, 2), (4, 3)], 108.81840210777285),
        ([(0, 1), (1, 2), (3, 0), (3, 4)], 44.97901313782286),
        ([(0, 1), (1, 2), (2, 4), (3, 0), (3, 4)], 1.0346170768141256),
    ],
    "masked": [
        ([], 471.2896504027231),
        ([(0, 1)], 339.8227365944575),
        ([(0, 1), (1, 2)], 221.97633205345275),
        ([(0, 1), (1, 2), (3, 4)], 108.81840210777285),
        ([(0, 1), (1, 2), (2, 4), (3, 4)], 64.87400604676412),
        ([(0, 1), (1, 2), (1, 3), (2, 3), (4, 3)], 55.794824920768924),
        ([(0, 1), (1, 2), (1, 4), (2, 3), (2, 4), (4, 3)], 51.41007649515287),
    ],
    "dense": [
        ([], 306.09094049505296),
        ([(1, 0)], 141.79094662905126),
        ([(1, 0), (2, 1)], 0.021809898910824792),
        ([(0, 1), (0, 2), (2, 1)], 2.6971480604487397e-14),
    ],
}


def golden_run(kind):
    """The search behind GOLDEN_RUNS[kind]: p=5, or p=3 for "dense".

    At p=3 the initial arc rate is 1/3, so about 30% of the initial
    individuals hold a 2-cycle and are repaired during the init.
    """
    p = 3 if kind == "dense" else 5
    rng = np.random.default_rng(20261018)
    arcs = {arc: w for arc, w in GOLDEN_ARCS.items() if max(arc) < p}
    sigma = sem_implied_covariance(p, arcs, [1.0] * p)
    vals = rng.standard_normal((300, p)) @ np.linalg.cholesky(sigma).T
    cov = sample_covariance(Dataset([f"X{i}" for i in range(p)], vals))
    mask = ConstraintMask.empty(p)
    if kind == "masked":
        later_to_earlier = [(b, a) for a in range(5) for b in range(a + 2, 5)]
        mask = mask.with_forbidden(later_to_earlier + [(1, 0), (2, 1)])
    params = SearchParams(generations=12, population_size=24, seed=5)
    return evolve(cov, 300, p, mask, params, None)


@pytest.mark.parametrize("kind", sorted(GOLDEN_RUNS))
def test_evolve_matches_recorded_runs(kind, monkeypatch):
    def refit(*args):
        raise AssertionError("the search's own scores are returned, not refitted")

    monkeypatch.setattr(search, "fit_dag_ml", refit)
    models = golden_run(kind)
    got = [(sorted(m.dag.arcs), m.fit.chi_square) for m in models]
    assert [arcs for arcs, _ in got] == [arcs for arcs, _ in GOLDEN_RUNS[kind]]
    for (_, chi), (_, want) in zip(got, GOLDEN_RUNS[kind]):
        assert chi == pytest.approx(want, rel=1e-9, abs=1e-9)
    for m in models:
        assert m.fit.complexity == len(m.dag.arcs)
        assert m.fit.bic == m.fit.chi_square + m.fit.complexity * np.log(300)


def test_evolve_drops_infeasible_front_rows(monkeypatch):
    # node 4 without parents degenerates, so the empty model is infeasible
    # and, with nothing of complexity 0 to dominate it, stays in front 0
    force_degenerate(monkeypatch, (4, ()))
    fronts = []
    postfilter = search._pareto_postfilter

    def recorded(front_adj, front_objs, *args):
        fronts.append(front_objs)
        return postfilter(front_adj, front_objs, *args)

    monkeypatch.setattr(search, "_pareto_postfilter", recorded)
    models = golden_run("cross")
    assert search.INFEASIBLE in fronts[0][:, 0]
    assert models and all(np.isfinite(m.fit.chi_square) for m in models)


def per_row_postfilter(front_adj, front_objs):
    """The post-filter's pick compared row by row, copies included:
    (complexity, chi-square, row-major arcs) per complexity."""
    best = {}
    for adj, (chi, k) in zip(front_adj, front_objs.tolist()):
        k, model = int(k), (chi, _arcs(adj))
        if chi != search.INFEASIBLE and (k not in best or model < best[k]):
            best[k] = model
    return [(k, chi, arcs) for k, (chi, arcs) in sorted(best.items())]


def test_pareto_postfilter_matches_the_per_row_loop():
    rng = np.random.default_rng(34)
    copies = 0
    for _ in range(200):
        p = int(rng.integers(2, 7))
        order = rng.permutation(p)
        upper = np.triu(rng.random((int(rng.integers(1, 9)), p, p)) < 0.4, 1)
        # acyclic under a random order; one score per distinct row, as in the memo
        distinct = np.unique(upper[:, order][:, :, order], axis=0)
        # few chi-square values, so equal scores tie-break on the arcs
        chis = rng.choice([0.5, 1.0, 2.0, search.INFEASIBLE], size=len(distinct))
        pick = rng.integers(0, len(distinct), size=int(rng.integers(1, 40)))
        copies += len(pick) > len(set(pick.tolist()))
        front_adj = distinct[pick]
        front_objs = np.column_stack((chis[pick], front_adj.sum(axis=(1, 2))))
        models = search._pareto_postfilter(
            front_adj, front_objs, ConstraintMask.empty(p), 100, None
        )
        got = [(m.fit.complexity, m.fit.chi_square, sorted(m.dag.arcs)) for m in models]
        assert got == per_row_postfilter(front_adj, front_objs)
    assert copies > 100


# repair_arcs calls of the golden runs: one per cyclic initial individual
# and one per cyclic offspring new to the search
GOLDEN_REPAIRS = {"cross": 32, "dense": 46, "masked": 13}


@pytest.mark.parametrize("kind", sorted(GOLDEN_REPAIRS))
def test_evolve_repairs_only_cyclic_offspring(kind, monkeypatch):
    calls = []

    def counted(adj, rng):
        calls.append(_arcs(adj))
        assert not oracle_is_acyclic(len(adj), calls[-1])
        repair_arcs(adj, rng)
        assert oracle_is_acyclic(len(adj), _arcs(adj))

    monkeypatch.setattr(search, "repair_arcs", counted)
    golden_run(kind)
    assert len(calls) == GOLDEN_REPAIRS[kind]


def front_bits(models):
    """Each model's arcs and the bits of its fit."""
    return [(sorted(m.dag.arcs), m.fit.chi_square.hex(), m.fit.complexity, m.fit.bic.hex())
            for m in models]


@pytest.mark.parametrize("kind", ["unmasked", "random"])
@pytest.mark.parametrize("size", [1, 2, 5])
def test_evolve_batch_equals_each_search_alone(size, kind):
    # p = 10 is past search.EXACT_NODES; the searches differ in covariance,
    # row count and seed, and share the mask and the other settings
    rng = np.random.default_rng(70 + size + 10 * (kind == "random"))
    problems = [random_problem(rng, 10, kind, rows=40 + 10 * s) for s in range(size)]
    covs, ns, masks = zip(*problems)
    params = SearchParams(generations=6, population_size=12, seed=0)
    seeds = rng.integers(0, 2**32, size).tolist()
    batched = evolve_batch(np.array(covs), ns, seeds, masks[0], params, None)
    for cov, n, seed, got in zip(covs, ns, seeds, batched, strict=True):
        alone = evolve(cov, n, 10, masks[0], replace(params, seed=seed), None)
        assert front_bits(got) == front_bits(alone) != []


def test_memo_ids_stay_per_search(monkeypatch):
    """Two searches of one batch with one seed start from the same
    individuals, under different covariances and row counts: every offspring
    row reads its own search's chi-square through an id of its own search,
    also for a genotype both searches hold, and each front is the one its
    search returns alone."""
    rng = np.random.default_rng(40)
    covs, ns, masks = zip(*[random_problem(rng, 10, "unmasked", rows) for rows in (60, 90)])
    varied, ranked = [], []
    vary = search._vary

    def recorded_vary(offspring, *args):
        vary(offspring, *args)
        varied.append(offspring)  # the array settle then repairs in place

    monkeypatch.setattr(search, "_vary", recorded_vary)
    monkeypatch.setattr(
        search, "_rank_stack",
        lambda ids, table: ranked.append((ids, table)) or _rank_stack(ids, table),
    )
    params = SearchParams(generations=4, population_size=12, seed=5)
    batched = evolve_batch(np.array(covs), ns, (5, 5), masks[0], params, None)
    held = [{}, {}]  # per search: genotype -> chi-square
    for offspring, (ids, table) in zip(varied, ranked[1:]):
        assert not set(ids[0].tolist()) & set(ids[1].tolist())
        objs = table[ids[:, -12:], :2]
        for s in range(2):
            for adj, (chi, k) in zip(offspring[12 * s : 12 * (s + 1)], objs[s].tolist()):
                assert (chi, k) == (scalar_chi_square(covs[s], ns[s], adj), adj.sum())
                held[s][adj.tobytes()] = chi
    shared = held[0].keys() & held[1].keys()
    assert any(held[0][key] != held[1][key] for key in shared)
    for s in range(2):
        alone = evolve(covs[s], ns[s], 10, masks[0], params, None)
        assert front_bits(batched[s]) == front_bits(alone)


def test_evolve_rejects_dimensions_that_disagree():
    params = SearchParams(population_size=4, generations=1, seed=0)
    with pytest.raises(DegenerateData, match="covariance, mask and p disagree on dimensions"):
        evolve(np.eye(3), 50, 3, ConstraintMask.empty(4), params, None)
    with pytest.raises(DegenerateData, match="covariance, mask and p disagree on dimensions"):
        evolve(np.eye(4), 50, 3, ConstraintMask.empty(3), params, None)


def random_problem(rng, p, kind, rows=200):
    """(covariance, rows, mask) of a random SEM; the mask is empty, random, or
    root-heavy: arcs into about half the nodes forbidden, as in a transition
    model's prev slice, plus a few random ones."""
    order = rng.permutation(p).tolist()
    arcs = {
        (order[a], order[b]): float(rng.choice([-1, 1]) * rng.uniform(0.3, 1.0))
        for a in range(p) for b in range(a + 1, p) if rng.random() < 0.4
    }
    data = dataset_from_model(p, arcs, rng, rows)
    forbidden = np.zeros((p, p), dtype=bool)
    if kind == "random":
        forbidden = rng.random((p, p)) < 0.3
    elif kind == "roots":
        forbidden = rng.random((p, p)) < 0.2
        forbidden[:, rng.random(p) < 0.5] = True
    return sample_covariance(data), rows, ConstraintMask(p, forbidden)


@pytest.mark.parametrize("kind", ["unmasked", "random", "roots"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_exact_front_matches_the_oracle(p, kind):
    rng = np.random.default_rng(60 + p)
    for _ in range(4):
        cov, n, mask = random_problem(rng, p, kind)
        _, want = oracle_exact_front(cov, n, mask)
        got = exact_front(cov, n, mask, None)
        assert [m.fit.complexity for m in got] == [m.fit.complexity for m in want]
        scorer = scoring.Scorer(cov[None], (n,))
        for g, w in zip(got, want):
            # a Markov-equivalent tie may pick another DAG of the same score,
            # up to rounding; the complete DAG's chi-square is 0 up to rounding
            assert g.fit.chi_square == pytest.approx(w.fit.chi_square, rel=1e-9, abs=1e-9)
            assert all(mask.allows(a, b) for a, b in g.dag.arcs)
            assert g.fit.complexity == len(g.dag.arcs)
            adj = arc_matrix(p, g.dag.arcs)[None]
            assert scorer.chi_squares(adj, np.zeros(1, dtype=int))[0] == g.fit.chi_square


def test_exact_front_with_no_allowed_arc_is_the_empty_dag():
    cov, n, _ = random_problem(np.random.default_rng(5), 4, "unmasked")
    mask = ConstraintMask(4, np.ones((4, 4), dtype=bool))
    (model,) = exact_front(cov, n, mask, ("a", "b", "c", "d"))
    assert model.dag.arcs == frozenset() and model.dag.labels == ("a", "b", "c", "d")
    scorer = scoring.Scorer(cov[None], (n,))
    empty = np.zeros((1, 4, 4), dtype=bool)
    assert model.fit.chi_square == scorer.chi_squares(empty, np.zeros(1, dtype=int))[0]


def test_exact_front_never_chooses_a_degenerate_parent_block():
    # two copies of a 3-node block whose nodes 0 and 1 are exactly collinear:
    # the determinant is positive, so the scorer accepts the covariance, but
    # an arc between 0 and 1, or both as parents of one node, degenerates
    block = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
    cov = np.kron(np.eye(2), block)
    mask = ConstraintMask.empty(6)
    got = scoring.log_psi(cov[None], np.array([0]), np.array([2]), np.array([[0, 1]]))
    assert got.tolist() == [np.inf]
    _, want = oracle_exact_front(cov, 50, mask)
    got = exact_front(cov, 50, mask, None)
    assert [(m.fit.complexity, m.fit.chi_square) for m in got] == [
        (m.fit.complexity, m.fit.chi_square) for m in want
    ]
    assert len(got) >= 2
    for m in got:
        adj = arc_matrix(6, m.dag.arcs)
        assert not (adj[[0, 1], [1, 0]].any() or adj[[3, 4], [4, 3]].any())
        assert not (adj[0] & adj[1]).any() and not (adj[3] & adj[4]).any()
        assert np.isfinite(m.fit.chi_square)


def test_exact_front_reaches_the_complete_dag():
    """When the mask forbids no pair both ways, other than pairs of roots
    (the masks that priors and the transition model make), the complete DAGs
    under it fit best, so the front reaches them and pi_bic is not capped."""
    rng = np.random.default_rng(8)
    masks = [ConstraintMask.empty(p) for p in (2, 5, 8)] + [
        transition_mask(["A", "B", "C", "D"][:v], prior) for v, prior in
        ((2, ()), (3, (("A", "B"),)), (4, (("A", "B"), ("C", "D"))))
    ]
    for _ in range(8):
        p = int(rng.integers(3, 7))
        forbidden = rng.random((p, p)) < 0.4
        mask = ConstraintMask(p, forbidden & ~np.triu(forbidden.T, 1))
        if complete_dag_under(mask) is not None:
            masks.append(mask)
    assert len(masks) > 8
    for mask in masks:
        cov, n, _ = random_problem(rng, mask.n_nodes, "unmasked")
        models = exact_front(cov, n, mask, None)
        assert models[-1].fit.complexity == len(complete_dag_under(mask).arcs)


def test_exact_front_rejects_dimensions_that_disagree():
    with pytest.raises(DegenerateData, match="covariance and mask disagree on dimensions"):
        exact_front(np.eye(3), 50, ConstraintMask.empty(4), None)
