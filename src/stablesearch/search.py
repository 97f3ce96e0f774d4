"""Pareto search over constrained DAG structures: NSGA-II, or the exact front.

Objectives are (chi_square, complexity), both minimized.  evolve_batch()
advances one problem's NSGA-II searches (one per covariance, each with its own
generator, memo and draw order) together, holding their populations as one
(S, N, p, p) boolean array of adjacency matrices; forbidden cells are never
set.  Selection and variation are pure array functions fed with the draws.
Chi-squares come from scoring.Scorer, the package's one chi-square
(scoring.fit_dag_ml is its call on one DAG), and BICs from FitResult.scored.
A per-search memo (a plain dict keyed, like the scorer's caches, by packed
bits: scoring._packed) maps an individual to an integer id; one table per
batch holds each id's (chi-square, complexity, search), the chi-square +inf
for a degenerate fit, and the population carries an (S, N) id array beside
its matrices.  One step settles every drawn batch, the initial population as
each offspring batch: it is packed and looked up once, a row seen before
skips the cycle check, repair and scorer, a repaired row is repacked, and new
ids go to the scorer in one batch, if there are any.  Each generation sorts
the distinct points of every search's union once, ranks them in one sweep,
and crowds all their fronts in one pass (_survivor_stack) by stable sorts of
small integer keys read from the points.  The returned Pareto sets carry the
table's scores.

exact_front() solves a small problem exactly instead: at most EXACT_NODES
nodes may take a parent, none from more than EXACT_NODES - 1 candidates (no
bigger than an unmasked 8-node problem).  There the dynamic program costs
less than evolve() at the SearchParams defaults; past it, it soon costs more.
Its local scores are the Scorer's bits: small_fits and scoring.log_psi.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import DegenerateData, require
from .graphs import ConstraintMask, Cpdag, Dag, cyclic_rows, dag_to_cpdag, repair_arcs
# fit_dag_ml is not called here: bench/tracer.py wraps
# stablesearch.search.fit_dag_ml by name
from .scoring import INFEASIBLE, FitResult, Scorer, _packed, fit_dag_ml, log_psi  # noqa: F401

EXACT_NODES = 8  # the size limit of exact_front, as the module docstring states


@dataclass(frozen=True)
class SearchParams:
    """NSGA-II settings; each error message starts with the field it names."""

    generations: int = 35
    population_size: int = 150
    p_crossover: float = 0.85
    p_mutation: float = 0.07
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            require(f.name, getattr(self, f.name), type(f.default))
        for name in ("p_crossover", "p_mutation"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and at least 4")
        if self.generations < 1:
            raise ValueError("generations must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class ParetoModel:
    """One member of the returned Pareto set, with its equivalence class."""

    dag: Dag
    fit: FitResult
    cpdag: Cpdag


def _rank_stack(ids: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front index per row of each search of an (S, M) stack of ids, by one
    sorted sweep over the distinct points, and per row the keys that sort
    its front for _crowding.

    table[i] holds id i's (chi-square, complexity, search); ids of different
    searches differ.  The points are sorted once, by search, complexity,
    then chi-square, so each comes after every point of its search that
    dominates it.  A front's latest member has its lowest chi-square, so it
    dominates a point iff the front does, and the fronts that dominate a
    point form a prefix: a binary search over the latest members finds the
    point's front (Jensen 2003, IEEE TEC 7(5)).  They are reset where a
    search begins.  Infeasible points (chi-square +inf) dominate nothing;
    each lands one front behind the worst feasible point of its search of
    no greater complexity.

    The keys (segment, chi place, complexity place) are small integers: the
    segment numbers the (search, front) pairs in order, and a place orders a
    segment's points by one objective, equal where they tie.  A front's
    points differ in complexity, so that place is their sweep order; its
    infeasible ones tie on chi-square, as at the ceiling crowding clips to.
    """
    distinct = np.flatnonzero(np.bincount(ids.ravel(), minlength=len(table)))
    order = distinct[np.lexsort(table[distinct].T)]
    new = np.ones(len(order), dtype=bool)  # the first id of each point
    new[1:] = (table[order[1:]] != table[order[:-1]]).any(axis=1)
    points = table[order[new]]
    fronts, current = [], -1
    for chi, s in points[:, ::2].tolist():
        if s != current:
            latest, current = [], s  # the chi-square of each front's latest feasible member
        if chi == INFEASIBLE:
            fronts.append(len(latest))  # one behind the worst feasible front so far
        else:
            f = bisect_right(latest, chi)  # an earlier point of equal chi-square dominates
            latest[f : f + 1] = [chi]
            fronts.append(f)
    front = np.array(fronts, dtype=np.int64)
    segment = points[:, 2].astype(np.int64) * (front.max() + 1) + front
    by_k = np.argsort(segment, kind="stable")  # by complexity within a segment
    by_chi = np.lexsort((points[:, 0], segment))
    chi, seg = points[by_chi, 0], segment[by_chi]
    keys = np.empty((len(points), 3), dtype=np.min_scalar_type(len(points)))
    keys[by_k, 0] = np.cumsum(np.diff(segment[by_k], prepend=-1) != 0) - 1
    keys[by_chi, 1] = np.cumsum(np.r_[True, (chi[1:] != chi[:-1]) | (seg[1:] != seg[:-1])]) - 1
    keys[by_k, 2] = np.arange(len(points))
    point = np.zeros(len(table), dtype=np.int64)
    point[order] = np.cumsum(new) - 1
    at = point[ids]
    return front[at], keys[at]


def _crowding(objs: np.ndarray, segment: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of (m, 2) objs within its segment (a run
    of rows with one nonnegative id), as NSGA-II measures one front (Deb et
    al. 2002): per objective, rows sorted by value (ties in row order) add
    their neighbours' gap over the segment's span, and the first and last
    read +inf.  Infeasible chi-squares are clipped to a finite ceiling per
    segment, so spans stay defined.  Column c of the (m, 2) integer keys
    sorts objective c: segments in row order, then values, equal exactly
    where values tie within a segment.
    """
    first = np.diff(segment, prepend=-1) != 0  # segment ids are nonnegative
    last = np.roll(first, -1)
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(segment))
    inner = np.flatnonzero(~(first | last))
    d = np.zeros(len(segment))
    for col in range(2):
        vals = objs[:, col]
        finite = np.isfinite(vals)
        if not finite.all():
            top = np.maximum.reduceat(np.where(finite, vals, -np.inf), starts)
            ceiling = np.where(np.isfinite(top), top * 2 + 1.0, 1.0)
            vals = np.where(finite, vals, np.repeat(ceiling, sizes))
        order = np.argsort(keys[:, col], kind="stable")
        ranked = vals[order]
        span = np.repeat(ranked[last] - ranked[first], sizes)
        d[order[first | last]] = np.inf
        grow = inner[span[inner] > 0]
        d[order[grow]] += (ranked[grow + 1] - ranked[grow - 1]) / span[grow]
    return d


def _ends(point: np.ndarray) -> np.ndarray:
    """The indices, ascending, of the first and last row of each point,
    given each row's point as a small nonnegative integer."""
    order = np.argsort(point, kind="stable")
    step = np.diff(point[order], prepend=-1, append=-1) != 0  # ids are nonnegative
    ends = np.zeros(len(point), dtype=bool)
    ends[order[step[:-1] | step[1:]]] = True
    return np.flatnonzero(ends)


def _survivor_stack(ids, table, ranks, keys, k) -> tuple[np.ndarray, np.ndarray]:
    """Per search of an (S, M) stack of ids into table, with the ranks and
    crowding keys _rank_stack gives them, the k rows elitist selection
    keeps, in order, and crowding distances.

    Whole fronts are kept in rank order, then the split front's rows by
    descending crowding distance (stable).  A kept row's distance is taken
    within the kept part of its front, in kept order; other rows read NaN.
    Every search's fronts are crowded in one _crowding call, and the kept
    parts of split fronts in another, each on the first and last of every
    point's rows alone (_ends): the copies between them lie inside a tie on
    both objectives, so they read 0.  A front's points differ in
    complexity, so the complexity place names the point.  Each order is a
    stable sort of small integer keys; only the few positive finite
    distances of split fronts are sorted as floats.
    """
    n_s, m = ranks.shape
    flat_ranks, flat_keys = ranks.ravel(), keys.reshape(-1, 3)
    split_rank = np.sort(ranks, axis=1)[:, k - 1]  # the last front kept, whole or not
    rows = np.flatnonzero(ranks <= split_rank[:, None])
    rows = rows[np.argsort(flat_keys[rows, 0], kind="stable")]  # by (search, rank, row)
    owner, rank, row_keys = rows // m, flat_ranks[rows], flat_keys[rows]
    row_ids = ids.ravel()[rows]
    dist = np.zeros(len(rows))
    ends = _ends(row_keys[:, 2])
    dist[ends] = _crowding(table[row_ids[ends], :2], row_keys[ends, 0], row_keys[ends, 1:])
    counts = np.bincount(owner, minlength=n_s)
    at_split = (counts > k)[owner] & (rank == split_rank[owner])
    # each search's split front ends its rows: +inf first, then the positive
    # finite distances, descending, then zeros
    split = np.flatnonzero(at_split)
    d = dist[split]
    positive = (d > 0) & (d < np.inf)
    by_dist = np.where(d > 0, 0, len(d) + 1)
    by_dist[positive] = np.argsort(np.argsort(-d[positive], kind="stable")) + 1
    order = np.arange(len(rows))
    order[split] = split[np.argsort(owner[split] * (len(d) + 2) + by_dist, kind="stable")]
    keep = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts) < k
    kept = order[keep]
    cut = kept[at_split[kept]]
    crowding = np.full(n_s * m, np.nan)
    crowding[rows[kept]] = dist[kept]
    crowding[rows[cut]] = 0.0
    cut = cut[_ends(row_keys[cut, 2])]
    crowding[rows[cut]] = _crowding(table[row_ids[cut], :2], owner[cut], row_keys[cut, 1:])
    return rows[kept].reshape(n_s, k) % m, crowding.reshape(n_s, m)


def _tournament(ranks, crowding, cand, coin) -> np.ndarray:
    """Binary tournament winners, one per row of the (N, 2) candidate pairs.

    Lower rank wins, then larger crowding distance; a full tie goes to the
    first candidate where coin is True.
    """
    a, b = cand[:, 0], cand[:, 1]
    same_rank = ranks[a] == ranks[b]
    a_better = (ranks[a] < ranks[b]) | (same_rank & (crowding[a] > crowding[b]))
    tie = same_rank & (crowding[a] == crowding[b])
    return np.where(a_better | (tie & coin), a, b)


def _vary(offspring, apply_cx, mix, mutated, flips, allowed) -> None:
    """Uniform crossover of parent pairs, then bit-flip mutation, in place; no repair.

    Rows 2t and 2t+1 hold pair t's parents; they exchange the cells where
    mix[t] is set if apply_cx[t], else stay copies.  Row mutated[i] then
    flips its allowed cells where flips[i] is set.
    """
    swap = (offspring[0::2] ^ offspring[1::2]) & apply_cx[:, None, None] & mix
    offspring[0::2] ^= swap
    offspring[1::2] ^= swap
    offspring[mutated] ^= flips & allowed


def _arcs(adj: np.ndarray) -> list[tuple[int, int]]:
    """The set cells of an adjacency matrix as (tail, head) arcs, row-major."""
    return [(a, b) for a, b in np.argwhere(adj).tolist()]


def _pareto_postfilter(
    front_adj: np.ndarray, front_objs: np.ndarray, mask: ConstraintMask, n: int,
    labels: tuple[str, ...] | None,
) -> list[ParetoModel]:
    """Front 0's best model per complexity, with the scores the search ranked.

    Per complexity the lowest (chi-square, row-major arcs) is kept; infeasible
    rows are dropped, and copies of a row (same memo scores) are compared
    once.  The same constrained CPDAG implies the same skeleton, hence the
    same complexity, so this also deduplicates by CPDAG.
    """
    rows = {key: i for i, key in enumerate(_packed(front_adj.reshape(len(front_adj), -1)))}
    best: dict[int, tuple[float, list[tuple[int, int]]]] = {}
    for i in rows.values():
        chi, k = front_objs[i].tolist()
        k, model = int(k), (chi, _arcs(front_adj[i]))
        if chi != INFEASIBLE and (k not in best or model < best[k]):
            best[k] = model
    out: list[ParetoModel] = []
    for k, (chi, arcs) in sorted(best.items()):
        dag = Dag(mask.n_nodes, frozenset(arcs), labels)
        out.append(ParetoModel(dag, FitResult.scored(chi, k, n), dag_to_cpdag(dag, mask)))
    return out


def evolve(
    cov: np.ndarray, n: int, p: int, mask: ConstraintMask, params: SearchParams,
    labels: tuple[str, ...] | None,
) -> list[ParetoModel]:
    """One NSGA-II run, seeded params.seed: evolve_batch's batch of one."""
    if mask.n_nodes != p or cov.shape != (p, p):
        raise DegenerateData("covariance, mask and p disagree on dimensions")
    return evolve_batch(cov[None], (n,), (params.seed,), mask, params, labels)[0]


def evolve_batch(
    covs: np.ndarray, ns, seeds, mask: ConstraintMask, params: SearchParams,
    labels: tuple[str, ...] | None,
) -> list[list[ParetoModel]]:
    """Full NSGA-II runs of one problem, advanced together generation by
    generation; per run, the final front 0 after the Pareto post-filter.

    Run s scores against covs[s] of the (S, p, p) stack, from ns[s] rows, and
    draws from its own generator, seeded seeds[s], what a run alone draws in
    the same order: the initial population, its repairs in row order, then
    per generation the tournament, crossover and mutation draws and the
    offspring's repairs.  It keeps its own memo, so each run returns what it
    returns alone, bit for bit.  Individuals whose fit degenerates carry
    chi_square = +inf; they stay in the population but never dominate.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    scorer = Scorer(covs, ns)
    n_s, p, pop_n = len(rngs), mask.n_nodes, params.population_size
    half, length = pop_n // 2, p * (p - 1)
    allowed = ~mask.forbidden
    offdiag = ~np.eye(p, dtype=bool)
    owner = np.repeat(np.arange(n_s), pop_n)  # the run of each stacked row
    seen = [{} for _ in rngs]  # per run: packed individual -> its id
    table = np.empty((0, 3))  # per id: (chi-square, complexity, run)
    memos = [seen[s] for s in owner.tolist()]

    def settle(adjs: np.ndarray) -> np.ndarray:
        """Repair a drawn (S * N, p, p) batch in place (cyclic new rows in
        index order); its (S, N) ids, scoring the new ones into table."""
        nonlocal table
        bits = _packed(adjs.reshape(len(adjs), -1))
        ids = np.fromiter(map(dict.get, memos, bits, repeat(-1)), np.int64, len(bits))
        new = np.flatnonzero(ids < 0)
        for i in new[cyclic_rows(adjs[new])].tolist():
            repair_arcs(adjs[i], rngs[owner[i]])
            bits[i] = _packed(adjs[i].reshape(1, -1))[0]
        fresh = []  # the rows that add an id, one per new individual
        for i in new.tolist():
            ids[i] = memos[i].setdefault(bits[i], len(table) + len(fresh))
            if ids[i] == len(table) + len(fresh):
                fresh.append(i)
        if fresh:
            at = np.array(fresh)
            chis = scorer.chi_squares(adjs[at], owner[at])
            scored = np.column_stack((chis, adjs[at].sum(axis=(1, 2)), owner[at]))
            table = np.concatenate([table, scored])
        return ids.reshape(n_s, pop_n)

    # random sparse initialization
    population = np.zeros((n_s, pop_n, p, p), dtype=bool)
    for s, rng in enumerate(rngs):
        population[s][:, offdiag] = rng.random((pop_n, length)) < 2.0 / length
    population &= allowed
    ids = settle(population.reshape(-1, p, p))
    ranks, keys = _rank_stack(ids, table)
    crowding = _survivor_stack(ids, table, ranks, keys, pop_n)[1]

    def draw(rng):
        """One generation's draws of one search, in a run's order."""
        cand = rng.integers(0, pop_n, size=(pop_n, 2))
        coin = rng.random(pop_n) < 0.5
        apply_cx = rng.random(half) < params.p_crossover
        mix = rng.random((half, p, p)) < 0.5
        do_mut = rng.random(pop_n) < params.p_mutation
        return cand, coin, apply_cx, mix, do_mut, rng.random((do_mut.sum(), p, p)) < 1.0 / length

    for _ in range(params.generations):
        cand, coin, apply_cx, mix, do_mut, flips = map(np.concatenate, zip(*map(draw, rngs)))
        winners = _tournament(ranks.ravel(), crowding.ravel(), cand + owner[:, None] * pop_n, coin)
        offspring = population.reshape(-1, p, p)[winners]
        _vary(offspring, apply_cx, mix, np.flatnonzero(do_mut), flips, allowed)
        # elitist (mu + lambda) environmental selection; a kept front keeps
        # all its dominators, so its ranks stand.  Survivors are gathered
        # from the population and the offspring, with no union copy.
        ids = np.concatenate([ids, settle(offspring)], axis=1)
        ranks, keys = _rank_stack(ids, table)
        kept, crowding = _survivor_stack(ids, table, ranks, keys, pop_n)
        old, rows = kept < pop_n, kept + np.arange(n_s)[:, None] * pop_n
        parents, population = population.reshape(-1, p, p), np.empty_like(population)
        population[old] = parents[rows[old]]
        population[~old] = offspring[rows[~old] - pop_n]
        at = (rows + np.arange(n_s)[:, None] * pop_n).ravel()  # in the unions
        ids, ranks, crowding = (a.ravel()[at].reshape(n_s, pop_n) for a in (ids, ranks, crowding))

    front, objs = ranks == 0, table[ids, :2]
    return [
        _pareto_postfilter(population[s][front[s]], objs[s][front[s]], mask, ns[s], labels)
        for s in range(n_s)
    ]


def exact_front(
    cov: np.ndarray, n: int, mask: ConstraintMask, labels: tuple[str, ...] | None
) -> list[ParetoModel]:
    """The exact Pareto front, by dynamic programming over sink orders.

    An arc-count index (Koivisto & Sood 2004, JMLR 5; Silander & Myllymaki
    2006, UAI): table[U, k] is the least sum of ln psi over the nodes in U,
    with k arcs, reached by adding a sink t whose best c parents lie in the
    roots and U \\ {t}.  Roots (the nodes no arc may enter) come first in
    every order, so U runs over the other, free, nodes only.  The table is
    filled one popcount layer at a time, every (sink, parent count) of a
    layer in one min-plus step.  Local scores are the Scorer's: small_fits,
    and one log_psi call per parent count; a degenerate parent set scores
    +inf and is never chosen.  Each optimum is scored again by the Scorer,
    which sums its ln psi in node order, so a DAG that evolve also finds
    gets the same chi-square, and a complexity is on the front when its
    chi-square is below that of every lower one.
    """
    p = mask.n_nodes
    if cov.shape != (p, p):
        raise DegenerateData("covariance and mask disagree on dimensions")
    scorer = Scorer(cov[None], (n,))
    allowed = ~mask.forbidden
    free = np.flatnonzero(allowed.any(axis=0))
    f, d = len(free), int(allowed.sum(axis=0).max())
    # cand[t, b]: free node t's b-th candidate parent, valid for b < n_cand[t];
    # a parent set of t is a mask s over those d positions
    n_cand = allowed[:, free].sum(axis=0)
    cand = np.argsort(~allowed[:, free].T, axis=1, kind="stable")[:, :d]
    subsets = np.arange(1 << d)
    bits = (subsets[:, None] >> np.arange(d) & 1).astype(bool)
    size = bits.sum(axis=1)
    local = np.full((f, 1 << d), INFEASIBLE)
    local[:, 0] = scorer.small_fits[0, p, free]
    local[:, 1 << np.arange(d)] = np.where(
        np.arange(d) < n_cand[:, None], scorer.small_fits[0, cand, free[:, None]], INFEASIBLE
    )
    valid = subsets < (1 << n_cand[:, None])  # [t, s]: s holds real candidates only
    for c in range(2, d + 1):
        ts, ss = np.nonzero(valid & (size == c))
        local[ts, ss] = log_psi(scorer.covs, 0 * ts, free[ts], cand[ts][bits[ss]].reshape(-1, c))
    # best[t, c, s]: least ln psi of t over its c-parent sets inside s, arg that set
    best = np.where(size == np.arange(d + 1)[:, None], local[:, None, :], INFEASIBLE)
    arg = np.broadcast_to(subsets, best.shape).copy()
    for b in range(d):
        has = subsets[bits[:, b]]
        take = best[..., has ^ 1 << b] < best[..., has]
        best[..., has] = np.where(take, best[..., has ^ 1 << b], best[..., has])
        arg[..., has] = np.where(take, arg[..., has ^ 1 << b], arg[..., has])
    # within[U, t]: the mask of t's candidates that the roots and U hold;
    # position[a, j] is the bit of candidate a among node j's candidates
    states = np.arange(1 << f)
    in_u = (states[:, None] >> np.arange(f) & 1).astype(bool)
    held = np.ones((len(states), p), dtype=np.int64)
    held[:, free] = in_u
    position = allowed * (1 << np.cumsum(allowed, axis=0) >> 1)
    within = held @ position[:, free]
    best_in = best[np.arange(f)[:, None], :, within.T]  # [t, U, c]
    top = int(np.triu(allowed | allowed.T, 1).sum())
    table = np.full((len(states), top + 2), INFEASIBLE)  # column top + 1 stays +inf
    table[0, 0] = 0.0
    back = np.zeros((2, len(states), top + 1), dtype=np.int64)  # (sink, parent count)
    k_less_c = np.arange(top + 1) - np.arange(d + 1)[:, None]  # [c, k]
    shift = np.where(k_less_c >= 0, k_less_c, top + 1)
    for layer in range(1, f + 1):
        us = states[in_u.sum(axis=1) == layer]
        rows, ts = np.nonzero(in_u[us])  # each U's sinks, U-major
        rest = us[rows] ^ 1 << ts
        steps = table[rest][:, shift] + best_in[ts, rest][:, :, None]
        steps = steps.reshape(len(us), layer * (d + 1), top + 1)
        pick = steps.argmin(axis=1)
        table[us, : top + 1] = np.take_along_axis(steps, pick[:, None], axis=1)[:, 0]
        back[0, us] = ts.reshape(len(us), layer)[np.arange(len(us))[:, None], pick // (d + 1)]
        back[1, us] = pick % (d + 1)
    # walk every finite complexity's optimum back from the full set at once
    ks = np.flatnonzero(np.isfinite(table[-1, : top + 1]))
    adjs = np.zeros((len(ks), p, p), dtype=bool)
    u, left = np.full(len(ks), len(states) - 1), ks
    for _ in range(f):
        t, c = back[:, u, left]
        u = u ^ 1 << t
        rows, b = np.nonzero(bits[arg[t, c, within[u, t]]])
        adjs[rows, cand[t[rows], b], free[t[rows]]] = True
        left = left - c
    objs = np.column_stack((scorer.chi_squares(adjs, 0 * ks), ks))
    lowest = np.concatenate(([INFEASIBLE], np.minimum.accumulate(objs[:-1, 0])))
    front = objs[:, 0] < lowest
    return _pareto_postfilter(adjs[front], objs[front], mask, n, labels)

