"""Pareto search over constrained DAG structures: NSGA-II, or the exact front.

Objectives are (chi_square, complexity), both minimized.  evolve_batch()
advances one problem's NSGA-II searches (one per covariance, each with its own
generator, memo and draw order) together, holding their populations as one
(S, N, p, p) boolean array of adjacency matrices; forbidden cells are never
set.  Selection and variation are pure array functions fed with the draws.
Chi-squares come from scoring.Scorer, the package's one chi-square
(scoring.fit_dag_ml is its call on one DAG), and BICs from FitResult.scored.
A per-search memo (a plain dict keyed, like the scorer's caches, by packed
bits: scoring._packed) maps an individual to its chi-square, +inf for a
degenerate fit.  One step settles every drawn batch, the initial population
as each offspring batch: it is packed once, a row seen before skips the cycle
check, repair and scorer, a repaired row is repacked, and new ones go to the
scorer in one batch, if there are any.  Each generation ranks every search's
union in one sweep and crowds all their fronts in one pass (_survivor_stack).
The returned Pareto sets carry the memos' scores.

exact_front() solves a small problem exactly instead: at most EXACT_NODES
nodes may take a parent, none from more than EXACT_NODES - 1 candidates (no
bigger than an unmasked 8-node problem).  There the dynamic program costs
less than evolve() at the SearchParams defaults; past it, it soon costs more.
Its local scores are the Scorer's bits: small_fits and scoring.log_psi.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields

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


def _rank_stack(objs: np.ndarray) -> np.ndarray:
    """Front index per row of each search of an (S, M, 2) stack, by one sorted sweep.

    Rows are visited by search, then complexity, then chi-square, so each
    row comes after every row of its search that dominates it.  A front's
    latest member has its lowest chi-square, so it dominates a row iff the
    front does, and the fronts that dominate a row form a prefix: a binary
    search over the latest members finds the row's front (Jensen 2003, IEEE
    TEC 7(5)).  Both are reset where a search begins.  Infeasible rows
    (chi-square +inf) dominate nothing; each lands one front behind the
    worst feasible row of its search of no greater complexity.
    """
    n_s, m = objs.shape[:2]
    owner = np.repeat(np.arange(n_s), m)
    flat = objs.reshape(-1, 2)
    order = np.lexsort((flat[:, 0], flat[:, 1], owner))
    points = np.column_stack((owner, flat))[order]
    new = np.ones(len(points), dtype=bool)  # first of its point in sweep order
    new[1:] = (points[1:] != points[:-1]).any(axis=1)
    fronts, current = [], -1
    for s, chi, k in points[new].tolist():  # identical points share a front
        if s != current:
            # [chi, k] of each front's latest member; the worst feasible front
            latest, worst, current = [], -1, s
        if chi == INFEASIBLE:
            fronts.append(worst + 1)
            continue
        f = bisect_left(latest, [chi, k])
        if f == len(latest):
            latest.append([chi, k])
        else:
            latest[f] = [chi, k]
        worst = max(worst, f)
        fronts.append(f)
    ranks = np.empty(n_s * m, dtype=np.int64)
    ranks[order] = np.array(fronts, dtype=np.int64)[np.cumsum(new) - 1]
    return ranks.reshape(n_s, m)


def _crowding(objs: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of (m, 2) objs within its segment (a run
    of rows with one nonnegative id), as NSGA-II measures one front (Deb et
    al. 2002): per objective, rows sorted by value (ties in row order) add
    their neighbours' gap over the segment's span, and the first and last
    read +inf.  Infeasible chi-squares are clipped to a finite ceiling per
    segment, so spans stay defined.
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
        order = np.lexsort((vals, segment))
        ranked = vals[order]
        span = np.repeat(ranked[last] - ranked[first], sizes)
        d[order[first | last]] = np.inf
        grow = inner[span[inner] > 0]
        d[order[grow]] += (ranked[grow + 1] - ranked[grow - 1]) / span[grow]
    return d


def _survivor_stack(objs, ranks, k) -> tuple[np.ndarray, np.ndarray]:
    """Per search of an (S, M) stack, the k rows elitist selection keeps, in
    order, and crowding distances.

    Whole fronts are kept in rank order, then the split front's rows by
    descending crowding distance (stable).  A kept row's distance is taken
    within the kept part of its front, in kept order; other rows read NaN.
    Every search's fronts are crowded in one _crowding call, and the kept
    parts of split fronts in another.
    """
    n_s, m = ranks.shape
    flat_ranks, flat_objs = ranks.ravel(), objs.reshape(-1, 2)
    split_rank = np.sort(ranks, axis=1)[:, k - 1]  # the last front kept, whole or not
    rows = np.flatnonzero(ranks <= split_rank[:, None])
    rows = rows[np.lexsort((flat_ranks[rows], rows // m))]  # by (search, rank, row)
    owner, rank = rows // m, flat_ranks[rows]
    dist = _crowding(flat_objs[rows], owner * m + rank)
    counts = np.bincount(owner, minlength=n_s)
    at_split = (counts > k)[owner] & (rank == split_rank[owner])
    order = np.lexsort((np.where(at_split, -dist, 0.0), rank, owner))
    keep = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts) < k
    kept, split = rows[order][keep], at_split[order][keep]
    crowding = np.full(n_s * m, np.nan)
    crowding[kept] = dist[order][keep]
    crowding[kept[split]] = _crowding(flat_objs[kept[split]], kept[split] // m)
    return kept.reshape(n_s, k) % m, crowding.reshape(n_s, m)


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
    seen = [{} for _ in rngs]  # per run: packed individual -> chi_square
    owners = owner.tolist()

    def settle(adjs: np.ndarray) -> np.ndarray:
        """Repair a drawn (S * N, p, p) batch in place (cyclic new rows in
        index order); its (S, N, 2) stack of (chi, k) rows."""
        keys = _packed(adjs.reshape(len(adjs), -1))
        new = np.flatnonzero([key not in seen[s] for s, key in zip(owners, keys)])
        for i in new[cyclic_rows(adjs[new])].tolist():
            repair_arcs(adjs[i], rngs[owners[i]])
            keys[i] = _packed(adjs[i].reshape(1, -1))[0]
        fresh = {(s, key): i for i, (s, key) in enumerate(zip(owners, keys)) if key not in seen[s]}
        if fresh:
            at = np.fromiter(fresh.values(), np.int64, len(fresh))
            for (s, key), chi in zip(fresh, scorer.chi_squares(adjs[at], owner[at]).tolist()):
                seen[s][key] = chi
        chis = [seen[s][key] for s, key in zip(owners, keys)]
        return np.column_stack((chis, adjs.sum(axis=(1, 2)))).reshape(n_s, pop_n, 2)

    # random sparse initialization
    population = np.zeros((n_s, pop_n, p, p), dtype=bool)
    for s, rng in enumerate(rngs):
        population[s][:, offdiag] = rng.random((pop_n, length)) < 2.0 / length
    population &= allowed
    objs = settle(population.reshape(-1, p, p))
    ranks = _rank_stack(objs)
    crowding = _survivor_stack(objs, ranks, pop_n)[1]

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
        objs = np.concatenate([objs, settle(offspring)], axis=1)
        ranks = _rank_stack(objs)
        kept, crowding = _survivor_stack(objs, ranks, pop_n)
        old, rows = kept < pop_n, kept + np.arange(n_s)[:, None] * pop_n
        parents, population = population.reshape(-1, p, p), np.empty_like(population)
        population[old] = parents[rows[old]]
        population[~old] = offspring[rows[~old] - pop_n]
        objs = np.take_along_axis(objs, kept[..., None], axis=1)
        ranks = np.take_along_axis(ranks, kept, axis=1)
        crowding = np.take_along_axis(crowding, kept, axis=1)

    front = ranks == 0
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

