"""Pareto search over constrained DAG structures: NSGA-II, or the exact front.

Objectives are (chi_square, complexity), both minimized.  evolve() holds the
population as one (N, p, p) boolean array of adjacency matrices; forbidden
cells are never set.  Selection and variation are pure array functions fed
with evolve()'s draws.  Chi-squares come from scoring.Scorer, the package's
one chi-square (scoring.fit_dag_ml is its call on one DAG), and BICs from
FitResult.scored.  A per-search memo (a plain dict keyed, like the scorer's
per-node caches, by packed bits: scoring._packed) maps an individual to its
chi-square, +inf for a degenerate fit.  One step settles every drawn batch,
the initial population as each offspring batch: it is packed once, a row seen
before skips the cycle check, repair and scorer, a repaired row is repacked,
and new ones go to the scorer in one batch, if there are any.
Each generation ranks the union once and walks its fronts once (_survivors).
The returned Pareto set carries the memo's scores.

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


def _rank_array(objs: np.ndarray) -> np.ndarray:
    """Front index per row, by a sorted sweep over the two objectives.

    Feasible rows are visited by complexity, then chi-square, so each row
    comes after every row that dominates it.  A front's latest member has
    its lowest chi-square, so it dominates a row iff the front does, and the
    fronts that dominate a row form a prefix: a binary search over the
    latest members finds the row's front (Jensen 2003, IEEE TEC 7(5)).
    Infeasible rows (chi-square +inf) dominate nothing; each lands one front
    behind the worst feasible row of no greater complexity.
    """
    chi, k = objs[:, 0], objs[:, 1]
    order = np.lexsort((chi, k))
    finite = np.isfinite(chi[order])
    feasible, infeasible = order[finite], order[~finite]
    points = objs[feasible]
    new = np.ones(len(points), dtype=bool)  # first of its point in sweep order
    new[1:] = (points[1:] != points[:-1]).any(axis=1)
    latest: list[list[float]] = []  # [chi, k] of each front's latest member
    fronts = []
    for point in points[new].tolist():  # identical points share a front
        f = bisect_left(latest, point)
        if f == len(latest):
            latest.append(point)
        else:
            latest[f] = point
        fronts.append(f)
    ranks = np.zeros(len(objs), dtype=np.int64)
    ranks[feasible] = np.array(fronts, dtype=np.int64)[np.cumsum(new) - 1]
    worst = np.concatenate(([-1], np.maximum.accumulate(ranks[feasible])))
    ranks[infeasible] = worst[np.searchsorted(k[feasible], k[infeasible], "right")] + 1
    return ranks


def _crowding_array(objs: np.ndarray) -> np.ndarray:
    m = objs.shape[0]
    d = np.zeros(m)
    if m <= 2:
        d[:] = np.inf
        return d
    for col in range(2):
        vals = objs[:, col].astype(float)
        finite = np.isfinite(vals)
        if not finite.all():
            # clip infeasible fits to a finite ceiling so spans stay defined
            ceiling = (vals[finite].max() * 2 + 1.0) if finite.any() else 1.0
            vals = np.where(finite, vals, ceiling)
        order = np.argsort(vals, kind="stable")
        d[order[0]] = d[order[-1]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span > 0:
            d[order[1:-1]] += (vals[order[2:]] - vals[order[:-2]]) / span
    return d


def _survivors(objs, ranks, k) -> tuple[np.ndarray, np.ndarray]:
    """The k rows elitist selection keeps, in order, and crowding distances.

    Whole fronts are kept in rank order, then the split front's rows by
    descending crowding distance (stable).  A kept row's distance is taken
    within the kept part of its front, in kept order; other rows read NaN.
    """
    kept, crowding = [], np.full(len(objs), np.nan)
    for r in range(int(ranks.max()) + 1):
        idx = np.flatnonzero(ranks == r)
        if len(kept) + len(idx) > k:
            idx = idx[np.argsort(-_crowding_array(objs[idx]), kind="stable")[: k - len(kept)]]
        crowding[idx] = _crowding_array(objs[idx])
        kept.extend(idx.tolist())
        if len(kept) == k:
            break
    return np.array(kept), crowding


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


def _vary(pa, pb, apply_cx, mix, flip, allowed) -> np.ndarray:
    """Uniform crossover of parent pairs, then bit-flip mutation; no repair.

    Pair t (rows pa[t], pb[t]) yields offspring 2t and 2t+1, exchanging the
    cells where mix[t] is set if apply_cx[t], else copying the parents.
    Offspring i then flips its allowed cells where flip[i] is set.
    """
    swap = (pa ^ pb) & apply_cx[:, None, None] & mix  # the cells the pair exchanges
    out = np.empty((2 * len(pa),) + pa.shape[1:], dtype=bool)
    out[0::2] = pa ^ swap
    out[1::2] = pb ^ swap
    return out ^ (flip & allowed)


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
    cov: np.ndarray,
    n: int,
    p: int,
    mask: ConstraintMask,
    params: SearchParams,
    labels: tuple[str, ...] | None = None,
) -> list[ParetoModel]:
    """Full NSGA-II run; returns the final front 0 after the Pareto post-filter.

    Deterministic for a fixed params.seed.  Individuals whose fit degenerates
    carry chi_square = +inf; they stay in the population but never dominate.
    """
    if mask.n_nodes != p or cov.shape != (p, p):
        raise DegenerateData("covariance, mask and p disagree on dimensions")
    rng = np.random.default_rng(params.seed)
    scorer = Scorer(cov, n)
    pop_n = params.population_size
    half = pop_n // 2
    length = p * (p - 1)
    allowed = ~mask.forbidden
    offdiag = ~np.eye(p, dtype=bool)
    seen: dict[bytes, float] = {}  # packed individual -> chi_square

    def settle(adjs: np.ndarray) -> np.ndarray:
        """Repair a drawn batch in place (cyclic new rows in index order); its (chi, k) rows."""
        keys = _packed(adjs.reshape(len(adjs), -1))
        new = np.flatnonzero([key not in seen for key in keys])
        for i in new[cyclic_rows(adjs[new])]:
            repair_arcs(adjs[i], rng)
            keys[i] = _packed(adjs[i].reshape(1, -1))[0]
        fresh = {key: i for i, key in enumerate(keys) if key not in seen}
        if fresh:
            seen.update(zip(fresh, scorer.chi_squares(adjs[list(fresh.values())]).tolist()))
        return np.column_stack(([seen[key] for key in keys], adjs.sum(axis=(1, 2))))

    # random sparse initialization
    population = np.zeros((pop_n, p, p), dtype=bool)
    population[:, offdiag] = rng.random((pop_n, length)) < 2.0 / length
    population &= allowed
    objs = settle(population)
    ranks = _rank_array(objs)
    crowding = _survivors(objs, ranks, pop_n)[1]

    for _ in range(params.generations):
        cand = rng.integers(0, pop_n, size=(pop_n, 2))
        coin = rng.random(pop_n) < 0.5
        winners = _tournament(ranks, crowding, cand, coin)
        apply_cx = rng.random(half) < params.p_crossover
        mix = rng.random((half, p, p)) < 0.5
        do_mut = rng.random(pop_n) < params.p_mutation
        flip = np.zeros((pop_n, p, p), dtype=bool)
        flip[do_mut] = rng.random((int(do_mut.sum()), p, p)) < 1.0 / length
        offspring = _vary(
            population[winners[0::2]], population[winners[1::2]], apply_cx, mix, flip, allowed
        )
        # elitist (mu + lambda) environmental selection; a kept front keeps
        # all its dominators, so its ranks stand.  settle repairs in place,
        # so it runs before the union copies the offspring.
        objs = np.vstack([objs, settle(offspring)])
        union = np.concatenate([population, offspring])
        ranks = _rank_array(objs)
        kept, crowding = _survivors(objs, ranks, pop_n)
        population, objs, ranks, crowding = union[kept], objs[kept], ranks[kept], crowding[kept]

    front = ranks == 0
    return _pareto_postfilter(population[front], objs[front], mask, n, labels)


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
    scorer = Scorer(cov, n)
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
    local[:, 0] = scorer.small_fits[p, free]
    local[:, 1 << np.arange(d)] = np.where(
        np.arange(d) < n_cand[:, None], scorer.small_fits[cand, free[:, None]], INFEASIBLE
    )
    valid = subsets < (1 << n_cand[:, None])  # [t, s]: s holds real candidates only
    for c in range(2, d + 1):
        ts, ss = np.nonzero(valid & (size == c))
        local[ts, ss] = log_psi(cov, free[ts], cand[ts][bits[ss]].reshape(-1, c))
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
    objs = np.column_stack((scorer.chi_squares(adjs), ks))
    lowest = np.concatenate(([INFEASIBLE], np.minimum.accumulate(objs[:-1, 0])))
    front = objs[:, 0] < lowest
    return _pareto_postfilter(adjs[front], objs[front], mask, n, labels)

