"""NSGA-II search over constrained DAG structures.

Objectives are (chi_square, complexity), both minimized.  evolve() holds the
population as one (N, p, p) boolean array of adjacency matrices; forbidden
cells are never set.  Tournament selection and variation are pure array
functions fed with the generator draws evolve() makes; uniform crossover and
bit-flip mutation may close a directed cycle, so one batched cycle check runs
per generation and only the cyclic offspring go through cycle repair, in
ascending index order.  Scoring runs through per-node and per-structure
caches (the search is the hot path of the whole pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData
from .graphs import (
    ConstraintMask, Cpdag, Dag, arc_matrix, cyclic_rows, dag_to_cpdag, repair_arcs,
)
from .scoring import FitResult, fit_dag_ml

INFEASIBLE = float("inf")


@dataclass(frozen=True)
class SearchParams:
    generations: int = 35
    population_size: int = 150
    p_crossover: float = 0.85
    p_mutation: float = 0.07
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.p_crossover <= 1 or not 0 <= self.p_mutation <= 1:
            raise ValueError("operator probabilities must lie in [0, 1]")
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and at least 4")
        if self.generations < 1:
            raise ValueError("generations must be positive")


@dataclass(frozen=True)
class ParetoModel:
    """One member of the returned Pareto set, with its equivalence class."""

    dag: Dag
    fit: FitResult
    cpdag: Cpdag


def _domination_matrix(objs: np.ndarray) -> np.ndarray:
    chi = objs[:, 0]
    k = objs[:, 1]
    le = (chi[:, None] <= chi[None, :]) & (k[:, None] <= k[None, :])
    lt = (chi[:, None] < chi[None, :]) | (k[:, None] < k[None, :])
    dom = le & lt
    dom[~np.isfinite(chi)] = False
    return dom


def _rank_array(objs: np.ndarray) -> np.ndarray:
    """Front index per row, by Deb's iterative peeling on the domination matrix."""
    n = objs.shape[0]
    dom = _domination_matrix(objs)
    n_dominators = dom.sum(axis=0).astype(np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    current = 0
    remaining = n
    while remaining:
        front = (n_dominators == 0) & (ranks < 0)
        if not front.any():  # safety net; cannot happen for a strict partial order
            front = ranks < 0
        ranks[front] = current
        n_dominators -= dom[front].sum(axis=0)
        remaining -= int(front.sum())
        current += 1
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


def _vary(pa, pb, apply_cx, mix, do_mut, flip, allowed) -> np.ndarray:
    """Uniform crossover of parent pairs, then bit-flip mutation; no repair.

    Pair t (rows pa[t], pb[t]) yields offspring 2t and 2t+1, exchanging the
    cells where mix[t] is set if apply_cx[t], else copying the parents.
    Offspring i then flips its allowed cells where flip[i] is set, if
    do_mut[i].
    """
    cx = apply_cx[:, None, None] & mix
    out = np.empty((2 * len(pa),) + pa.shape[1:], dtype=bool)
    out[0::2] = np.where(cx, pb, pa)
    out[1::2] = np.where(cx, pa, pb)
    return out ^ (do_mut[:, None, None] & flip & allowed)


class _Scorer:
    """Chi-square scoring with per-structure and per-(node, parents) memo caches.

    Only (chi_square, complexity) is produced here; full FitResults are fitted
    once at the end for the returned Pareto set.
    """

    def __init__(self, cov: np.ndarray, n: int):
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise DegenerateData("covariance is not positive definite")
        self.cov = cov
        self.n = n
        self.logdet_s = logdet
        self.node_cache: dict[tuple, float | None] = {}
        self.struct_cache: dict[bytes, float] = {}

    def _node_psi(self, j: int, pa: tuple[int, ...]) -> float | None:
        key = (j, pa)
        hit = self.node_cache.get(key, 0)
        if hit != 0:
            return hit
        cov = self.cov
        if not pa:
            val = float(cov[j, j])
        else:
            idx = list(pa)
            try:
                beta = np.linalg.solve(cov[np.ix_(idx, idx)], cov[idx, j])
                val = float(cov[j, j] - cov[j, idx] @ beta)
            except np.linalg.LinAlgError:
                val = None
            if val is not None and (val <= 0 or not np.isfinite(val)):
                val = None
        self.node_cache[key] = val
        return val

    def chi_square(self, adj: np.ndarray) -> float:
        """adj is a p x p boolean matrix; returns +inf for degenerate fits."""
        key = adj.tobytes()
        hit = self.struct_cache.get(key)
        if hit is not None:
            return hit
        total = 0.0
        ok = True
        for j, col in enumerate(adj.T.tolist()):
            psi = self._node_psi(j, tuple(i for i, arc in enumerate(col) if arc))
            if psi is None:
                ok = False
                break
            total += np.log(psi)
        if ok:
            value = max((self.n - 1) * (total - self.logdet_s), 0.0)
        else:
            value = INFEASIBLE
        self.struct_cache[key] = value
        return value


def _arcs(adj: np.ndarray) -> list[tuple[int, int]]:
    """The set cells of an adjacency matrix as (tail, head) arcs, row-major."""
    return [(a, b) for a, b in np.argwhere(adj).tolist()]


def _pareto_postfilter(
    front_adj: np.ndarray, mask: ConstraintMask, cov: np.ndarray, n: int,
    labels: tuple[str, ...] | None,
) -> list[ParetoModel]:
    """Dedup front 0 by CPDAG, keep the best fit per complexity level."""
    p = mask.n_nodes
    models = []
    seen_structs = set()
    for adj in front_adj:
        key = adj.tobytes()
        if key in seen_structs:
            continue
        seen_structs.add(key)
        dag = Dag(p, frozenset(_arcs(adj)), labels)
        try:
            fit = fit_dag_ml(dag, cov, n)
        except DegenerateData:
            continue
        models.append((dag, fit))

    # same constrained CPDAG implies same skeleton, hence the same complexity,
    # so keeping the best fit per complexity also deduplicates by CPDAG
    models.sort(key=lambda m: (m[1].complexity, m[1].chi_square, sorted(m[0].arcs)))
    out: list[ParetoModel] = []
    seen_complexity = set()
    for dag, fit in models:
        if fit.complexity in seen_complexity:
            continue
        seen_complexity.add(fit.complexity)
        out.append(ParetoModel(dag, fit, dag_to_cpdag(dag, mask)))
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
    scorer = _Scorer(cov, n)
    pop_n = params.population_size
    half = pop_n // 2
    length = p * (p - 1)
    allowed = ~mask.forbidden
    offdiag = ~np.eye(p, dtype=bool)

    def repair(adjs: np.ndarray) -> None:
        """Repair cyclic rows in place, in index order; acyclic rows draw nothing."""
        for i in np.flatnonzero(cyclic_rows(adjs)):
            adjs[i] = arc_matrix(p, repair_arcs(p, set(_arcs(adjs[i])), mask, rng))

    def score_all(adjs: np.ndarray) -> np.ndarray:
        chi = [scorer.chi_square(adj) for adj in adjs]
        return np.column_stack([chi, adjs.sum(axis=(1, 2))])

    # random sparse initialization, one draw and one repair per individual
    population = np.zeros((pop_n, p, p), dtype=bool)
    for i in range(pop_n):
        population[i][offdiag] = rng.random(length) < 2.0 / length
        population[i] &= allowed
        repair(population[i][None])
    objs = score_all(population)

    for _ in range(params.generations):
        ranks = _rank_array(objs)
        crowding = np.empty(pop_n)
        for r in range(int(ranks.max()) + 1):
            idx = np.flatnonzero(ranks == r)
            crowding[idx] = _crowding_array(objs[idx])

        cand = rng.integers(0, pop_n, size=(pop_n, 2))
        coin = rng.random(pop_n) < 0.5
        winners = _tournament(ranks, crowding, cand, coin)
        apply_cx = rng.random(half) < params.p_crossover
        mix = rng.random((half, p, p)) < 0.5
        do_mut = rng.random(pop_n) < params.p_mutation
        flip = rng.random((pop_n, p, p)) < 1.0 / length
        offspring = _vary(
            population[winners[0::2]], population[winners[1::2]],
            apply_cx, mix, do_mut, flip, allowed,
        )
        repair(offspring)
        off_objs = score_all(offspring)

        # elitist (mu + lambda) environmental selection
        union = np.concatenate([population, offspring])
        union_objs = np.vstack([objs, off_objs])
        union_ranks = _rank_array(union_objs)
        chosen: list[int] = []
        for r in range(int(union_ranks.max()) + 1):
            idx = np.flatnonzero(union_ranks == r)
            if len(chosen) + len(idx) <= pop_n:
                chosen.extend(idx.tolist())
            else:
                gap = pop_n - len(chosen)
                crowd = _crowding_array(union_objs[idx])
                order = np.argsort(-crowd, kind="stable")
                chosen.extend(idx[order[:gap]].tolist())
            if len(chosen) == pop_n:
                break
        population = union[chosen]
        objs = union_objs[chosen]

    final_ranks = _rank_array(objs)
    return _pareto_postfilter(population[final_ranks == 0], mask, cov, n, labels)
