"""Brute-force reference implementations used only by the test suite.

Everything here is written independently of the package under test: graph
enumeration by trying all orientations, equivalence classes keyed on
(skeleton, v-structures), reachability by boolean matrix powers, Pareto
fronts by pairwise comparison, covariance matrices implied by small
hand-solved models, midranks by averaging tied positions, the inverse of
the longitudinal reshape, a ground-truth sampler written out once per
model part, class enumeration with a Dag per member and a
walk up the parent sets for each cycle test, DAG-to-pattern conversion
with one pass over the edges per Meek rule, and stability curves
tabulated one structure at a time, NSGA-II truncation by pairwise
fronts and a crowding loop per objective, residual variances by one solve
per (node, parents).  ``_rank_array``, ``_crowding_array`` and
``_survivors`` are the per-search NSGA-II ranking and truncation that the
search once ran for each search alone; its batched versions are checked
against them on random stacks.  Three exceptions use the package: the
per-member IDA loop composes its class enumeration and single-DAG effect
without any sharing between members, the stability curves take their
complete-DAG pin from its ``complete_dag_under`` and ``dag_to_cpdag``, and
the exact front builds its models with the search's post-filter, so that
it bounds the search's own score; each of those is tested against the
oracles here.  ``stability_curve`` and
``member_arcs`` are no oracles, only the tests' lookups of one curve and of
one member's arcs.
"""

import itertools
from bisect import bisect_left

import numpy as np

from stablesearch.effects import causal_effect
from stablesearch.errors import (
    ConstraintViolation, DegenerateData, ExtensionCapExceeded, NoExtension,
)
from stablesearch.graphs import Cpdag, Dag, arc_matrix, dag_to_cpdag, enumerate_extensions
from stablesearch.longitudinal import LongitudinalDataset
from stablesearch.scoring import Column, Dataset
from stablesearch.search import INFEASIBLE, _pareto_postfilter
from stablesearch.stability import EDGE, complete_dag_under


def stability_curve(sg, a, b):
    """sg's probability curve for (a, b); an edge's key is its sorted pair."""
    if sg.kind == EDGE:
        a, b = min(a, b), max(a, b)
    return sg.probabilities[(a, b)]


def oracle_is_acyclic(n, arcs):
    """Repeated sink removal, coded without reference to the package."""
    remaining = set(arcs)
    alive = set(range(n))
    while alive:
        sinks = [v for v in alive if not any(a == v for a, _ in remaining)]
        if not sinks:
            return False
        for v in sinks:
            alive.discard(v)
            remaining = {(a, b) for a, b in remaining if b != v}
    return True


def all_dag_arcsets(n):
    """Every labeled DAG on n nodes, as frozensets of (from, to) arcs."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for assign in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (a, b), k in zip(pairs, assign):
            if k == 1:
                arcs.append((a, b))
            elif k == 2:
                arcs.append((b, a))
        if oracle_is_acyclic(n, arcs):
            out.append(frozenset(arcs))
    return out


def oracle_skeleton(arcs):
    return frozenset((min(a, b), max(a, b)) for a, b in arcs)


def oracle_v_structures(arcs):
    """Canonical triples (a, c, b), a < b, for colliders a -> c <- b, a,b non-adjacent."""
    skel = oracle_skeleton(arcs)
    parents = {}
    for a, b in arcs:
        parents.setdefault(b, set()).add(a)
    out = set()
    for c, ps in parents.items():
        for a, b in itertools.combinations(sorted(ps), 2):
            if (a, b) not in skel:
                out.add((a, c, b))
    return frozenset(out)


def class_key(arcs):
    return (oracle_skeleton(arcs), oracle_v_structures(arcs))


def equivalence_class(n, arcs, universe=None, forbidden=None):
    """All DAGs equivalent to `arcs`, optionally restricted to mask-respecting ones.

    forbidden is a boolean matrix (numpy or nested lists) read as
    forbidden[a][b] = arc a->b disallowed.
    """
    if universe is None:
        universe = all_dag_arcsets(n)
    key = class_key(arcs)
    members = [m for m in universe if class_key(m) == key]
    if forbidden is not None:
        members = [
            m for m in members if all(not forbidden[a][b] for a, b in m)
        ]
    return members


def union_orientation(members):
    """(directed, undirected) pattern shared by a set of equivalent DAGs.

    An edge is directed a->b when every member orients it that way, else it
    is undirected.
    """
    assert members
    skel = oracle_skeleton(members[0])
    directed = set()
    undirected = set()
    for a, b in skel:
        fwd = all((a, b) in m for m in members)
        bwd = all((b, a) in m for m in members)
        if fwd:
            directed.add((a, b))
        elif bwd:
            directed.add((b, a))
        else:
            undirected.add((a, b))
    return frozenset(directed), frozenset(undirected)


def oracle_meek_closure(n_nodes, directed, undirected, mask, reference_arcs):
    """Orient undirected edges in place until Meek's rules reach a fixpoint,
    with one pass over the edges per rule and per round.

    reference_arcs is the DAG the pattern came from; every orientation a
    sound rule derives must agree with it, so a disagreement means the mask
    and the pattern are inconsistent.
    """
    adj = [set() for _ in range(n_nodes)]
    for a, b in directed:
        adj[a].add(b)
        adj[b].add(a)
    for a, b in undirected:
        adj[a].add(b)
        adj[b].add(a)

    def orient(u, v):
        undirected.discard((min(u, v), max(u, v)))
        directed.add((u, v))
        if mask is not None and not mask.allows(u, v):
            raise ConstraintViolation(
                f"orientation {u} -> {v} forced by closure but forbidden by mask"
            )
        if (u, v) not in reference_arcs:
            raise ConstraintViolation(
                f"closure derived {u} -> {v}, which contradicts the source graph"
            )

    changed = True
    while changed:
        changed = False
        # R1: a -> b, b - c, a and c non-adjacent  =>  b -> c
        for a, b in list(directed):
            for c in list(adj[b]):
                if c != a and (min(b, c), max(b, c)) in undirected and c not in adj[a]:
                    orient(b, c)
                    changed = True
        # R2: a -> c -> b with a - b  =>  a -> b
        for a, b in list(undirected):
            for u, v in ((a, b), (b, a)):
                if any((u, c) in directed and (c, v) in directed for c in adj[u]):
                    orient(u, v)
                    changed = True
                    break
        # R3: a - b, a - c, a - d, c -> b, d -> b, c and d non-adjacent  =>  a -> b
        for a, b in list(undirected):
            for u, v in ((a, b), (b, a)):
                into_v = [
                    c
                    for c in adj[u]
                    if (min(u, c), max(u, c)) in undirected and (c, v) in directed
                ]
                if any(
                    d not in adj[c]
                    for c, d in itertools.combinations(into_v, 2)
                ):
                    orient(u, v)
                    changed = True
                    break
        # R4: i - j, i - k, k -> l, l -> j, k and j non-adjacent  =>  i -> j
        for a, b in list(undirected):
            for i, j in ((a, b), (b, a)):
                hit = False
                for k in adj[i]:
                    if (min(i, k), max(i, k)) not in undirected or k in adj[j]:
                        continue
                    if any((k, l) in directed and (l, j) in directed for l in adj[k]):
                        hit = True
                        break
                if hit:
                    orient(i, j)
                    changed = True
                    break


def oracle_dag_to_cpdag(dag, mask=None):
    """The pattern of the DAG's (mask-constrained) class: v-structures
    seeded pair by pair over each node's parents, then every arc whose
    reversal the mask forbids, then the four rule passes."""
    if mask is not None:
        if mask.n_nodes != dag.n_nodes:
            raise ConstraintViolation("mask size does not match graph")
        for a, b in dag.arcs:
            if not mask.allows(a, b):
                raise ConstraintViolation(f"input arc {a} -> {b} is forbidden")

    arcs = dag.arcs
    directed = set()
    for c in range(dag.n_nodes):
        for a, b in itertools.combinations(dag.parents(c), 2):
            if (a, b) not in arcs and (b, a) not in arcs:
                directed.update(((a, c), (b, c)))
    undirected = set()
    for x, y in arcs:
        if (x, y) in directed:
            continue
        if mask is not None and not mask.allows(y, x):
            directed.add((x, y))
        else:
            undirected.add((min(x, y), max(x, y)))

    oracle_meek_closure(dag.n_nodes, directed, undirected, mask, arcs)
    return Cpdag(dag.n_nodes, frozenset(directed), frozenset(undirected))


def oracle_reachability(n, arcs):
    """Transitive closure via boolean matrix powers; reach[a, b] means a path a->...->b."""
    adj = np.zeros((n, n), dtype=bool)
    for a, b in arcs:
        adj[a, b] = True
    reach = adj.copy()
    for _ in range(n):
        reach = reach | (reach.astype(int) @ adj.astype(int) > 0)
    return reach


def oracle_stability_curves(models, mask):
    """(edge curves, path curves, imputed flags) as stability_graphs builds
    them, with one hit vector per structure instead of hit matrices.

    Complexity 0 pins every structure to 0; the maximum complexity pins
    edges to 1 (0 on a pair the mask forbids both ways) and paths to the
    complete DAG's closure when the mask admits one.  Each curve runs
    through the observed ratios and the pins at the complexities nothing
    was observed at, linear between them and constant beyond the last.
    """
    p = mask.n_nodes
    max_j = p * (p - 1) // 2
    counts = np.zeros(max_j + 1, dtype=np.int64)
    edge_hits = {(a, b): np.zeros(max_j + 1) for a in range(p) for b in range(a + 1, p)}
    path_hits = {(a, b): np.zeros(max_j + 1) for a in range(p) for b in range(p) if a != b}
    for m in models:
        j = m.fit.complexity
        counts[j] += 1
        for pair in m.cpdag.skeleton():
            edge_hits[pair][j] += 1
        closure = oracle_reachability(p, m.cpdag.directed)
        for a, b in zip(*np.nonzero(closure)):
            path_hits[(int(a), int(b))][j] += 1

    edge_pins = {
        0: dict.fromkeys(edge_hits, 0.0),
        max_j: {(a, b): float(mask.allows(a, b) or mask.allows(b, a)) for a, b in edge_hits},
    }
    path_pins = {0: dict.fromkeys(path_hits, 0.0)}
    full = complete_dag_under(mask)
    if full is not None:
        closure = oracle_reachability(p, dag_to_cpdag(full, mask).directed)
        path_pins[max_j] = {(a, b): float(closure[a, b]) for a, b in path_hits}

    def finalize(hits, pinned):
        anchors = sorted(set(np.flatnonzero(counts > 0).tolist()) | set(pinned))
        curves = {}
        for key, hit in hits.items():
            ys = [hit[j] / counts[j] if counts[j] > 0 else pinned[j][key] for j in anchors]
            curves[key] = np.interp(np.arange(max_j + 1), anchors, ys)
        return curves

    return finalize(edge_hits, edge_pins), finalize(path_hits, path_pins), counts == 0


def oracle_dominates(f, g):
    """Minimization on both coordinates: f dominates g.

    An infeasible fit (chi-square +inf) dominates nothing.
    """
    if f[0] == np.inf:
        return False
    return f[0] <= g[0] and f[1] <= g[1] and (f[0] < g[0] or f[1] < g[1])


def oracle_front_ranks(points):
    """Rank per point by repeated removal of the non-dominated set (rank 0 first)."""
    idx = list(range(len(points)))
    ranks = [None] * len(points)
    r = 0
    while idx:
        front = [
            i
            for i in idx
            if not any(oracle_dominates(points[j], points[i]) for j in idx if j != i)
        ]
        for i in front:
            ranks[i] = r
        idx = [i for i in idx if i not in front]
        r += 1
    return ranks


def oracle_crowding(points):
    """Crowding distance per point of one front, one objective at a time.

    Each objective's values are sorted stably; the two ends get +inf and each
    interior point adds its neighbours' gap over the span.  An infeasible
    chi-square counts as twice the largest finite one plus 1.
    """
    d = [0.0] * len(points)
    if len(points) <= 2:
        return [np.inf] * len(points)
    for col in range(2):
        vals = [float(pt[col]) for pt in points]
        finite = [v for v in vals if v != np.inf]
        ceiling = max(finite) * 2 + 1.0 if finite else 1.0
        vals = [v if v != np.inf else ceiling for v in vals]
        order = sorted(range(len(vals)), key=vals.__getitem__)
        d[order[0]] = d[order[-1]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span > 0:
            for prev, i, nxt in zip(order, order[1:], order[2:]):
                d[i] += (vals[nxt] - vals[prev]) / span
    return d


def oracle_survivors(points, k):
    """NSGA-II truncation to k points, by oracle ranks and oracle crowding.

    Returns the kept indices (whole fronts in rank order, each in index
    order, then the split front's points by descending crowding, ties in
    index order) and each kept point's crowding within the kept part of its
    front.
    """
    ranks = oracle_front_ranks(points)
    kept = []
    for r in range(max(ranks) + 1):
        front = [i for i in range(len(points)) if ranks[i] == r]
        if len(kept) + len(front) > k:
            d = oracle_crowding([points[i] for i in front])
            order = sorted(range(len(front)), key=lambda j: -d[j])
            front = [front[j] for j in order[: k - len(kept)]]
        kept += front
        if len(kept) == k:
            break
    crowding = {}
    for r in set(ranks[i] for i in kept):
        part = [i for i in kept if ranks[i] == r]
        crowding.update(zip(part, oracle_crowding([points[i] for i in part])))
    return kept, [crowding[i] for i in kept]


def _rank_array(objs: np.ndarray) -> np.ndarray:
    """Front index per row of one search, by a sorted sweep over the two
    objectives: the per-search NSGA-II ranking that the search's batched
    sweep (search._rank_stack) must equal on every search of a stack.

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
    """Crowding distance per row of one front: the per-front loop that the
    search's segmented search._crowding must equal bit for bit."""
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
    """The k rows elitist selection keeps from one search, in order, and
    crowding distances: the per-search truncation that the search's batched
    search._survivor_stack must equal bit for bit.

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


def oracle_midranks(values):
    """Each value's rank: the mean of the 1-based positions of its ties in
    the sorted order, found by brute force."""
    ordered = sorted(values)
    out = []
    for v in values:
        positions = [i + 1 for i, w in enumerate(ordered) if w == v]
        out.append(sum(positions) / len(positions))
    return np.array(out)


def member_arcs(member):
    """The arc set of a class member given as per-node parent bitmasks."""
    return frozenset(
        (a, b) for b, pa in enumerate(member) for a in range(len(member)) if pa >> a & 1
    )


def oracle_enumerate_extensions(cpdag, mask=None, cap=4096):
    """The class as a list of Dags, by the same backtracking over the sorted
    free edges, (a, b) before (b, a), with sets of parents and a walk up
    them for each cycle test."""
    n = cpdag.n_nodes
    base = set(cpdag.directed)
    if mask is not None:
        for a, b in base:
            if not mask.allows(a, b):
                raise ConstraintViolation(f"pattern arc {a} -> {b} is forbidden")
    free = sorted(cpdag.undirected)
    adj = [set() for _ in range(n)]
    for a, b in cpdag.skeleton():
        adj[a].add(b)
        adj[b].add(a)
    parents = [set() for _ in range(n)]
    for a, b in base:
        parents[b].add(a)
    results = []

    def creates_v(a, b):
        return any(c != a and c not in adj[a] for c in parents[b])

    def is_ancestor(a, b):
        seen = set()
        frontier = [b]
        while frontier:
            for c in parents[frontier.pop()]:
                if c == a:
                    return True
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return False

    current = set(base)

    def place(k):
        if k == len(free):
            results.append(Dag(n, frozenset(current)))
            if len(results) > cap:
                raise ExtensionCapExceeded(f"equivalence class exceeds cap of {cap} members")
            return
        a, b = free[k]
        for u, v in ((a, b), (b, a)):
            if mask is not None and not mask.allows(u, v):
                continue
            if creates_v(u, v) or is_ancestor(v, u):
                continue
            current.add((u, v))
            parents[v].add(u)
            place(k + 1)
            parents[v].discard(u)
            current.discard((u, v))

    if not oracle_is_acyclic(n, base):
        raise NoExtension("directed part of the pattern is cyclic")
    place(0)
    if not results:
        raise NoExtension("pattern admits no consistent acyclic extension")
    return results


def oracle_class_effects(cpdag, cov, mask, x, y):
    """The effect of x on y in every member of the pattern's class, one
    regression per member, in enumeration order."""
    return [
        causal_effect(Dag(cpdag.n_nodes, member_arcs(member)), cov, x, y)
        for member in enumerate_extensions(cpdag, mask)
    ]


def chain_covariance(beta1, beta2, s1=1.0, s2=1.0, s3=1.0):
    """Implied covariance of x1 -> x2 -> x3 with unit-free noise variances.

    x1 = e1, x2 = beta1*x1 + e2, x3 = beta2*x2 + e3, var(ei) = si.
    Entries solved by hand from the path rules.
    """
    v1 = s1
    v2 = beta1**2 * v1 + s2
    v3 = beta2**2 * v2 + s3
    c12 = beta1 * v1
    c23 = beta2 * v2
    c13 = beta1 * beta2 * v1
    return np.array(
        [
            [v1, c12, c13],
            [c12, v2, c23],
            [c13, c23, v3],
        ]
    )


def sem_implied_covariance(n, weighted_arcs, noise_vars):
    """Sigma = (I - B)^-T ... computed instead by simulation-free recursion.

    weighted_arcs: {(a, b): coefficient} meaning b gets coefficient * a.
    Solved by the standard linear relation x = B^T x + e  =>
    Sigma = (I - Bt)^-1 Psi (I - Bt)^-T with Bt[b, a] = coef(a->b).
    """
    bt = np.zeros((n, n))
    for (a, b), w in weighted_arcs.items():
        bt[b, a] = w
    inv = np.linalg.inv(np.eye(n) - bt)
    return inv @ np.diag(noise_vars) @ inv.T


def gaussian_deviance(sample_cov, implied_cov, n_obs):
    """(n-1) * [ln|Sigma| + tr(S Sigma^-1) - ln|S| - p], evaluated directly."""
    p = sample_cov.shape[0]
    sign_i, logdet_i = np.linalg.slogdet(implied_cov)
    sign_s, logdet_s = np.linalg.slogdet(sample_cov)
    assert sign_i > 0 and sign_s > 0
    tr = float(np.trace(sample_cov @ np.linalg.inv(implied_cov)))
    return (n_obs - 1) * (logdet_i + tr - logdet_s - p)


def oracle_sem_params(n_nodes, arcs, sample_cov):
    """Per-node least squares: ({(a, b): weight}, [noise variance per node])."""
    weights = {}
    noise = []
    for j in range(n_nodes):
        pa = sorted(a for a, b in arcs if b == j)
        if pa:
            beta = np.linalg.pinv(sample_cov[np.ix_(pa, pa)]) @ sample_cov[pa, j]
            for a, w in zip(pa, beta):
                weights[(a, j)] = w
            noise.append(float(sample_cov[j, j] - sample_cov[pa, j] @ beta))
        else:
            noise.append(float(sample_cov[j, j]))
    return weights, noise


def oracle_fit_chi_square(n_nodes, arcs, sample_cov, n_obs):
    """Independent DAG fit: estimate per-node params, build Sigma, full deviance."""
    sigma = sem_implied_covariance(n_nodes, *oracle_sem_params(n_nodes, arcs, sample_cov))
    return gaussian_deviance(sample_cov, sigma, n_obs)


def oracle_pareto_front(n_nodes, sample_cov, n_obs, forbidden=None):
    """Exhaustive-scoring Pareto front: complexity -> best chi-square.

    A complexity level stays only when it strictly improves on every
    smaller one (1e-9 slack), which is exactly non-domination here.
    """
    best = {}
    for arcs in all_dag_arcsets(n_nodes):
        if forbidden is not None and any(forbidden[a][b] for a, b in arcs):
            continue
        chi = oracle_fit_chi_square(n_nodes, arcs, sample_cov, n_obs)
        k = len(arcs)
        if k not in best or chi < best[k]:
            best[k] = chi
    front = {}
    cur = np.inf
    for k in sorted(best):
        if best[k] < cur - 1e-9:
            front[k] = best[k]
            cur = best[k]
    return front


def node_regression(cov, j, parents):
    """Residual variance of the least squares of node j on its parents, by one
    solve; DegenerateData when the parent block is singular or the residual
    variance is not positive."""
    resid = float(cov[j, j])
    if len(parents):
        rhs = cov[parents, j]
        try:
            b = np.linalg.solve(cov[parents][:, parents], rhs)
        except np.linalg.LinAlgError:
            raise DegenerateData(f"singular parent block for node {j}") from None
        resid = float(cov[j, j] - rhs @ b)
    if resid <= 0 or not np.isfinite(resid):
        raise DegenerateData(f"non-positive residual variance at node {j}")
    return resid


def oracle_exact_front(cov, n, mask):
    """The exact optimum of the search's score at every complexity.

    Dynamic programming over sink orders (Koivisto & Sood 2004; Silander &
    Myllymaki 2006) with an arc-count index: F[U][k] is the least sum of
    ln psi over the DAGs on the node set U with k arcs, reached by adding a
    sink j with c parents, its best allowed parent set inside U \\ {j}.
    The local scores are ``ln node_regression``, NaN where the fit
    degenerates, as the search's scorer keeps them; a degenerate parent set
    is never chosen.  Each optimum's chi-square is summed again in node
    order, as the scorer sums it, so a DAG the search finds scores the same.

    Returns ({complexity: least chi-square}, the front as ParetoModels built
    by the search's own post-filter).
    """
    p = len(cov)
    size = 1 << p
    popcount = np.array([bin(s).count("1") for s in range(size)])
    parents_of = [[a for a in range(p) if s >> a & 1] for s in range(size)]
    log_psi = np.full((p, size), np.nan)
    for j in range(p):
        allowed = sum(1 << a for a in range(p) if a != j and not mask.forbidden[a, j])
        for s in range(size):
            if s & ~allowed == 0:
                try:
                    log_psi[j, s] = np.log(node_regression(cov, j, parents_of[s]))
                except DegenerateData:
                    pass
    # best[j][c][u]: least ln psi of node j over its parent sets of size c
    # inside u, and arg[j][c][u] that set; one subset-min pass per bit
    local = np.where(np.isnan(log_psi), np.inf, log_psi)
    best = np.full((p, p, size), np.inf)
    arg = np.zeros((p, p, size), dtype=np.int64)
    for c in range(p):
        layer = popcount == c
        best[:, c, layer] = local[:, layer]
        arg[:, c, layer] = np.flatnonzero(layer)
    for b in range(p):
        with_b = np.flatnonzero(np.arange(size) >> b & 1)
        take = best[:, :, with_b ^ (1 << b)] < best[:, :, with_b]
        best[:, :, with_b] = np.where(take, best[:, :, with_b ^ (1 << b)], best[:, :, with_b])
        arg[:, :, with_b] = np.where(take, arg[:, :, with_b ^ (1 << b)], arg[:, :, with_b])
    top = p * (p - 1) // 2
    table = np.full((size, top + 1), np.inf)
    table[0, 0] = 0.0
    back = {}
    for u in sorted(range(1, size), key=lambda s: popcount[s]):
        for j in parents_of[u]:
            rest = u ^ (1 << j)
            for c in range(popcount[rest] + 1):
                cand = table[rest, : top + 1 - c] + best[j, c, rest]
                better = cand < table[u, c:]
                table[u, c:][better] = cand[better]
                for k in np.flatnonzero(better) + c:
                    back[u, int(k)] = (j, c, rest)
    logdet_s = np.linalg.slogdet(cov)[1]
    optimum, adjs, objs, lowest = {}, [], [], INFEASIBLE
    for k in np.flatnonzero(np.isfinite(table[size - 1])).tolist():
        arcs, u, left = [], size - 1, k
        while u:
            j, c, rest = back[u, left]
            arcs += [(a, j) for a in parents_of[arg[j, c, rest]]]
            u, left = rest, left - c
        adj = arc_matrix(p, arcs)
        total = 0.0
        for j in range(p):  # node order, as the scorer adds them
            total += log_psi[j, int(adj[:, j] @ (1 << np.arange(p)))]
        optimum[k] = max((n - 1) * (total - logdet_s), 0.0)
        if optimum[k] < lowest:  # below every lower complexity: on the front
            lowest = optimum[k]
            adjs.append(adj)
            objs.append((lowest, k))
    front = _pareto_postfilter(np.array(adjs), np.array(objs), mask, n, None)
    return optimum, front


def unreshape(frame, layout):
    """Inverse bookkeeping of reshape: read every observed cell back."""
    p, T = len(layout.variables), layout.slices
    assert T >= 2 and frame.n_rows % (T - 1) == 0 and frame.n_cols == 2 * p
    vals = frame.values
    cols, stacked = [], []
    for v_i, v in enumerate(layout.variables):
        kind = frame.columns[v_i].kind
        for k in layout.presence[v]:
            if k < T - 1:
                col = vals[k :: T - 1, v_i]  # prev side of pair (k, k+1)
            else:
                col = vals[T - 2 :: T - 1, p + v_i]  # cur side of the last pair
            cols.append(Column(layout.column_name(v, k), kind))
            stacked.append(col)
    return LongitudinalDataset(Dataset(cols, np.column_stack(stacked)), layout)


def oracle_generate_data(model, s, rng):
    """Wide data matrix of the ground-truth SEM, sampled with one hand-written
    loop for the baseline and one for each later slice.

    Nodes are drawn in the order of ``graphs.topological_order``'s rule (the
    smallest ready node first), each as its noise scale times one standard
    normal draw plus its parents' terms in sorted-arc order.
    """
    p, T = model.p, model.n_slices

    def smallest_first(arcs):
        order, left = [], set(range(p))
        while left:
            v = min(u for u in left if not any(b == u and a in left for a, b in arcs))
            order.append(v)
            left.remove(v)
        return order

    base_parents = {v: [] for v in range(p)}
    for (u, v), w in sorted(model.baseline_weights.items()):
        base_parents[v].append((u, w))
    cur_parents = {v: [] for v in range(p)}
    intra = set()
    for (u, c), w in sorted(model.transition_weights.items()):
        cur_parents[c - p].append((u, w))
        if u >= p:
            intra.add((u - p, c - p))
    slices = np.empty((T, s, p))
    x0 = np.zeros((s, p))
    for v in smallest_first(model.baseline_arcs):
        total = model.baseline_noise[v] * rng.standard_normal(s)
        for u, w in base_parents[v]:
            total = total + w * x0[:, u]
        x0[:, v] = total
    slices[0] = x0
    for t in range(1, T):
        prev, cur = slices[t - 1], np.zeros((s, p))
        for v in smallest_first(intra):
            total = model.transition_noise[v] * rng.standard_normal(s)
            for u, w in cur_parents[v]:
                total = total + w * (prev[:, u] if u < p else cur[:, u - p])
            cur[:, v] = total
        slices[t] = cur
    # variable-major columns, every slice of one variable before the next
    return slices.transpose(1, 2, 0).reshape(s, p * T)
