"""Stability selection over subsampled searches.

Each data subset yields a Pareto set of models; aggregation turns those into
per-structure selection-probability curves indexed by model complexity, from
which thresholds carve out the relevant structures and the final summary
graph is assembled.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DegenerateData, SearchFailed, StableSearchError, require
from .graphs import (
    ConstraintMask, Dag, arc_matrix, dag_to_cpdag, is_acyclic, reachability,
    topological_order,
)
from .scoring import Dataset, sample_covariance
from .search import ParetoModel, SearchParams, pareto_fronts
# evolve is not called here: bench/tracer.py wraps stablesearch.stability.evolve by name
from .search import evolve  # noqa: F401
from .seeding import SEARCH_LANE, derived_seed

log = logging.getLogger(__name__)

EDGE = "edge"
CAUSAL_PATH = "causal_path"


@dataclass(frozen=True)
class Thresholds:
    pi_sel: float = 0.6
    pi_bic: int = 0

    def __post_init__(self):
        for f in fields(self):
            require(f.name, getattr(self, f.name), type(f.default))
        if not 0 < self.pi_sel <= 1:
            raise ValueError("pi_sel must lie in (0, 1]")
        if self.pi_bic < 0:
            raise ValueError("pi_bic must be nonnegative")


@dataclass(frozen=True)
class RelevantStructure:
    kind: str
    key: tuple[int, int]
    reliability: float


@dataclass(frozen=True)
class StabilityGraph:
    """Selection-probability curves per structure, indexed by complexity 0..J.

    probabilities holds one (J+1)-vector per key: unordered (a, b) pairs with
    a < b for edges, ordered pairs for causal paths.  imputed marks the
    complexities at which no model was observed and the value was pinned or
    interpolated.
    """

    kind: str
    labels: tuple[str, ...]
    probabilities: dict[tuple[int, int], np.ndarray]
    imputed: np.ndarray

    @property
    def max_complexity(self) -> int:
        return len(self.imputed) - 1

    def stacked(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        """The sorted keys and their curves as one (keys, J+1) float array."""
        keys = sorted(self.probabilities)
        curves = np.array([self.probabilities[k] for k in keys], dtype=float)
        return keys, curves.reshape(len(keys), len(self.imputed))

    def reliability(self, pi_bic: int) -> dict[tuple[int, int], float]:
        """Each structure's peak probability over complexities 0..min(pi_bic, J)."""
        keys, curves = self.stacked()
        window = curves[:, : min(pi_bic, self.max_complexity) + 1]
        return dict(zip(keys, window.max(axis=1).tolist()))


@dataclass
class SubsetResult:
    index: int
    models: list[ParetoModel] | None
    error: str | None = None
    cov: np.ndarray | None = None  # the covariance searched, reused for effects

    @property
    def failed(self) -> bool:
        return self.models is None


def subsample_blocks(
    data: Dataset, n_blocks: int, n_subsets: int, rng: np.random.Generator,
    unit: str = "rows",
) -> list[Dataset]:
    """n_subsets subsets, each floor(u/2) of data's u equal row blocks drawn
    without replacement; a subset holds its blocks in draw order."""
    if n_blocks < 4:
        raise DegenerateData(f"need at least 4 {unit} to subsample")
    half = n_blocks // 2
    blocks = np.arange(data.n_rows).reshape(n_blocks, -1)  # row i: block i's rows
    size = half * blocks.shape[1]
    if size < data.n_cols + 2:
        raise DegenerateData(f"subset size {size} too small for {data.n_cols} columns")
    if n_subsets < 1:
        raise ValueError("n_subsets must be positive")
    return [
        data.take_rows(blocks[rng.choice(n_blocks, size=half, replace=False)].ravel())
        for _ in range(n_subsets)
    ]


def subsample(data: Dataset, n_subsets: int, rng: np.random.Generator) -> list[Dataset]:
    """n_subsets subsets of size floor(n/2), rows drawn without replacement."""
    return subsample_blocks(data, data.n_rows, n_subsets, rng)


def cross_sectional_cov(subset: Dataset):
    """A subset's sample covariance and row count."""
    return sample_covariance(subset), subset.n_rows


def _search_chunk(task):
    """The results of one contiguous chunk of a problem's subsets, in order,
    from one search.pareto_fronts call over the covariances that compute.
    A subset fails alone, whether its covariance or its search failed: its
    result holds the error's type and text."""
    start, subsets, mask, params = task
    results, searched = {}, {}  # per subset: the error it failed with, or its (cov, n)
    for index, subset in enumerate(subsets, start):
        try:
            searched[index] = cross_sectional_cov(subset)
        except StableSearchError as exc:
            results[index] = exc
    p = mask.n_nodes  # the stack keeps its shape when no covariance computes
    covs = np.array([cov for cov, _ in searched.values()]).reshape(len(searched), p, p)
    ns = [n for _, n in searched.values()]
    seeds = [derived_seed(params.seed, SEARCH_LANE, i) for i in searched]
    results.update(zip(searched, pareto_fronts(covs, ns, seeds, mask, params, subsets[0].names)))
    return [SubsetResult(i, None, f"{type(r).__name__}: {r}") if isinstance(r, StableSearchError)
            else SubsetResult(i, r, cov=searched[i][0]) for i, r in sorted(results.items())]


def run_searches(
    problems: list[tuple[list[Dataset], ConstraintMask, SearchParams]],
    parallelism: int = 1,
) -> list[SubsetResult]:
    """One search per subset of every (subsets, mask, params) problem, all
    through one map, so a run starts at most one process pool.  Each problem's
    subsets are split into min(workers, subsets) contiguous chunks (one at
    parallelism 1), each a map task (_search_chunk).

    Results come back flat, by problem, then subset index, whatever the
    parallelism degree; each derived seed depends only on (the problem's
    params.seed, the subset index), and a batched search returns what it
    returns alone, so outputs are reproducible bit for bit.  Fails when more
    than 10% of one problem's subsets fail, in problem order.
    """
    if not all(subsets for subsets, _, _ in problems):
        raise SearchFailed("no subsets to search")
    workers = min(parallelism, sum(len(subsets) for subsets, _, _ in problems))
    tasks = []
    for subsets, mask, params in problems:
        bounds = np.linspace(0, len(subsets), min(workers, len(subsets)) + 1).astype(int)
        tasks += [(a, subsets[a:b], mask, params) for a, b in zip(bounds[:-1], bounds[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_search_chunk, tasks))
    else:
        chunks = [_search_chunk(t) for t in tasks]
    results = [r for chunk in chunks for r in chunk]

    start = 0
    for subsets, _, _ in problems:
        failures = [r for r in results[start : start + len(subsets)] if r.failed]
        start += len(subsets)
        for r in failures:
            log.warning("subset %d failed: %s", r.index, r.error)
        if len(failures) > 0.1 * len(subsets):
            raise SearchFailed(f"{len(failures)} of {len(subsets)} subset searches failed")
    return results


def collect_models(results: list[SubsetResult]) -> list[ParetoModel]:
    out = []
    for r in results:
        if not r.failed:
            out.extend(r.models)
    return out


def complete_dag_under(mask: ConstraintMask) -> Dag | None:
    """The densest DAG the mask allows: one arc per pair with a free direction.

    Pairs forbidden in both directions stay disconnected.  Returns None only
    when the forced precedences (pairs with exactly one allowed direction)
    form a cycle, so no consistent total order exists.
    """
    p = mask.n_nodes
    allowed = ~mask.forbidden
    order = topological_order(p, np.argwhere(allowed & ~allowed.T).tolist())
    if order is None:
        return None
    free = allowed | allowed.T
    return Dag(p, {(a, b) for i, a in enumerate(order) for b in order[i + 1 :] if free[a, b]})


def _curves(hits, counts, keys, pins: dict[int, np.ndarray]):
    """Per key, the curve through one (p, p) anchor row per anchor: the
    observed ratio hits[j] / counts[j], else the pinned row; linear
    interpolation across gaps, constant beyond the last anchor."""
    anchors = sorted(set(np.flatnonzero(counts).tolist()) | set(pins))
    rows = np.array([hits[j] / counts[j] if counts[j] else pins[j] for j in anchors])
    grid = np.arange(len(counts))
    return {(a, b): np.interp(grid, anchors, rows[:, a, b]) for a, b in keys}


def stability_graphs(
    models, mask: ConstraintMask, labels: tuple[str, ...]
) -> tuple[StabilityGraph, StabilityGraph]:
    """Edge- and causal-path-stability graphs in one aggregation pass.

    Each model adds its skeleton to the edge hit table and the closure of
    its compelled arcs to the path hit table, both (J+1, p, p), at the row
    of its complexity.  Boundary complexities are pinned analytically:
    complexity 0 has only the empty pattern (probability 0 everywhere), and
    the maximum complexity has the single constrained class of complete DAGs
    (edge probability 1 on every pair the mask allows in some direction, 0
    on a pair it forbids both ways; path probabilities from that class when
    the mask admits a complete DAG).
    """
    models = list(models)
    if not models:
        raise SearchFailed("no models to aggregate")
    p = mask.n_nodes
    max_j = p * (p - 1) // 2
    counts = np.zeros(max_j + 1, dtype=np.int64)
    edge_hits = np.zeros((max_j + 1, p, p))
    path_hits = np.zeros((max_j + 1, p, p))
    for m in models:
        j = m.fit.complexity
        counts[j] += 1
        edge_hits[j] += arc_matrix(p, m.cpdag.skeleton())
        path_hits[j] += reachability(arc_matrix(p, m.cpdag.directed))

    zeros = np.zeros((p, p))
    allowed = ~mask.forbidden
    edge_pins = {0: zeros, max_j: (allowed | allowed.T).astype(float)}
    path_pins = {0: zeros}
    full = complete_dag_under(mask)
    if full is not None:
        path_pins[max_j] = reachability(arc_matrix(p, dag_to_cpdag(full, mask).directed))
    edges = [(a, b) for a in range(p) for b in range(a + 1, p)]
    paths = [(a, b) for a in range(p) for b in range(p) if a != b]
    edge_curves = _curves(edge_hits, counts, edges, edge_pins)
    path_curves = _curves(path_hits, counts, paths, path_pins)
    imputed = counts == 0
    return (
        StabilityGraph(EDGE, labels, edge_curves, imputed),
        StabilityGraph(CAUSAL_PATH, labels, path_curves, imputed.copy()),
    )


def compute_pi_bic(models) -> int:
    """Complexity with the smallest mean BIC; ties go to the smaller level."""
    sums: dict[int, float] = {}
    ns: dict[int, int] = {}
    for m in models:
        j = m.fit.complexity
        sums[j] = sums.get(j, 0.0) + m.fit.bic
        ns[j] = ns.get(j, 0) + 1
    if not sums:
        raise SearchFailed("no models, pi_bic undefined")
    return min(sorted(sums), key=lambda j: sums[j] / ns[j])


def relevant_structures(
    edge_sg: StabilityGraph, path_sg: StabilityGraph, thr: Thresholds
) -> list[RelevantStructure]:
    """Structures whose probability within complexities <= pi_bic peaks >= pi_sel."""
    out = []
    for sg in (edge_sg, path_sg):
        for key, reliability in sg.reliability(thr.pi_bic).items():
            if reliability >= thr.pi_sel:
                out.append(RelevantStructure(sg.kind, key, reliability))
    return out


@dataclass(frozen=True)
class AnnotatedCausalGraph:
    """Final summary graph: reliability on every edge, effects on directed ones."""

    labels: tuple[str, ...]
    directed: dict[tuple[int, int], float]
    undirected: dict[tuple[int, int], float]
    effects: dict[tuple[int, int], float]


def assemble_graph(
    relevant_edges: list[RelevantStructure],
    relevant_paths: list[RelevantStructure],
    mask: ConstraintMask,
    labels: tuple[str, ...],
) -> AnnotatedCausalGraph:
    """Summary-graph assembly: relevant edges, then one orientation pass.

    The mask-forced arcs (pair present, one direction forbidden) in pair
    order, then the relevant paths by descending reliability, then key,
    orient their edges in turn.  A candidate whose pair is oriented or no
    relevant edge is skipped; one that contradicts an oriented arc, that the
    mask forbids, or that would close a directed cycle is logged and skipped.
    """
    p = mask.n_nodes
    undirected: dict[tuple[int, int], float] = {}
    directed: dict[tuple[int, int], float] = {}

    for st in relevant_edges:
        a, b = min(st.key), max(st.key)
        undirected[(a, b)] = st.reliability

    forced = [
        (a, b) if mask.allows(a, b) else (b, a)
        for a, b in sorted(undirected) if mask.allows(a, b) != mask.allows(b, a)
    ]
    paths = sorted(relevant_paths, key=lambda st: (-st.reliability, st.key))
    for a, b in forced + [st.key for st in paths]:
        pair = (min(a, b), max(a, b))
        if (b, a) in directed:
            skip = "orientation conflict: path %s -> %s contradicts existing arc"
        elif pair not in undirected:
            continue
        elif not mask.allows(a, b):
            skip = "skipping orientation %s -> %s: the prior forbids it"
        # the directed part is acyclic, so only the new arc can close a cycle
        elif not is_acyclic(p, [*directed, (a, b)]):
            skip = "skipping orientation %s -> %s: would close a directed cycle"
        else:
            directed[(a, b)] = undirected.pop(pair)
            continue
        log.warning(skip, labels[a], labels[b])

    return AnnotatedCausalGraph(tuple(labels), directed, undirected, {})


def annotate_effects(
    graph: AnnotatedCausalGraph, estimates
) -> AnnotatedCausalGraph:
    """Attach standardized (or raw, for discrete endpoints) effects to arcs."""
    effects = dict(graph.effects)
    for est in estimates:
        key = (est.source, est.target)
        if key in graph.directed:
            value = est.standardized if est.standardized is not None else est.median
            effects[key] = value
    return replace(graph, effects=effects)
