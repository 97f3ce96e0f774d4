"""Total causal-effect estimation over equivalence classes and subsets.

For one DAG the total effect of x on y is the coefficient of x in the
least-squares regression of y on {x} union pa(x); adjusting for the parents
of x blocks every back-door path, so the coefficient is computable from a
covariance matrix alone.  Over a pattern the effect becomes a multiset with
one value per class member, and over subsampled searches the multisets
concatenate; the reported estimate is the median.  pa(x) depends only on
x's own undirected component, so a multiset is kept as (effect, member
count) pairs, one per subset and distinct pa(x).  Per chosen pattern only
the sources' components are enumerated; the others are counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DegenerateData, EmptyMultiset
from .graphs import ConstraintMask, Cpdag, Dag, enumerate_extensions
from .graphs import components, count_orientations, neighbours
from .scoring import CONTINUOUS, Dataset, is_singular


@dataclass(frozen=True)
class EffectEstimate:
    """Median total effect of source on target, optionally standardized."""

    source: int
    target: int
    median: float
    standardized: float | None
    n_values: int


def causal_effect(dag: Dag, cov: np.ndarray, x: int, y: int) -> float:
    """Total effect of x on y in the DAG, from the covariance alone.

    When y is a parent of x, intervening on x cannot change y and the
    effect is 0 by convention.
    """
    if x == y:
        raise ValueError("source and target must differ")
    cov = np.asarray(cov, dtype=float)
    pa = dag.parents(x)
    if y in pa:
        return 0.0
    pred = [x] + [v for v in pa if v != x]
    block = cov[pred][:, pred]
    if is_singular(block):
        raise DegenerateData("regressor submatrix is singular")
    beta = np.linalg.solve(block, cov[pred, y])
    return float(beta[0])


def _parent_counts(cpdag, mask, sources) -> dict[int, list[tuple[int, int]]]:
    """Per source x, each distinct pa(x) bitmask over the class with the
    number of members that have it, in first-seen order.

    The class is the product of the orientations of the pattern's
    undirected components, so x's own component is enumerated as a
    sub-pattern (every directed arc plus its undirected edges), and every
    other component contributes only its member count.
    """
    n = cpdag.n_nodes
    adj = neighbours(n, cpdag.undirected)
    comps = components(adj, (1 << n) - 1)
    members: dict[frozenset, list[tuple[int, ...]]] = {}  # sources without edges share one

    def enumerate_component(comp):
        edges = frozenset((a, b) for a, b in cpdag.undirected if comp >> a & 1)
        if edges not in members:
            sub = Cpdag(n, cpdag.directed, edges, cpdag.labels)
            members[edges] = enumerate_extensions(sub, mask)
        return members[edges]

    own = {x: next(comp for comp in comps if comp >> x & 1) for x in sources}

    def size(comp):
        # A mask can force an arc between two nodes of one component.  Its
        # orientations are then not free: with 0 -> 7 forced, 3 - 0 - 5 - 7
        # has 5, as 0 -> 5 <- 7 is no new v-structure, not the path's 4.
        # Such a component is enumerated, as a source's own component is.
        if comp in own.values() or any(comp >> a & comp >> b & 1 for a, b in cpdag.directed):
            return len(enumerate_component(comp))
        return count_orientations(adj, comp)

    sizes = {comp: size(comp) for comp in comps if comp & (comp - 1)}
    out = {}
    for x in sources:
        rest = prod(k for comp, k in sizes.items() if comp != own[x])
        tally = Counter(member[x] for member in enumerate_component(own[x]))
        out[x] = [(pa, k * rest) for pa, k in tally.items()]
    return out


def _effect_pairs(parent_counts, n, cov, x, y, memo) -> list[tuple[float, int]]:
    """(effect, member count) per distinct pa(x) of one source; ``memo``
    maps (x, pa(x), y) to the effect under ``cov``."""
    out = []
    for pa, count in parent_counts:
        if (x, pa, y) not in memo:
            dag = Dag(n, frozenset((a, x) for a in range(n) if pa >> a & 1))
            memo[x, pa, y] = causal_effect(dag, cov, x, y)
        out.append((memo[x, pa, y], count))
    return out


def _median(pairs) -> tuple[float, int]:
    """np.median of the multiset that repeats each value count times, and
    its size, without expanding it."""
    total = sum(count for _, count in pairs)
    seen, lo = 0, None
    for value, count in sorted(pairs):
        seen += count
        if lo is None and seen > (total - 1) // 2:
            lo = value
        if seen > total // 2:
            break
    # np.median averages the middle values starting from +0.0
    return ((0.0 + lo + value) / 2 if total % 2 == 0 else 0.0 + lo), total


def aggregate_effects(
    results,
    covariances,
    pi_bic: int,
    paths,
    data: Dataset,
    mask: ConstraintMask | None = None,
) -> list[EffectEstimate]:
    """Median effects for the given causal paths across all subsets.

    For each path the multisets of every subset's model at the chosen
    complexity are concatenated in subset order, each evaluated against that
    subset's own covariance (``covariances`` is indexed by subset, None for
    failed subsets).  A path with no value, as when no subset has a model at
    complexity ``pi_bic``, raises EmptyMultiset.  Standard deviations for
    standardization come from the full dataset, and standardized values are
    reported only when both endpoints are continuous.
    """
    models = [(r.index, m) for r in results if not r.failed for m in r.models]
    if not models:
        raise EmptyMultiset("no models to estimate effects from")
    chosen = [(i, m) for i, m in models if m.fit.complexity == pi_bic]

    pairs = [getattr(key, "key", key) for key in paths]
    sources = list(dict.fromkeys(x for x, _ in pairs))
    values: list[list[tuple[float, int]]] = [[] for _ in pairs]
    classes: dict[Cpdag, dict] = {}  # per chosen pattern: the mask is fixed per call
    memos: dict[int, dict] = {}  # per subset: its covariance fixes the regressions
    for i, m in chosen if pairs else ():
        if covariances[i] is not None:
            if m.cpdag not in classes:
                classes[m.cpdag] = _parent_counts(m.cpdag, mask, sources)
            memo = memos.setdefault(i, {})
            for (x, y), vals in zip(pairs, values):
                counts = classes[m.cpdag][x]
                vals += _effect_pairs(counts, m.cpdag.n_nodes, covariances[i], x, y, memo)

    sds = np.std(data.values, axis=0, ddof=1)
    kinds = data.kinds()
    out = []
    for (x, y), vals in zip(pairs, values):
        if not vals:
            raise EmptyMultiset(f"no effect values for path {x} -> {y}")
        median, n_values = _median(vals)
        standardized = None
        if kinds[x] == CONTINUOUS and kinds[y] == CONTINUOUS:
            standardized = median * float(sds[x]) / float(sds[y])
        out.append(EffectEstimate(x, y, median, standardized, n_values))
    return out
