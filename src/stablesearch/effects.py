"""Total causal-effect estimation over equivalence classes and subsets.

For one DAG the total effect of x on y is the coefficient of x in the
least-squares regression of y on {x} union pa(x); adjusting for the parents
of x blocks every back-door path, so the coefficient is computable from a
covariance matrix alone.  Over a pattern the effect becomes a multiset with
one value per class member, and over subsampled searches the multisets
concatenate; the reported estimate is the median.  Each distinct chosen
pattern's class is enumerated once per run, for all paths and all subsets
that chose it, with one regression per subset and distinct pa(x).  The
members come as parent bitmasks, and only one member per distinct pa(x)
is built as a Dag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, EmptyMultiset
from .graphs import ConstraintMask, Cpdag, Dag, enumerate_extensions
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


def _parent_classes(cpdag, mask, sources) -> dict[int, tuple[list[Dag], list[int]]]:
    """Per source x, one member of the class per distinct pa(x) in
    first-seen order, and each member's index into that list in enumeration
    order."""
    n = cpdag.n_nodes
    reps: dict[int, dict] = {x: {} for x in sources}  # pa(x) bitmask -> (index, Dag)
    index: dict[int, list[int]] = {x: [] for x in sources}
    for member in enumerate_extensions(cpdag, mask):
        for x in sources:
            seen = reps[x]
            if member[x] not in seen:
                arcs = {(a, b) for b, pa in enumerate(member) for a in range(n) if pa >> a & 1}
                seen[member[x]] = (len(seen), Dag(n, frozenset(arcs), cpdag.labels))
            index[x].append(seen[member[x]][0])
    return {x: ([dag for _, dag in reps[x].values()], index[x]) for x in sources}


def _class_effects(classes, cov, pairs, memo) -> list[list[float]]:
    """Per (x, y) pair, the effects over the class in enumeration order;
    ``classes`` comes from _parent_classes and ``memo`` maps (x, pa(x), y)
    to the effect under ``cov``."""
    values = []
    for x, y in pairs:
        members, index = classes[x]
        per_parents = []
        for dag in members:
            key = (x, tuple(dag.parents(x)), y)
            if key not in memo:
                memo[key] = causal_effect(dag, cov, x, y)
            per_parents.append(memo[key])
        values.append([per_parents[i] for i in index])
    return values


def ida_multiset(
    cpdag: Cpdag,
    cov: np.ndarray,
    mask: ConstraintMask | None,
    x: int,
    y: int,
) -> list[float]:
    """One total-effect value per member DAG of the pattern's class.

    Order follows the class enumeration, so repeated calls agree exactly.
    """
    return _class_effects(_parent_classes(cpdag, mask, [x]), cov, [(x, y)], {})[0]


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
    values: list[list[float]] = [[] for _ in pairs]
    classes: dict[Cpdag, dict] = {}  # per chosen pattern: the mask is fixed per call
    memos: dict[int, dict] = {}  # per subset: its covariance fixes the regressions
    for i, m in chosen if pairs else ():
        if covariances[i] is not None:
            if m.cpdag not in classes:
                classes[m.cpdag] = _parent_classes(m.cpdag, mask, sources)
            memo = memos.setdefault(i, {})
            class_values = _class_effects(classes[m.cpdag], covariances[i], pairs, memo)
            for vals, new in zip(values, class_values):
                vals.extend(new)

    sds = np.std(data.values, axis=0, ddof=1)
    kinds = data.kinds()
    out = []
    for (x, y), vals in zip(pairs, values):
        if not vals:
            raise EmptyMultiset(f"no effect values for path {x} -> {y}")
        median = float(np.median(vals))
        standardized = None
        if kinds[x] == CONTINUOUS and kinds[y] == CONTINUOUS:
            standardized = median * float(sds[x]) / float(sds[y])
        out.append(EffectEstimate(x, y, median, standardized, len(vals)))
    return out
