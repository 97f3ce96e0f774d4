"""Recovery loss split in two: selection error and search error.

Both gates run on fixed random SEMs drawn as the bench's cross-p16
workload draws them (a random causal order, ceil(1.25 p) arcs, weights of
magnitude 0.3-1.0 with random signs, unit noise, n=800), small enough for
an exact optimum of the search's score.

- The selection gate runs the pipeline at p=6, where every subset search
  is solved exactly (``search.exact_front``, checked against the oracle in
  tests/test_search.py), so its AUCs measure only the stability selection
  and the ROC sweep.
- The search gate runs ``evolve`` (NSGA-II with clone-last survival) at
  the ``SearchParams`` defaults, bounds its median front gap against the
  exact front, and floors the median top complexity it reaches.  At p=6 and 8 the exact
  front is ``oracles.oracle_exact_front``'s, and the gate measures the GA
  where the product solves exactly.  At p=10 and 12, past
  ``search.EXACT_NODES``, where the product runs the GA, it is
  ``search.exact_front``'s, and the gate measures the searches the product
  runs: there the GA stops short of the exact BIC optimum (it reaches
  complexity 8 at p=10 and 9.5 at p=12, against 12-15 and 15-18), so its
  reach, not the data, caps ``pi_bic``.

A change that moves a measured value past its floor or ceiling on purpose
states the new value and the new bound.
"""

import numpy as np
import pytest

from oracles import oracle_exact_front
from stablesearch.graphs import ConstraintMask, Dag, dag_to_cpdag
from stablesearch.pipeline import search_stability
from stablesearch.scoring import Dataset, sample_covariance
from stablesearch.search import SearchParams, evolve, exact_front
from stablesearch.simulate import roc_and_auc, sample_sem

N_ROWS = 800
N_ARCS = {6: 8, 8: 10, 10: 13, 12: 15}  # ceil(1.25 p)


def random_sem(p: int, seed: int):
    """(true DAG, data) with the columns relabelled off the causal order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(p)
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    k = N_ARCS[p]
    chosen = sorted(pairs[i] for i in rng.choice(len(pairs), k, replace=False))
    weights = rng.uniform(0.3, 1.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    values = np.zeros((N_ROWS, p))
    sample_sem(values, 0, dict(zip(chosen, weights)), (1.0,) * p, rng)
    data = np.empty_like(values)
    data[:, order] = values
    arcs = frozenset((int(order[a]), int(order[b])) for a, b in chosen)
    return Dag(p, arcs), Dataset([f"X{i + 1}" for i in range(p)], data)


def front_gap(models, optimum: dict, n: int) -> float:
    """Share of complexities 0..(exact BIC optimum) at which the best
    chi-square the models reach, at no greater complexity, exceeds the exact
    optimum by more than ln n."""
    ln_n = float(np.log(n))
    top = min(optimum, key=lambda k: optimum[k] + k * ln_n)
    missed = [
        min((m.fit.chi_square for m in models if m.fit.complexity <= k), default=np.inf)
        > optimum[k] + ln_n
        for k in range(top + 1)
    ]
    return float(np.mean(missed))


SELECTION_SEEDS = tuple(range(1, 11))
# (median, lowest) over the seeds; measured 1.000 / 0.750 edge and
# 0.951 / 0.817 causal through search.exact_front, the same values the
# oracle's front gave in its place.  The lowest cases miss true edges even
# at the full data's exact BIC optimum: weak or cancelling weights, not
# selection.
EDGE_AUC_FLOOR = (0.95, 0.70)
CAUSAL_AUC_FLOOR = (0.90, 0.75)


def test_selection_on_the_exact_front_recovers_the_truth():
    edge, causal = [], []
    for seed in SELECTION_SEEDS:
        dag, data = random_sem(6, seed)
        mask = ConstraintMask.empty(6)
        ((_, edge_sg, path_sg, pi_bic),) = search_stability(
            [(data, mask, SearchParams(seed=seed), None)], 12, 1
        )
        truth = dag_to_cpdag(dag)
        edge.append(roc_and_auc(edge_sg, truth, pi_bic).auc)
        causal.append(roc_and_auc(path_sg, truth, pi_bic).auc)
    print(f"exact-front selection at p=6: edge AUC {np.round(edge, 3).tolist()}, "
          f"causal AUC {np.round(causal, 3).tolist()}")
    for aucs, (median, lowest) in ((edge, EDGE_AUC_FLOOR), (causal, CAUSAL_AUC_FLOOR)):
        assert np.median(aucs) >= median and min(aucs) >= lowest


def exact_optimum(cov: np.ndarray, n: int, mask: ConstraintMask) -> dict:
    """Per complexity k, the least chi-square of a DAG with k arcs: the
    oracle's up to p=8, else the lowest exact-front chi-square at any
    complexity <= k, since the optimum never rises with k."""
    if mask.n_nodes <= 8:
        return oracle_exact_front(cov, n, mask)[0]
    front = {m.fit.complexity: m.fit.chi_square for m in exact_front(cov, n, mask, None)}
    chis = np.full(max(front) + 1, np.inf)
    chis[list(front)] = list(front.values())
    return dict(enumerate(np.minimum.accumulate(chis).tolist()))


SEARCH_SEEDS = tuple(range(1, 11))
# median front gap over the seeds, under clone-last survival at 8
# generations; measured 0.333 / 0.564 / 0.690 / 0.750 at p=6 / 8 / 10 / 12.
# Search seeds offset by 100 and 200 on the same problems gave 0.333 and
# 0.444 / 0.618 and 0.636 / 0.714 and 0.714 / 0.784 and 0.771.  The plain
# survival at 35 generations measured 0.472 / 0.652 / 0.786 / 0.875 under
# ceilings of 0.55 / 0.70 / 0.85 / 0.95.
FRONT_GAP_CEILING = {6: 0.50, 8: 0.68, 10: 0.78, 12: 0.85}
# median top complexity reached; measured 6 / 8 / 8 / 9.5, and 7.5 and 7.5 /
# 7 and 7 / 7.5 and 9 / 7.5 and 8 at the offset search seeds, against exact
# BIC optima of 5-9 / 9-12 / 12-15 / 15-18 over the seeds (the plain
# survival at 35 generations reached 6 / 6.5 / 7 / 6.5)
TOP_COMPLEXITY_FLOOR = {6: 6.0, 8: 7.0, 10: 7.5, 12: 7.5}


@pytest.mark.parametrize("p", sorted(FRONT_GAP_CEILING))
def test_search_front_gap_against_the_exact_front(p):
    gaps, tops = [], []
    for seed in SEARCH_SEEDS:
        _, data = random_sem(p, seed)
        cov, mask = sample_covariance(data), ConstraintMask.empty(p)
        optimum = exact_optimum(cov, data.n_rows, mask)
        models = evolve(cov, data.n_rows, p, mask, SearchParams(seed=seed), None)
        gaps.append(front_gap(models, optimum, data.n_rows))
        tops.append(max(m.fit.complexity for m in models))
    print(f"search at p={p}: front gaps {np.round(gaps, 3).tolist()}, "
          f"top complexity reached {tops}")
    assert float(np.median(gaps)) <= FRONT_GAP_CEILING[p]
    assert float(np.median(tops)) >= TOP_COMPLEXITY_FLOOR[p]
