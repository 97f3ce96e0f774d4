"""Recovery loss split in two: selection error and search error.

Both gates run on fixed random SEMs drawn as the bench's cross-p16
workload draws them (a random causal order, 1.25 arcs per node, weights of
magnitude 0.3-1.0 with random signs, unit noise, n=800), small enough for
``oracles.oracle_exact_front`` to give the search's exact optimum.

- The selection gate runs the pipeline at p=6, where every subset search
  is solved exactly (``search.exact_front``, checked against the oracle in
  tests/test_search.py), so its AUCs measure only the stability selection
  and the ROC sweep.
- The search gate runs ``evolve`` at the ``SearchParams`` defaults and
  bounds its front gap against the exact front.

A change that moves a measured value past its floor or ceiling on purpose
states the new value and the new bound.
"""

import numpy as np
import pytest

from oracles import oracle_exact_front
from stablesearch.graphs import ConstraintMask, Dag, dag_to_cpdag
from stablesearch.pipeline import search_stability
from stablesearch.scoring import Dataset, sample_covariance
from stablesearch.search import SearchParams, evolve
from stablesearch.simulate import roc_and_auc, sample_sem

N_ROWS = 800
N_ARCS = {6: 8, 8: 10}  # 1.25 arcs per node


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


SEARCH_SEEDS = tuple(range(1, 11))
# median front gap over the seeds; measured 0.472 at p=6 and 0.652 at p=8.
# Other search seeds on the same problems gave 0.438-0.528 and 0.608-0.668;
# 12 generations instead of 35 gives 0.556 and 0.739.
FRONT_GAP_CEILING = {6: 0.55, 8: 0.70}


@pytest.mark.parametrize("p", sorted(FRONT_GAP_CEILING))
def test_search_front_gap_against_the_exact_front(p):
    gaps, tops = [], []
    for seed in SEARCH_SEEDS:
        _, data = random_sem(p, seed)
        cov, mask = sample_covariance(data), ConstraintMask.empty(p)
        optimum, _ = oracle_exact_front(cov, data.n_rows, mask)
        models = evolve(cov, data.n_rows, p, mask, SearchParams(seed=seed), None)
        gaps.append(front_gap(models, optimum, data.n_rows))
        tops.append(max(m.fit.complexity for m in models))
    print(f"search at p={p}: front gaps {np.round(gaps, 3).tolist()}, "
          f"top complexity reached {tops}")
    assert float(np.median(gaps)) <= FRONT_GAP_CEILING[p]
