"""End-to-end stability selection on one search problem.

Composition of the pieces: subsample the data, run one evolutionary search
per subset, aggregate Pareto models into stability curves, pick the BIC
complexity, collect the relevant structures, assemble the summary graph and
annotate it with median causal effects.  This is the only module that
chains the stages; the longitudinal models and the recovery evaluation call
``run_pipeline`` or its searched half, ``search_stability``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .effects import EffectEstimate, aggregate_effects
from .errors import DegenerateData
from .graphs import ConstraintMask
from .scoring import Dataset, sample_covariance
from .search import SearchParams
from .seeding import SUBSAMPLE_LANE, derived_rng
from .stability import (
    CAUSAL_PATH,
    EDGE,
    AnnotatedCausalGraph,
    RelevantStructure,
    StabilityGraph,
    SubsetResult,
    Thresholds,
    annotate_effects,
    assemble_graph,
    collect_models,
    compute_pi_bic,
    relevant_structures,
    run_searches,
    stability_graphs,
    subsample,
)


@dataclass
class PipelineResult:
    """Everything one stability-selection run produces."""

    labels: tuple[str, ...]
    edge_sg: StabilityGraph
    path_sg: StabilityGraph
    pi_bic: int
    thresholds: Thresholds
    relevant: list[RelevantStructure]
    graph: AnnotatedCausalGraph
    estimates: list[EffectEstimate]
    subset_results: list[SubsetResult]


def search_stability(
    data: Dataset,
    mask: ConstraintMask,
    params: SearchParams,
    n_subsets: int = 50,
    parallelism: int = 1,
    subsets: list[Dataset] | None = None,
) -> tuple[list[SubsetResult], StabilityGraph, StabilityGraph, int]:
    """Subsample, search every subset, pool the Pareto models, pick pi_bic.

    Returns (subset results, edge curves, causal-path curves, pi_bic); the
    curves are labelled with ``data.names``.  ``subsets`` overrides the
    default row subsampling of ``data`` (the transition model draws whole
    subjects' row blocks); each subset is searched on its sample covariance.
    Raises DegenerateData for fewer than two variables or a degenerate covariance.
    """
    if data.n_cols < 2:
        raise DegenerateData("need at least two variables")
    sample_covariance(data)
    if subsets is None:
        rng = derived_rng(params.seed, SUBSAMPLE_LANE, 0)
        subsets = subsample(data, n_subsets, rng)
    results = run_searches(subsets, mask, params, parallelism)
    models = collect_models(results)
    edge_sg, path_sg = stability_graphs(models, mask, data.names)
    return results, edge_sg, path_sg, compute_pi_bic(models)


def run_pipeline(
    data: Dataset,
    mask: ConstraintMask,
    params: SearchParams,
    n_subsets: int = 50,
    pi_sel: float = 0.6,
    parallelism: int = 1,
    subsets: list[Dataset] | None = None,
) -> PipelineResult:
    """Subsample, search, aggregate, threshold, assemble, estimate.

    The first four stages are ``search_stability``, with the same
    arguments.  ``data`` names the nodes and is the data the effects are
    estimated on.
    """
    results, edge_sg, path_sg, pi_bic = search_stability(
        data, mask, params, n_subsets, parallelism, subsets
    )
    thresholds = Thresholds(pi_sel, pi_bic)
    relevant = relevant_structures(edge_sg, path_sg, thresholds)
    edges = [st for st in relevant if st.kind == EDGE]
    paths = [st for st in relevant if st.kind == CAUSAL_PATH]
    graph = assemble_graph(edges, paths, mask, data.names)

    estimates: list[EffectEstimate] = []
    if paths:
        covariances = [r.cov for r in results]
        estimates = aggregate_effects(
            results, covariances, pi_bic, paths, data, mask
        )
        graph = annotate_effects(graph, estimates)
    return PipelineResult(
        data.names, edge_sg, path_sg, pi_bic, thresholds, relevant, graph,
        estimates, results,
    )
