"""End-to-end stability selection on one or more search problems.

Composition of the pieces: subsample the data, search each subset (its
exact Pareto front when the problem is small, else NSGA-II), aggregate
Pareto models into stability curves, pick the BIC complexity, collect the
relevant structures, assemble the summary graph and annotate it with
median causal effects.  This is the only module that
chains the stages.  A run's models (the longitudinal baseline and transition
models, or every replicate dataset of the recovery evaluation) share one
``run_searches`` call, hence at most one process pool.
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


# one model to search: (data, mask, params, subsets); subsets None draws row subsets of data
Model = tuple[Dataset, ConstraintMask, SearchParams, list[Dataset] | None]


def search_stability(
    models: list[Model], n_subsets: int, parallelism: int
) -> list[tuple[list[SubsetResult], StabilityGraph, StabilityGraph, int]]:
    """Subsample, search every subset, pool the Pareto models, pick pi_bic.

    Each model's data is checked and its subsets drawn (``n_subsets`` rows
    of data, or the given subsets: the transition model's whole subjects),
    then one ``run_searches`` call searches every model's subsets.  Returns,
    per model, (subset results, edge curves, causal-path curves, pi_bic),
    the curves labelled with ``data.names``.  Raises DegenerateData for
    fewer than two variables or a degenerate covariance.
    """
    problems = []
    for data, mask, params, subsets in models:
        if data.n_cols < 2:
            raise DegenerateData("need at least two variables")
        sample_covariance(data)
        if subsets is None:
            subsets = subsample(data, n_subsets, derived_rng(params.seed, SUBSAMPLE_LANE, 0))
        problems.append((subsets, mask, params))
    results = run_searches(problems, parallelism)
    out = []
    for (data, mask, _, _), (subsets, _, _) in zip(models, problems):
        own, results = results[: len(subsets)], results[len(subsets) :]
        pooled = collect_models(own)
        edge_sg, path_sg = stability_graphs(pooled, mask, data.names)
        out.append((own, edge_sg, path_sg, compute_pi_bic(pooled)))
    return out


def run_pipelines(
    models: list[Model], n_subsets: int, pi_sel: float, parallelism: int
) -> list[PipelineResult]:
    """``search_stability``, then each model's thresholds, summary graph and
    effects; a model's data names its nodes and is what its effects are
    estimated on."""
    out = []
    searched = search_stability(models, n_subsets, parallelism)
    for (data, mask, _, _), (results, edge_sg, path_sg, pi_bic) in zip(models, searched):
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
        out.append(PipelineResult(
            data.names, edge_sg, path_sg, pi_bic, thresholds, relevant, graph,
            estimates, results,
        ))
    return out


def run_pipeline(
    data: Dataset,
    mask: ConstraintMask,
    params: SearchParams,
    n_subsets: int = 50,
    pi_sel: float = 0.6,
    parallelism: int = 1,
) -> PipelineResult:
    """``run_pipelines`` on the one model (data, mask, params, None)."""
    return run_pipelines([(data, mask, params, None)], n_subsets, pi_sel, parallelism)[0]
