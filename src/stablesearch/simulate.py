"""Ground-truth SEM data generation and ROC/AUC recovery evaluation.

A ground-truth longitudinal model has a baseline part over the first slice
and a stationary transition part over consecutive slice pairs.  Data is
sampled slice-recursively with Gaussian noise.  Recovery quality is measured
by sweeping the selection threshold over stability curves and comparing the
selected structures against the true pattern, yielding ROC curves and AUCs
for both edges and causal paths.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch, require
from .graphs import (
    ConstraintMask, Cpdag, Dag, arc_matrix, dag_to_cpdag, is_acyclic, reachability,
    topological_order,
)
from .longitudinal import Layout, LongitudinalDataset, transition_mask, transition_problem
from .pipeline import search_stability
from .scoring import Dataset
from .search import SearchParams
from .seeding import DATAGEN_LANE, PIPELINE_LANE, derived_rng, derived_seed
from .stability import EDGE, StabilityGraph

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroundTruthModel:
    """Generating SEM: baseline arcs over p nodes, transition arcs over 2p.

    Transition nodes follow the reshaped convention, prev block first; the
    structural rules (nothing prev-internal, nothing backward) must hold.
    """

    p: int
    n_slices: int
    baseline_arcs: frozenset
    transition_arcs: frozenset
    baseline_weights: dict
    transition_weights: dict
    baseline_noise: tuple
    transition_noise: tuple

    def __post_init__(self):
        p = self.p
        if self.n_slices < 2:
            raise ShapeMismatch("a longitudinal model needs at least two slices")
        for part, n, arcs, weights, noise in self.parts():
            if any(not (0 <= a < n and 0 <= b < n) for a, b in arcs):
                raise ShapeMismatch(f"{part} arcs out of range")
            if n > p and any(b < p for _, b in arcs):
                raise ShapeMismatch("transition arcs may not point into the previous slice")
            if not is_acyclic(n, arcs):
                raise ShapeMismatch(f"{part} arcs contain a cycle")
            keys = set(weights)
            if keys - arcs:
                key = min(map(repr, keys - arcs))
                raise ShapeMismatch(f"{part}_weights has key {key} that names no arc")
            if arcs - keys:
                raise ShapeMismatch(f"{part}_weights has no weight for arc {min(arcs - keys)}")
            if len(noise) != p:
                raise ShapeMismatch("need one noise scale per variable and part")
            if min(noise, default=1.0) <= 0:
                raise ShapeMismatch("noise scales must be positive")

    def parts(self):
        """(name, node count, arcs, weights, noise) of the baseline, over p
        nodes, and of the transition, over 2p nodes with the previous slice
        first; the noise scales are those of the part's last p nodes."""
        return (
            ("baseline", self.p, self.baseline_arcs, self.baseline_weights, self.baseline_noise),
            ("transition", 2 * self.p, self.transition_arcs, self.transition_weights,
             self.transition_noise),
        )

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"X{i + 1}" for i in range(self.p))

    def layout(self) -> Layout:
        return Layout(self.variables, self.n_slices)

    def check_layout(self, layout: Layout) -> None:
        """Raise ShapeMismatch unless layout lists the model's variables, in
        order, over its number of slices: the truth's node ids index them."""
        if (layout.variables, layout.slices) != (self.variables, self.n_slices):
            raise ShapeMismatch(
                f"layout ({len(layout.variables)} variables, {layout.slices} "
                f"slices) does not match the ground truth ({self.p} variables, "
                f"{self.n_slices} slices)"
            )


def default_structure(n_slices: int = 3) -> GroundTruthModel:
    """The four-variable demo structure used by the simulation commands.

    Baseline: X2 -> X1 and X4 -> X3.  Transition: every variable drives its
    own next-slice value, X1 drives next-slice X2, X3 drives next-slice X4,
    and the current slice repeats the baseline's two intra-slice arcs.
    Weights default to 1 and are meant to be replaced by
    random_parameterization.
    """
    p = 4
    baseline = frozenset({(1, 0), (3, 2)})
    transition = frozenset(
        {(v, p + v) for v in range(p)}
        | {(0, p + 1), (2, p + 3)}
        | {(p + 1, p + 0), (p + 3, p + 2)}
    )
    return GroundTruthModel(
        p,
        n_slices,
        baseline,
        transition,
        {a: 1.0 for a in baseline},
        {a: 1.0 for a in transition},
        (1.0,) * p,
        (1.0,) * p,
    )


def random_parameterization(
    structure: GroundTruthModel, rng: np.random.Generator
) -> GroundTruthModel:
    """Same arcs, fresh weights: magnitude Uniform[0.3, 1.0], random sign."""

    def draw(arcs):
        arcs = sorted(arcs)
        mags = rng.uniform(0.3, 1.0, size=len(arcs))
        signs = rng.choice([-1.0, 1.0], size=len(arcs))
        return {a: float(m * s) for a, m, s in zip(arcs, mags, signs)}

    return replace(
        structure,
        baseline_weights=draw(structure.baseline_arcs),
        transition_weights=draw(structure.transition_arcs),
        baseline_noise=(1.0,) * structure.p,
        transition_noise=(1.0,) * structure.p,
    )


def sample_sem(values: np.ndarray, first: int, weights: dict, noise, rng) -> None:
    """Fill columns first.. of ``values`` in place from a linear-Gaussian SEM.

    ``weights`` maps each arc (u, v) to its weight; no arc points below
    ``first``.  Nodes are drawn in topological order, each as its noise scale
    (``noise[v - first]``) times one standard normal draw plus its parents'
    terms in sorted-arc order.
    """
    n_rows, n_nodes = values.shape
    parents = {v: [] for v in range(n_nodes)}
    for (u, v), w in sorted(weights.items()):
        parents[v].append((u, w))
    for v in topological_order(n_nodes, weights):
        if v < first:
            continue
        total = noise[v - first] * rng.standard_normal(n_rows)
        for u, w in parents[v]:
            total = total + w * values[:, u]
        values[:, v] = total


def generate_data(
    model: GroundTruthModel, s: int, rng: np.random.Generator
) -> LongitudinalDataset:
    """Sample s subjects slice-recursively from the generating SEM."""
    p, T = model.p, model.n_slices
    slices = np.empty((T, s, p))
    sample_sem(slices[0], 0, model.baseline_weights, model.baseline_noise, rng)
    for t in range(1, T):
        pair = np.hstack([slices[t - 1], np.zeros((s, p))])
        sample_sem(pair, p, model.transition_weights, model.transition_noise, rng)
        slices[t] = pair[:, p:]

    layout = model.layout()
    # column_names() lists every slice of one variable before the next variable
    wide = slices.transpose(1, 2, 0).reshape(s, p * T)
    return LongitudinalDataset(Dataset(layout.column_names(), wide), layout)


def simulate_datasets(
    model: GroundTruthModel, n_datasets: int, s: int, seed: int
) -> list[LongitudinalDataset]:
    """Replicate datasets with per-index derived generator streams."""
    return [
        generate_data(model, s, derived_rng(seed, DATAGEN_LANE, d))
        for d in range(n_datasets)
    ]


def true_cpdag(
    model: GroundTruthModel, trans_mask: ConstraintMask | None = None
) -> tuple[Cpdag, Cpdag]:
    """Patterns of the two ground-truth parts; the transition one under its mask."""
    if trans_mask is None:
        trans_mask = transition_mask(model.variables)
    baseline = dag_to_cpdag(Dag(model.p, model.baseline_arcs))
    transition = dag_to_cpdag(
        Dag(2 * model.p, model.transition_arcs), trans_mask
    )
    return baseline, transition


@dataclass(frozen=True)
class RocCurve:
    """Threshold-swept operating points, sorted by FPR, with the AUC."""

    points: tuple
    auc: float


def _allowed_structures(sg: StabilityGraph, mask: ConstraintMask | None):
    """The evaluation universe: structures the constrained search can emit."""
    keys = sg.probabilities.keys()
    if mask is None:
        return set(keys)
    if sg.kind == EDGE:
        return {
            (a, b) for a, b in keys if mask.allows(a, b) or mask.allows(b, a)
        }
    possible = reachability(~mask.forbidden)
    return {(a, b) for a, b in keys if possible[a, b]}


def roc_and_auc(
    sg: StabilityGraph,
    truth: Cpdag,
    pi_bic: int,
    mask: ConstraintMask | None = None,
) -> RocCurve:
    """Sweep the selection threshold over a 101-point grid.

    A structure counts as selected when its best probability within the
    complexity window [0, pi_bic] reaches the threshold; it counts as true
    when the ground-truth pattern contains it (skeleton membership for
    edges, a directed path for causal paths).  ``mask`` restricts the
    universe to structures the constrained search could ever return.
    """
    universe = _allowed_structures(sg, mask)
    peak = sg.reliability(pi_bic)
    reliability = {k: peak[k] for k in universe}
    if sg.kind == EDGE:
        skel = truth.skeleton()
        positives = {k for k in universe if k in skel}
    else:
        closure = reachability(arc_matrix(truth.n_nodes, truth.directed))
        positives = {k for k in universe if closure[k[0], k[1]]}
    n_pos = len(positives)
    n_neg = len(universe) - n_pos

    points = {(0.0, 0.0), (1.0, 1.0)}
    for thr in np.linspace(0.0, 1.0, 101):
        selected = {k for k, r in reliability.items() if r >= thr}
        tp = len(selected & positives)
        fp = len(selected) - tp
        tpr = tp / n_pos if n_pos else 1.0
        fpr = fp / n_neg if n_neg else 0.0
        points.add((float(fpr), float(tpr)))
    ordered = sorted(points)
    auc = float(
        np.trapezoid([t for _, t in ordered], [f for f, _ in ordered])
    )
    return RocCurve(tuple(ordered), auc)


def averaging_scheme(sgs: list[StabilityGraph]) -> StabilityGraph:
    """Pointwise mean of probability curves across datasets."""
    if not sgs:
        raise ShapeMismatch("nothing to average")
    first = sgs[0]
    for sg in sgs[1:]:
        if (
            sg.kind != first.kind
            or sg.labels != first.labels
            or sg.probabilities.keys() != first.probabilities.keys()
            or len(sg.imputed) != len(first.imputed)
        ):
            raise ShapeMismatch("stability graphs do not line up")
    probabilities = {
        k: np.mean([sg.probabilities[k] for sg in sgs], axis=0)
        for k in first.probabilities
    }
    imputed = np.logical_or.reduce([sg.imputed for sg in sgs])
    return StabilityGraph(first.kind, first.labels, probabilities, imputed)


@dataclass
class EvaluationReport:
    """Averaged ROC curves plus the per-dataset (individual-scheme) AUCs."""

    edge_roc: RocCurve
    causal_roc: RocCurve
    edge_aucs: list[float]
    causal_aucs: list[float]
    pi_bics: list[int]


def evaluate_recovery(
    datasets: list[LongitudinalDataset],
    model: GroundTruthModel,
    params: SearchParams,
    prior=(),
    n_subsets: int = 50,
    parallelism: int = 1,
) -> EvaluationReport:
    """Transition-model recovery across replicate datasets.

    Each dataset runs the transition model's subject-level subsampling and
    searches (``transition_problem`` and ``search_stability``, as in
    ``run_longitudinal``), seeded from the dataset index; one map searches
    every dataset's subsets.  No summary graph or effects are computed.
    The averaging scheme pools the stability curves before the ROC sweep,
    with the BIC complexity fixed at the median of the per-dataset values;
    the individual scheme keeps one ROC per dataset.  A dataset whose layout
    is not the model's (``GroundTruthModel.check_layout``) raises
    ShapeMismatch before any search.
    """
    if not datasets:
        raise ShapeMismatch("no datasets to evaluate")
    models = []
    for d, ld in enumerate(datasets):
        model.check_layout(ld.layout)
        t_params = replace(
            params, seed=derived_seed(params.seed, PIPELINE_LANE, d)
        )
        frame, tmask, subsets = transition_problem(
            ld, t_params, n_subsets, prior
        )
        if frame.n_cols < 2 * model.p:
            raise ShapeMismatch("presence leaves ground-truth nodes out of the transition model")
        models.append((frame, tmask, t_params, subsets))
    searched = search_stability(models, n_subsets, parallelism)
    _, edge_sgs, path_sgs, pi_bics = map(list, zip(*searched))
    for d, pi_bic in enumerate(pi_bics):
        log.info("dataset %d searched, pi_bic=%d", d, pi_bic)

    # the datasets share the model's layout, so their masks agree
    _, truth = true_cpdag(model, trans_mask=tmask)
    pi_med = int(np.median(pi_bics))
    edge_roc = roc_and_auc(averaging_scheme(edge_sgs), truth, pi_med, tmask)
    causal_roc = roc_and_auc(averaging_scheme(path_sgs), truth, pi_med, tmask)
    edge_aucs = [
        roc_and_auc(sg, truth, j, tmask).auc for sg, j in zip(edge_sgs, pi_bics)
    ]
    causal_aucs = [
        roc_and_auc(sg, truth, j, tmask).auc for sg, j in zip(path_sgs, pi_bics)
    ]
    return EvaluationReport(edge_roc, causal_roc, edge_aucs, causal_aucs, pi_bics)


def truth_to_dict(model: GroundTruthModel) -> dict:
    out = {"p": model.p, "slices": model.n_slices}
    for part, _, arcs, weights, noise in model.parts():
        out[f"{part}_arcs"] = sorted(map(list, arcs))
        out[f"{part}_weights"] = {f"{a},{b}": w for (a, b), w in sorted(weights.items())}
        out[f"{part}_noise"] = list(noise)
    return out


# the ground-truth file that truth_to_dict writes; weights are keyed "a,b"
TRUTH_FILE = {
    "p": int, "slices": int,
    "baseline_arcs": [(int, int)], "transition_arcs": [(int, int)],
    "baseline_weights": {str: float}, "transition_weights": {str: float},
    "baseline_noise": [float], "transition_noise": [float],
}


def truth_from_dict(obj) -> GroundTruthModel:
    try:
        require("ground truth", obj, TRUTH_FILE)
    except ValueError as exc:
        raise ShapeMismatch(f"bad ground-truth file: {exc}") from exc
    arcs, weights, noise = [], [], []
    for part in ("baseline", "transition"):
        arcs.append(frozenset(map(tuple, obj[f"{part}_arcs"])))
        # a weight key that names no arc stays a string, and the model rejects it
        named = {f"{a},{b}": (a, b) for a, b in arcs[-1]}
        weights.append({named.get(k, k): float(w) for k, w in obj[f"{part}_weights"].items()})
        noise.append(tuple(obj[f"{part}_noise"]))
    return GroundTruthModel(obj["p"], obj["slices"], *arcs, *weights, *noise)
