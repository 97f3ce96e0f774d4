"""The benchmark's three workloads: inputs from a seed, one run, checks.

A workload is built from a seed and a work directory.  ``setup()`` makes
the inputs of each of its ``cases`` (datasets drawn from the seed),
``run(out, parallelism, case)`` is one timed run on one case that writes the
run's artifacts under ``out``, and ``check(out, case)`` reads those artifacts
back, verifies them and returns the recovery AUCs (edge, causal path).  Runs
of one case repeat the same inputs, so their artifacts must be
byte-identical run after run.  Recovery differs a lot from one dataset to
the next, so the search workloads cycle through several cases and report the
mean AUC; that keeps the figures of different seeds comparable.

Module-level functions are looked up at call time (``pipeline.X``,
``cli.X``), so the wrappers the traced run installs see every call.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from stablesearch import cli, pipeline
from stablesearch.export import dataset_csv, read_json, write_json
from stablesearch.graphs import ConstraintMask, Dag, dag_to_cpdag
from stablesearch.longitudinal import layout_to_dict, transition_labels, transition_mask
from stablesearch.scoring import Dataset, fit_dag_ml, sample_covariance
from stablesearch.search import ParetoModel
from stablesearch.seeding import (
    DATAGEN_LANE,
    PARAMETERIZE_LANE,
    SUBSAMPLE_LANE,
    derived_rng,
)
from stablesearch.simulate import (
    default_structure,
    generate_data,
    random_parameterization,
    roc_and_auc,
    true_cpdag,
)
from stablesearch.stability import StabilityGraph, SubsetResult, subsample

PIPELINE_FILES = (
    "edge_stability.csv",
    "causal_stability.csv",
    "edge_stability.svg",
    "causal_stability.svg",
    "effects.csv",
    "graph.json",
    "graph.dot",
)


class RunAborted(Exception):
    """A CLI run ended with a nonzero exit code."""


class CheckFailed(Exception):
    """A run's artifacts are missing or wrong."""


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by relative path."""
    return {
        str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.rglob("*"))
        if f.is_file()
    }


def combined_digest(digests: dict[str, str]) -> str:
    """One sha256 over a digest map, leaving out the manifests.

    A manifest records the parallelism and the library versions, so the
    digest is the same at any parallelism, traced or not.
    """
    h = hashlib.sha256()
    for name, digest in sorted(digests.items()):
        if Path(name).name == "manifest.json":
            continue
        h.update(f"{name}\0{digest}\n".encode())
    return h.hexdigest()


def read_stability(path: Path, labels: tuple[str, ...]) -> StabilityGraph:
    """Parse a stability CSV back into the curves it was written from."""
    index = {label: i for i, label in enumerate(labels)}
    curves: dict[tuple[int, int], list[float]] = {}
    imputed: dict[int, bool] = {}
    kind = None
    for line in path.read_text().splitlines()[1:]:
        kind, a, b, j, prob, imp = line.split(",")
        curves.setdefault((index[a], index[b]), []).append(float(prob))
        imputed[int(j)] = imp == "true"
    if kind is None:
        raise CheckFailed(f"{path} has no rows")
    flags = np.array([imputed[j] for j in range(len(imputed))])
    probs = {k: np.array(v) for k, v in curves.items()}
    if any(len(v) != len(flags) for v in probs.values()):
        raise CheckFailed(f"{path}: curves of unequal length")
    if any(((v < 0) | (v > 1)).any() for v in probs.values()):
        raise CheckFailed(f"{path}: probability outside [0, 1]")
    return StabilityGraph(kind, labels, probs, flags)


def recovery_aucs(out: Path, labels, truth, pi_bic: int, mask=None):
    """Edge and causal-path AUCs of a run's stability CSVs against the truth."""
    missing = [name for name in PIPELINE_FILES if not (out / name).is_file()]
    if missing:
        raise CheckFailed(f"{out}: missing {missing}")
    edge = read_stability(out / "edge_stability.csv", labels)
    path = read_stability(out / "causal_stability.csv", labels)
    return (
        roc_and_auc(edge, truth, pi_bic, mask).auc,
        roc_and_auc(path, truth, pi_bic, mask).auc,
    )


def sample_sem(arcs, weights, p: int, n: int, rng) -> np.ndarray:
    """n rows of a linear-Gaussian SEM whose arcs all point to higher indices."""
    values = np.zeros((n, p))
    for v in range(p):
        values[:, v] = rng.standard_normal(n)
        for (a, b), w in zip(arcs, weights):
            if b == v:
                values[:, v] += w * values[:, a]
    return values


def _weights(rng, k: int, low: float, high: float) -> np.ndarray:
    return rng.uniform(low, high, size=k) * rng.choice([-1.0, 1.0], size=k)


class Workload:
    name = ""
    subsets = 0  # subsets per run; this is the run length
    parallelism = 1
    cases = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    @property
    def attempts(self) -> int:
        """Subset searches (or, without search, runs) one run attempts."""
        return self.subsets

    def _cli(self, argv: list[str]) -> None:
        rc = cli.main(["--log-level", "WARNING", *argv])
        if rc != 0:
            raise RunAborted(f"stablesearch exited with code {rc}")


class CrossP16(Workload):
    """Cross-sectional search, p=16, n=800, through the CLI in-process."""

    name = "cross-p16"
    subsets = 12  # with fewer, writing the artifacts nears a tenth of a run
    cases = 3  # the mean AUC over cases evens out datasets that search well or badly
    p, n = 16, 800
    arcs = 20  # 1.25 per node; a fixed count keeps runs of different seeds alike

    def setup(self) -> None:
        self.labels = tuple(f"X{i + 1}" for i in range(self.p))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.truths, self.data_paths = [], []
        for case in range(self.cases):
            truth, data = self._sem(np.random.default_rng([self.seed, case]))
            path = self.workdir / f"data{case}.csv"
            path.write_text(dataset_csv(self.labels, data))
            self.truths.append(truth)
            self.data_paths.append(path)

    def _sem(self, rng):
        order = rng.permutation(self.p)
        pairs = [(a, b) for a in range(self.p) for b in range(a + 1, self.p)]
        chosen = sorted(pairs[i] for i in rng.choice(len(pairs), self.arcs, replace=False))
        values = sample_sem(chosen, _weights(rng, self.arcs, 0.3, 1.0), self.p, self.n, rng)
        # relabel so the column order does not reveal the causal order
        arcs = frozenset((int(order[a]), int(order[b])) for a, b in chosen)
        data = np.empty_like(values)
        data[:, order] = values
        return dag_to_cpdag(Dag(self.p, arcs, self.labels)), data

    def run(self, out: Path, parallelism: int, case: int) -> None:
        self._cli([
            "search", "--data", str(self.data_paths[case]), "--out", str(out),
            "--subsets", str(self.subsets), "--seed", str(self.seed),
            "--parallelism", str(parallelism),
        ])

    def check(self, out: Path, case: int):
        pi_bic = read_json(out / "manifest.json")["pi_bic"]
        return recovery_aucs(out, self.labels, self.truths[case], pi_bic)


class Panel(Workload):
    """Longitudinal search on the simulate ground truth, through the CLI."""

    name = "panel"
    subsets = 6
    parallelism = 2
    cases = 6  # recovery of the small transition model varies most by dataset
    subjects = 400
    prior = (("X1", "X2"),)  # the truth has X2 -> X1, so this prior is correct

    @property
    def attempts(self) -> int:
        return 2 * self.subsets  # baseline and transition pipelines

    def setup(self) -> None:
        structure = default_structure(3)
        variables = structure.variables
        self.labels = transition_labels(variables)
        self.mask = transition_mask(variables, self.prior)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.layout_path = self.workdir / "layout.json"
        self.prior_path = self.workdir / "prior.json"
        write_json(self.layout_path, layout_to_dict(structure.layout()))
        write_json(self.prior_path, {"forbidden": [list(p) for p in self.prior]})
        self.truths, self.data_paths = [], []
        for case in range(self.cases):
            model = random_parameterization(
                structure, derived_rng(self.seed, PARAMETERIZE_LANE, case)
            )
            ld = generate_data(
                model, self.subjects, derived_rng(self.seed, DATAGEN_LANE, case)
            )
            path = self.workdir / f"panel{case}.csv"
            path.write_text(dataset_csv(ld.data.names, ld.data.values))
            self.truths.append(true_cpdag(model, trans_mask=self.mask)[1])
            self.data_paths.append(path)

    def run(self, out: Path, parallelism: int, case: int) -> None:
        self._cli([
            "search-longitudinal", "--data", str(self.data_paths[case]),
            "--layout", str(self.layout_path), "--prior", str(self.prior_path),
            "--out", str(out), "--subsets", str(self.subsets),
            "--seed", str(self.seed), "--parallelism", str(parallelism),
            "--subsample-unit", "subject",
        ])

    def check(self, out: Path, case: int):
        pi_bic = read_json(out / "manifest.json")["pi_bic"]["transition"]
        return recovery_aucs(
            out / "transition", self.labels, self.truths[case], pi_bic, self.mask
        )


def post_search(results, covariances, data: Dataset, mask, labels):
    """The half of pipeline.run_pipeline that follows run_searches, step for step."""
    models = pipeline.collect_models(results)
    edge_sg, path_sg = pipeline.stability_graphs(models, mask, labels)
    pi_bic = pipeline.compute_pi_bic(models)
    thresholds = pipeline.Thresholds(0.6, pi_bic)  # run_pipeline's default pi_sel
    relevant = pipeline.relevant_structures(edge_sg, path_sg, thresholds)
    edges = [st for st in relevant if st.kind == pipeline.EDGE]
    paths = [st for st in relevant if st.kind == pipeline.CAUSAL_PATH]
    graph = pipeline.assemble_graph(edges, paths, mask, labels)
    estimates = []
    if paths:
        estimates = pipeline.aggregate_effects(
            results, covariances, pi_bic, paths, data, mask
        )
        graph = pipeline.annotate_effects(graph, estimates)
    return pipeline.PipelineResult(
        labels, edge_sg, path_sg, pi_bic, thresholds, relevant, graph,
        estimates, results,
    )


class EffectsDense(Workload):
    """Post-search stages over dense Pareto sets; no search runs.

    Nodes: u=0 and w=1 point into c=2, c points into every node of the
    6-clique 3..8, and 9..11 are isolated noise.  The pattern keeps the
    clique undirected, so its class has 6! = 720 members, and 20 causal
    paths (u, w -> c; u, w, c -> each clique node) are directed.  A
    7-clique would have 5,040 members, past enumerate_extensions' cap of
    4,096, and the run would abort.
    """

    name = "effects-dense"
    subsets = 2
    # one case: the cost does not depend on the draw, and every AUC is 1
    p, n = 12, 800
    clique = range(3, 9)
    class_size = 720
    relevant_paths = 20

    @property
    def attempts(self) -> int:
        return 1

    def true_arcs(self) -> list[tuple[int, int]]:
        arcs = [(0, 2), (1, 2)] + [(2, k) for k in self.clique]
        arcs += [(a, b) for a in self.clique for b in self.clique if a < b]
        return sorted(arcs)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        arcs = self.true_arcs()
        values = sample_sem(arcs, _weights(rng, len(arcs), 0.3, 0.8), self.p, self.n, rng)
        self.labels = tuple(f"X{i + 1}" for i in range(self.p))
        self.data = Dataset(self.labels, values)
        self.mask = ConstraintMask.empty(self.p)
        self.truth = dag_to_cpdag(Dag(self.p, frozenset(arcs), self.labels))
        subsets = subsample(
            self.data, self.subsets, derived_rng(self.seed, SUBSAMPLE_LANE, 0)
        )
        # Pareto set per subset: nested prefixes of the sorted true arcs.  In
        # this order no prefix makes a v-structure inside the clique.
        dags = [Dag(self.p, frozenset(arcs[:j]), self.labels) for j in range(len(arcs) + 1)]
        cpdags = [dag_to_cpdag(dag, self.mask) for dag in dags]
        self.results, self.covariances = [], []
        for i, s in enumerate(subsets):
            cov = sample_covariance(s)
            models = [
                ParetoModel(dag, fit_dag_ml(dag, cov, s.n_rows), cpdag)
                for dag, cpdag in zip(dags, cpdags)
            ]
            self.results.append(SubsetResult(i, models))
            self.covariances.append(cov)

    def run(self, out: Path, parallelism: int, case: int) -> None:
        result = post_search(
            self.results, self.covariances, self.data, self.mask, self.labels
        )
        cli.write_pipeline_artifacts(out, result)

    def check(self, out: Path, case: int):
        pi_bic = pipeline.compute_pi_bic(pipeline.collect_models(self.results))
        if pi_bic != len(self.true_arcs()):
            raise CheckFailed(f"BIC picked complexity {pi_bic}, not the full truth")
        rows = (out / "effects.csv").read_text().splitlines()[1:]
        expected = self.class_size * self.subsets
        n_values = [int(row.rsplit(",", 1)[1]) for row in rows]
        if len(rows) != self.relevant_paths or set(n_values) != {expected}:
            raise CheckFailed(
                f"expected {self.relevant_paths} effects of {expected} values each, got "
                f"{len(rows)} rows with n_values {sorted(set(n_values))}"
            )
        return recovery_aucs(out, self.labels, self.truth, pi_bic)


WORKLOADS = {w.name: w for w in (CrossP16, Panel, EffectsDense)}
