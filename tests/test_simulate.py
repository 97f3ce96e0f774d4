import itertools

import numpy as np
import pytest

from oracles import (
    equivalence_class,
    oracle_generate_data,
    oracle_is_acyclic,
    sem_implied_covariance,
    stability_curve,
    union_orientation,
)
from stablesearch import simulate
from stablesearch.errors import ShapeMismatch
from stablesearch.graphs import Cpdag
from stablesearch.export import read_json, write_json
from stablesearch.longitudinal import (
    LAYOUT_FILE, Layout, LongitudinalDataset, layout_from_dict, layout_to_dict, run_longitudinal,
    transition_mask,
)
from stablesearch.scoring import Dataset, sample_covariance
from stablesearch.search import SearchParams
from stablesearch.simulate import (
    EvaluationReport,
    GroundTruthModel,
    RocCurve,
    TRUTH_FILE,
    averaging_scheme,
    default_structure,
    evaluate_recovery,
    generate_data,
    random_parameterization,
    roc_and_auc,
    simulate_datasets,
    true_cpdag,
    truth_from_dict,
    truth_to_dict,
)
from stablesearch.stability import CAUSAL_PATH, EDGE, StabilityGraph


def pure_noise_model(p=4, T=3):
    return GroundTruthModel(
        p, T, frozenset(), frozenset(), {}, {}, (1.0,) * p, (1.0,) * p
    )


def test_model_validation():
    with pytest.raises(ShapeMismatch):
        GroundTruthModel(
            2, 3, frozenset({(0, 1), (1, 0)}), frozenset(),
            {(0, 1): 1.0, (1, 0): 1.0}, {}, (1.0, 1.0), (1.0, 1.0),
        )
    with pytest.raises(ShapeMismatch):  # backward arc
        GroundTruthModel(
            2, 3, frozenset(), frozenset({(2, 0)}), {}, {(2, 0): 1.0},
            (1.0, 1.0), (1.0, 1.0),
        )
    with pytest.raises(ShapeMismatch):  # weights not matching arcs
        GroundTruthModel(
            2, 3, frozenset({(0, 1)}), frozenset(), {}, {}, (1.0, 1.0), (1.0, 1.0),
        )
    with pytest.raises(ShapeMismatch):  # one slice
        GroundTruthModel(2, 1, frozenset(), frozenset(), {}, {}, (1.0, 1.0), (1.0, 1.0))


def test_random_parameterization_bounds_and_determinism():
    structure = default_structure()
    model = random_parameterization(structure, np.random.default_rng(0))
    assert set(model.baseline_weights) == set(structure.baseline_arcs)
    assert set(model.transition_weights) == set(structure.transition_arcs)

    magnitudes = []
    for i in range(500):
        m = random_parameterization(structure, np.random.default_rng(i))
        magnitudes.extend(abs(w) for w in m.baseline_weights.values())
        magnitudes.extend(abs(w) for w in m.transition_weights.values())
    assert min(magnitudes) >= 0.3 and max(magnitudes) <= 1.0
    signs = {np.sign(w) for i in range(20)
             for w in random_parameterization(structure, np.random.default_rng(i)).transition_weights.values()}
    assert signs == {-1.0, 1.0}

    again = random_parameterization(structure, np.random.default_rng(0))
    assert again == model

    empty = random_parameterization(pure_noise_model(), np.random.default_rng(1))
    assert empty.baseline_weights == {} and empty.transition_weights == {}


def test_generate_data_shape_and_determinism():
    model = random_parameterization(default_structure(), np.random.default_rng(3))
    ld = generate_data(model, 400, np.random.default_rng(5))
    assert ld.data.values.shape == (400, 12)
    assert ld.layout.variables == ("X1", "X2", "X3", "X4")

    again = generate_data(model, 400, np.random.default_rng(5))
    assert np.array_equal(ld.data.values, again.data.values)

    sets = simulate_datasets(model, 3, 50, seed=9)
    assert len(sets) == 3
    assert not np.array_equal(sets[0].data.values, sets[1].data.values)
    assert np.array_equal(
        sets[1].data.values, simulate_datasets(model, 3, 50, seed=9)[1].data.values
    )


def random_truth(rng):
    """A model over p = 2..6 variables with arcs in random causal orders,
    intra-slice transition arcs included, built from shuffled arc lists, and
    noise scales other than 1."""
    p = int(rng.integers(2, 7))

    def arcs_along(order, rate, shift=0):
        pairs = [(order[i], order[j]) for i in range(p) for j in range(i + 1, p)]
        return [(a + shift, b + shift) for a, b in pairs if rng.random() < rate]

    baseline = arcs_along(rng.permutation(p), 0.5)
    transition = [(a, p + b) for a in range(p) for b in range(p) if rng.random() < 0.4]
    transition += arcs_along(rng.permutation(p), 0.5, shift=p)
    parts = []
    for arcs in (baseline, transition):
        arcs = [arcs[i] for i in rng.permutation(len(arcs))]
        weights = {a: float(rng.uniform(-1.0, 1.0)) for a in arcs}
        parts.append((frozenset(arcs), weights, tuple(rng.uniform(0.3, 2.0, size=p))))
    (b_arcs, b_w, b_noise), (t_arcs, t_w, t_noise) = parts
    return GroundTruthModel(p, int(rng.integers(2, 5)), b_arcs, t_arcs, b_w, t_w, b_noise, t_noise)


def test_generate_data_matches_the_two_loop_sampler():
    rng = np.random.default_rng(30)
    models = [random_parameterization(default_structure(T), np.random.default_rng(T))
              for T in (2, 3, 5)]
    models += [random_truth(rng) for _ in range(200)]
    assert sum(any(a >= m.p for a, _ in m.transition_arcs) for m in models) > 150
    for i, model in enumerate(models):
        values = generate_data(model, 7, np.random.default_rng(i)).data.values
        reference = oracle_generate_data(model, 7, np.random.default_rng(i))
        assert values.tobytes() == reference.tobytes(), i


def test_pure_noise_columns_are_independent():
    ld = generate_data(pure_noise_model(), 100_000, np.random.default_rng(0))
    cov = sample_covariance(ld.data)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.05
    assert np.max(np.abs(np.diag(cov) - 1.0)) < 0.05


def unrolled_weighted_arcs(model, ld):
    """Ground-truth SEM over all p*T observed columns."""
    weighted = {}
    for (u, v), w in model.baseline_weights.items():
        weighted[(ld.column(f"X{u + 1}", 0), ld.column(f"X{v + 1}", 0))] = w
    p = model.p
    for t in range(1, model.n_slices):
        for (u, c), w in model.transition_weights.items():
            head = ld.column(f"X{c - p + 1}", t)
            tail = (
                ld.column(f"X{u + 1}", t - 1)
                if u < p
                else ld.column(f"X{u - p + 1}", t)
            )
            weighted[(tail, head)] = w
    return weighted


def test_generated_covariance_matches_unrolled_sem():
    model = random_parameterization(default_structure(), np.random.default_rng(11))
    ld = generate_data(model, 100_000, np.random.default_rng(2))
    weighted = unrolled_weighted_arcs(model, ld)
    implied = sem_implied_covariance(12, weighted, [1.0] * 12)
    sample = sample_covariance(ld.data)
    assert np.max(np.abs(sample - implied)) < 0.05


def test_true_cpdag_empty_and_compelled():
    base_c, trans_c = true_cpdag(pure_noise_model())
    assert base_c.directed == frozenset() and base_c.undirected == frozenset()
    assert trans_c.directed == frozenset() and trans_c.undirected == frozenset()

    model = default_structure()
    _, trans_c = true_cpdag(model)
    inter = {(a, b) for a, b in model.transition_arcs if a < model.p}
    # reversal of an inter-slice arc is forbidden, so each stays directed
    assert inter <= trans_c.directed


def test_true_transition_cpdag_matches_union_oracle():
    model = default_structure()
    tmask = transition_mask(model.variables)
    n = 2 * model.p
    skel = sorted({(min(a, b), max(a, b)) for a, b in model.transition_arcs})
    universe = []
    for bits in itertools.product((0, 1), repeat=len(skel)):
        cand = frozenset(
            (a, b) if bit else (b, a) for (a, b), bit in zip(skel, bits)
        )
        if oracle_is_acyclic(n, cand):
            universe.append(cand)
    forbidden = [[not tmask.allows(a, b) for b in range(n)] for a in range(n)]
    members = equivalence_class(n, model.transition_arcs, universe, forbidden)
    directed, undirected = union_orientation(members)

    _, trans_c = true_cpdag(model, trans_mask=tmask)
    assert trans_c.directed == directed
    assert trans_c.undirected == undirected


def sg(kind, curves, labels=("A", "B", "C")):
    probs = {k: np.asarray(v, dtype=float) for k, v in curves.items()}
    length = len(next(iter(probs.values())))
    return StabilityGraph(kind, labels, probs, np.zeros(length, dtype=bool))


def test_roc_perfect_separation():
    graph = sg(
        EDGE,
        {(0, 1): [0.0, 1.0, 1.0, 1.0], (0, 2): [0.0] * 4, (1, 2): [0.0] * 4},
    )
    truth = Cpdag(3, frozenset({(0, 1)}), frozenset())
    roc = roc_and_auc(graph, truth, 2)
    assert roc.auc == pytest.approx(1.0)
    assert (0.0, 0.0) in roc.points and (1.0, 1.0) in roc.points


def test_roc_uninformative_probabilities():
    graph = sg(
        EDGE,
        {(0, 1): [0.7] * 4, (0, 2): [0.7] * 4, (1, 2): [0.7] * 4},
    )
    truth = Cpdag(3, frozenset({(0, 1)}), frozenset())
    roc = roc_and_auc(graph, truth, 3)
    assert roc.auc == pytest.approx(0.5)
    fprs = [f for f, _ in roc.points]
    assert fprs == sorted(fprs)


def test_roc_causal_paths_use_truth_closure():
    # truth chain 0 -> 1 -> 2: paths (0,1), (1,2) and (0,2) are positive
    truth = Cpdag(3, frozenset({(0, 1), (1, 2)}), frozenset())
    curves = {}
    for a in range(3):
        for b in range(3):
            if a != b:
                hit = (a, b) in {(0, 1), (1, 2), (0, 2)}
                curves[(a, b)] = [0.0, 0.9, 0.9, 0.9] if hit else [0.0] * 4
    roc = roc_and_auc(sg(CAUSAL_PATH, curves), truth, 2)
    assert roc.auc == pytest.approx(1.0)


def test_roc_mask_restricts_universe():
    from stablesearch.graphs import ConstraintMask

    mask = ConstraintMask.empty(3).with_forbidden([(1, 2), (2, 1)])
    graph = sg(
        EDGE,
        {(0, 1): [0.0, 1.0, 1.0, 1.0], (0, 2): [0.0] * 4, (1, 2): [1.0] * 4},
    )
    truth = Cpdag(3, frozenset({(0, 1)}), frozenset())
    # the always-on but structurally impossible (1, 2) curve is ignored
    roc = roc_and_auc(graph, truth, 2, mask)
    assert roc.auc == pytest.approx(1.0)


def test_averaging_scheme():
    a = sg(EDGE, {(0, 1): [0.0, 1.0], (0, 2): [0.0, 0.0], (1, 2): [0.0, 0.0]})
    b = sg(EDGE, {(0, 1): [1.0, 0.0], (0, 2): [0.0, 1.0], (1, 2): [0.0, 0.0]})
    avg = averaging_scheme([a, b])
    assert list(stability_curve(avg, 0, 1)) == [0.5, 0.5]
    assert list(stability_curve(avg, 0, 2)) == [0.0, 0.5]

    assert averaging_scheme([a]).probabilities.keys() == a.probabilities.keys()
    assert np.array_equal(stability_curve(averaging_scheme([a]), 0, 1), stability_curve(a, 0, 1))

    rng = np.random.default_rng(0)
    many = [
        sg(EDGE, {k: rng.random(2) for k in [(0, 1), (0, 2), (1, 2)]})
        for _ in range(10)
    ]
    avg = averaging_scheme(many)
    manual = sum(stability_curve(m, 0, 2) for m in many) / 10
    assert np.allclose(stability_curve(avg, 0, 2), manual)

    short = sg(EDGE, {(0, 1): [0.0], (0, 2): [0.0], (1, 2): [0.0]})
    with pytest.raises(ShapeMismatch):
        averaging_scheme([a, short])
    with pytest.raises(ShapeMismatch):
        averaging_scheme([])


def test_evaluate_recovery_smoke():
    structure = default_structure()
    model = random_parameterization(structure, np.random.default_rng(1))
    datasets = simulate_datasets(model, 2, 60, seed=4)
    params = SearchParams(generations=4, population_size=12, seed=7)
    report = evaluate_recovery(datasets, model, params, n_subsets=5)
    assert isinstance(report, EvaluationReport)
    assert len(report.edge_aucs) == 2 and len(report.causal_aucs) == 2
    for roc in (report.edge_roc, report.causal_roc):
        assert isinstance(roc, RocCurve)
        assert 0.0 <= roc.auc <= 1.0
        assert roc.points[0] == (0.0, 0.0) and roc.points[-1] == (1.0, 1.0)
    assert all(j >= 0 for j in report.pi_bics)


def test_evaluate_recovery_agrees_with_run_longitudinal():
    # dataset 1 gets the transition seed of run_longitudinal, (PIPELINE_LANE, 1)
    model = random_parameterization(default_structure(), np.random.default_rng(3))
    datasets = simulate_datasets(model, 2, 60, seed=5)
    params = SearchParams(generations=4, population_size=12, seed=9)
    report = evaluate_recovery(datasets, model, params, n_subsets=4)
    _, transition = run_longitudinal(datasets[1], params, n_subsets=4)
    tmask = transition_mask(model.variables)
    _, truth = true_cpdag(model, trans_mask=tmask)
    pi_bic = transition.pi_bic
    assert report.pi_bics[1] == pi_bic
    assert report.edge_aucs[1] == roc_and_auc(transition.edge_sg, truth, pi_bic, tmask).auc
    assert report.causal_aucs[1] == roc_and_auc(transition.path_sg, truth, pi_bic, tmask).auc


def test_evaluate_recovery_starts_one_pool_for_every_dataset(in_process_pool):
    model = random_parameterization(default_structure(), np.random.default_rng(3))
    datasets = simulate_datasets(model, 2, 60, seed=5)
    params = SearchParams(generations=3, population_size=10, seed=9)
    report = evaluate_recovery(datasets, model, params, n_subsets=3, parallelism=8)
    assert in_process_pool == [6]  # min(parallelism, 2 datasets x 3 subsets)
    serial = evaluate_recovery(datasets, model, params, n_subsets=3)
    assert in_process_pool == [6]
    assert report.pi_bics == serial.pi_bics
    assert report.edge_aucs == serial.edge_aucs and report.causal_aucs == serial.causal_aucs


def test_evaluate_recovery_rejects_a_layout_that_drops_transition_nodes(monkeypatch):
    model = random_parameterization(default_structure(), np.random.default_rng(3))
    [ld] = simulate_datasets(model, 1, 40, seed=5)
    # X1 observed only at slice 0 leaves X1_cur out of the transition model
    layout = Layout(model.variables, 3, presence={"X1": [0]})
    keep = [ld.column(v, k) for v in layout.variables for k in layout.presence[v]]
    data = Dataset([ld.data.columns[j] for j in keep], ld.data.values[:, keep])
    monkeypatch.setattr(simulate, "search_stability", None)  # fails before any search
    with pytest.raises(ShapeMismatch, match="presence leaves ground-truth nodes out"):
        evaluate_recovery([LongitudinalDataset(data, layout)], model, SearchParams())


def test_evaluate_recovery_rejects_a_layout_that_is_not_the_truths(monkeypatch):
    model = random_parameterization(default_structure(), np.random.default_rng(3))
    good, ld = simulate_datasets(model, 2, 40, seed=5)
    # the same columns, with the variables listed in another order
    reordered = LongitudinalDataset(ld.data, Layout(("X2", "X1", "X4", "X3"), 3))
    monkeypatch.setattr(simulate, "search_stability", None)  # fails before any search
    message = (r"layout \(4 variables, 3 slices\) does not match the ground truth "
               r"\(4 variables, 3 slices\): the layout lists X2, X1, X4, X3, "
               r"the truth X1, X2, X3, X4$")
    with pytest.raises(ShapeMismatch, match=message):
        evaluate_recovery([good, reordered], model, SearchParams())


def test_truth_dict_roundtrip():
    model = random_parameterization(default_structure(), np.random.default_rng(2))
    again = truth_from_dict(truth_to_dict(model))
    assert again == model
    with pytest.raises(ShapeMismatch):
        truth_from_dict({"p": 2})


def test_simulate_writers_write_exactly_what_their_readers_declare(tmp_path):
    """A field that a writer adds but its reader's shape lacks fails here."""
    model = random_parameterization(default_structure(), np.random.default_rng(2))
    layout = Layout(model.variables, 3, presence={"X1": [0, 2]})
    for written, shape, reader, value in [
        (layout_to_dict(layout), LAYOUT_FILE, layout_from_dict, layout),
        (truth_to_dict(model), TRUTH_FILE, truth_from_dict, model),
    ]:
        assert set(written) == {key.rstrip("?") for key in shape}
        write_json(tmp_path / "input.json", written)
        assert reader(read_json(tmp_path / "input.json")) == value


def test_evaluate_recovery_rejects_no_datasets():
    with pytest.raises(ShapeMismatch, match="no datasets to evaluate"):
        evaluate_recovery([], default_structure(), SearchParams(seed=0))
