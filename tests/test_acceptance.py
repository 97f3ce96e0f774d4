"""Acceptance suite: ten numbered end-to-end checks with pinned tolerances.

Each test covers one criterion and prints a single pass/fail line (visible
with ``pytest -s``); ``pytest -v`` additionally gives one PASSED/FAILED line
per criterion.  Run the whole file with

    python3 -m pytest tests/test_acceptance.py -v
"""

import itertools
import time
from collections import defaultdict

import numpy as np

from oracles import (
    all_dag_arcsets,
    class_key,
    oracle_front_ranks,
    oracle_pareto_front,
    sem_implied_covariance,
    stability_curve,
    stack_ids,
)
from stablesearch.cli import main as cli_main
from stablesearch.effects import aggregate_effects
from stablesearch.graphs import ConstraintMask, Dag, dag_to_cpdag
from stablesearch.longitudinal import (
    Layout,
    LongitudinalDataset,
    reshape,
    transition_mask,
)
from stablesearch.scoring import Dataset, FitResult, fit_dag_ml, sample_covariance
from stablesearch.search import ParetoModel, SearchParams, _rank_stack, evolve
from stablesearch.seeding import PARAMETERIZE_LANE, derived_rng
from stablesearch.simulate import (
    default_structure,
    evaluate_recovery,
    random_parameterization,
    simulate_datasets,
)
from stablesearch.stability import SubsetResult, stability_graphs


def report(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_sem_cov(n, rng):
    """Generic covariance from a fully parameterized recursive model."""
    weights = {}
    for a in range(n):
        for b in range(a + 1, n):
            weights[(a, b)] = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
    noise = rng.uniform(0.5, 1.5, size=n)
    return sem_implied_covariance(n, weights, noise)


def random_order_dag(n, rng, density):
    perm = [int(v) for v in rng.permutation(n)]
    arcs = {
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return perm, arcs


def cpdag_key(cp):
    return (frozenset(cp.directed), frozenset(cp.undirected))


def test_criterion_01_cpdag_partition_matches_oracle():
    start = time.perf_counter()
    forward = defaultdict(set)
    backward = defaultdict(set)
    count = 0
    for arcs in all_dag_arcsets(4):
        count += 1
        okey = class_key(arcs)
        ikey = cpdag_key(dag_to_cpdag(Dag(4, frozenset(arcs))))
        forward[okey].add(ikey)
        backward[ikey].add(okey)
    elapsed = time.perf_counter() - start
    ok = (
        count == 543
        and all(len(v) == 1 for v in forward.values())
        and all(len(v) == 1 for v in backward.values())
        and elapsed < 5.0
    )
    report(
        1,
        "cpdag partition",
        ok,
        f"{count} DAGs, {len(forward)} classes, {elapsed:.2f}s",
    )


def test_criterion_02_constrained_conversion_respects_mask():
    start = time.perf_counter()
    rng = np.random.default_rng(20260201)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        _, arcs = random_order_dag(n, rng, 0.4)
        candidates = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and (a, b) not in arcs
        ]
        forbidden = [p for p in candidates if rng.random() < 0.25]
        mask = ConstraintMask.empty(n).with_forbidden(forbidden)
        cp = dag_to_cpdag(Dag(n, frozenset(arcs)), mask)
        for a, b in cp.directed:
            if not mask.allows(a, b):
                violations += 1
        for a, b in cp.undirected:
            if not (mask.allows(a, b) and mask.allows(b, a)):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(
        2,
        "constrained conversion",
        ok,
        f"1000 DAGs, {violations} violations, {elapsed:.2f}s",
    )


def test_criterion_03_sem_scoring_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(20260301)

    worst_saturated = 0.0
    for n in (3, 4, 5):
        cov = random_sem_cov(n, rng)
        full = Dag(n, frozenset((a, b) for a in range(n) for b in range(a + 1, n)))
        worst_saturated = max(worst_saturated, abs(fit_dag_ml(full, cov, 200).chi_square))

    worst_spread = 0.0
    for n in (2, 3, 4):
        cov = random_sem_cov(n, rng)
        classes = defaultdict(list)
        for arcs in all_dag_arcsets(n):
            classes[class_key(arcs)].append(arcs)
        for members in classes.values():
            chis = [
                fit_dag_ml(Dag(n, frozenset(m)), cov, 200).chi_square
                for m in members
            ]
            worst_spread = max(worst_spread, max(chis) - min(chis))

    monotone_failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        cov = random_sem_cov(n, rng)
        perm, arcs = random_order_dag(n, rng, 0.3)
        absent = [
            (perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
            if (perm[i], perm[j]) not in arcs
        ]
        if not absent:
            continue
        extra = absent[int(rng.integers(len(absent)))]
        before = fit_dag_ml(Dag(n, frozenset(arcs)), cov, 200).chi_square
        after = fit_dag_ml(Dag(n, frozenset(arcs) | {extra}), cov, 200).chi_square
        if after > before + 1e-9:
            monotone_failures += 1

    elapsed = time.perf_counter() - start
    ok = (
        worst_saturated < 1e-8
        and worst_spread < 1e-6
        and monotone_failures == 0
        and elapsed < 30.0
    )
    report(
        3,
        "sem scoring",
        ok,
        f"saturated {worst_saturated:.1e}, class spread {worst_spread:.1e}, "
        f"{monotone_failures} monotonicity failures, {elapsed:.2f}s",
    )


def test_criterion_04_nondominated_sort_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20260401)
    mismatches = 0
    for _ in range(100):
        objs = [
            (float(rng.integers(0, 25)), int(rng.integers(0, 12)))
            for _ in range(150)
        ]
        ranks = _rank_stack(*stack_ids(np.array(objs, dtype=float)[None]))[0][0]
        expected = oracle_front_ranks(objs)
        if ranks.tolist() != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(
        4,
        "nsga-ii sorting",
        ok,
        f"100 populations of 150, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_05_small_p_exhaustive_recovery():
    start = time.perf_counter()
    wins = 0
    for trial in range(10):
        rng = np.random.default_rng(5000 + trial)
        weights = {}
        for pair in [(0, 1), (0, 2), (1, 2)]:
            if rng.random() < 0.7:
                weights[pair] = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        e = rng.standard_normal((400, 3))
        vals = np.empty((400, 3))
        vals[:, 0] = e[:, 0]
        vals[:, 1] = weights.get((0, 1), 0.0) * vals[:, 0] + e[:, 1]
        vals[:, 2] = (
            weights.get((0, 2), 0.0) * vals[:, 0]
            + weights.get((1, 2), 0.0) * vals[:, 1]
            + e[:, 2]
        )
        cov = sample_covariance(Dataset(["a", "b", "c"], vals))
        models = evolve(cov, 400, 3, ConstraintMask.empty(3), SearchParams(seed=trial), None)
        front = {m.fit.complexity: m.fit.chi_square for m in models}
        oracle = oracle_pareto_front(3, cov, 400)
        if set(front) == set(oracle) and all(
            abs(front[k] - oracle[k]) <= 1e-6 for k in oracle
        ):
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins >= 9 and elapsed < 60.0
    report(5, "exhaustive front recovery", ok, f"{wins}/10 seeds, {elapsed:.2f}s")


def _structured_longitudinal(s, p, t):
    layout = Layout(tuple(f"V{i + 1}" for i in range(p)), t)
    cols = layout.column_names()
    values = np.empty((s, len(cols)))
    for j, name in enumerate(cols):
        var, k = name.rsplit("_t", 1)
        v = int(var[1:]) - 1
        values[:, j] = np.arange(s) * 1000 + v * 10 + int(k)
    return LongitudinalDataset(Dataset(cols, values), layout)


def test_criterion_06_reshape_shapes_exact():
    checks = []
    for s, p, t, rows in ((179, 4, 6, 895), (400, 4, 3, 800)):
        frame = reshape(_structured_longitudinal(s, p, t))
        shape_ok = frame.values.shape == (rows, 2 * p)
        subj = np.arange(rows) // (t - 1)
        pair = np.arange(rows) % (t - 1)
        expected = np.empty((rows, 2 * p))
        for v in range(p):
            expected[:, v] = subj * 1000 + v * 10 + pair
            expected[:, p + v] = subj * 1000 + v * 10 + pair + 1
        content_ok = np.array_equal(frame.values, expected)
        checks.append(shape_ok and content_ok)
    ok = all(checks)
    report(6, "transition reshape", ok, "179x4x6 -> 895x8, 400x4x3 -> 800x8")


def test_criterion_07_simulation_recovery_aucs():
    start = time.perf_counter()
    structure = default_structure(3)
    model = random_parameterization(structure, derived_rng(1, PARAMETERIZE_LANE, 0))
    datasets = simulate_datasets(model, 10, 400, seed=1)
    params = SearchParams(seed=1)

    plain = evaluate_recovery(datasets, model, params, n_subsets=50)
    prior = (("X1", "X2"), ("X1", "X3"))
    with_prior = evaluate_recovery(datasets, model, params, prior=prior, n_subsets=50)

    elapsed = time.perf_counter() - start
    ok = (
        plain.edge_roc.auc >= 0.70
        and plain.causal_roc.auc >= 0.82
        and with_prior.causal_roc.auc >= 0.85
        and elapsed < 1800.0
    )
    report(
        7,
        "recovery aucs",
        ok,
        f"edge {plain.edge_roc.auc:.3f} (>=0.70), "
        f"causal {plain.causal_roc.auc:.3f} (>=0.82), "
        f"with prior {with_prior.causal_roc.auc:.3f} (>=0.85), {elapsed:.0f}s",
    )


def _pareto(n, arcs, mask):
    dag = Dag(n, frozenset(arcs))
    fit = FitResult(1.0, len(dag.arcs), 10.0)
    return ParetoModel(dag, fit, dag_to_cpdag(dag, mask))


def test_criterion_08_stability_boundary_properties():
    failures = []

    mask = ConstraintMask.empty(3)
    edge_sg, path_sg = stability_graphs([_pareto(3, {(0, 1)}, mask)], mask, ("A", "B", "C"))
    for a, b in itertools.combinations(range(3), 2):
        if stability_curve(edge_sg, a, b)[-1] != 1.0:
            failures.append(f"edge ({a},{b}) at max != 1")
    for a, b in itertools.permutations(range(3), 2):
        if stability_curve(path_sg, a, b)[0] != 0.0:
            failures.append(f"path ({a},{b}) at 0 != 0")
        if stability_curve(path_sg, a, b)[-1] != 0.0:
            failures.append(f"path ({a},{b}) at max != 0 under empty mask")

    # a pair the mask forbids both ways (A_prev, B_prev) is in no allowed DAG
    tmask = transition_mask(("A", "B"))
    edge_sg, path_sg = stability_graphs(
        [_pareto(4, {(0, 2)}, tmask)], tmask, ("A_prev", "B_prev", "A_cur", "B_cur")
    )
    for a, b in itertools.combinations(range(4), 2):
        want = float(tmask.allows(a, b) or tmask.allows(b, a))
        if stability_curve(edge_sg, a, b)[-1] != want:
            failures.append(f"masked edge ({a},{b}) at max != {want}")
    for pair in ((0, 2), (0, 3), (1, 2), (1, 3)):
        if stability_curve(path_sg, *pair)[-1] != 1.0:
            failures.append(f"compelled path {pair} at max != 1")

    report(8, "stability boundaries", not failures, "; ".join(failures) or "exact")


def test_criterion_09_ida_chain_oracle():
    rng = np.random.default_rng(20260901)
    e = rng.standard_normal((2000, 3))
    vals = np.empty((2000, 3))
    vals[:, 0] = e[:, 0]
    vals[:, 1] = vals[:, 0] + e[:, 1]
    vals[:, 2] = vals[:, 1] + e[:, 2]
    data = Dataset(["a", "b", "c"], vals)
    cov = sample_covariance(data)
    mask = ConstraintMask.empty(3)

    # one subset whose one model is the chain's (collider's) class
    chain = [SubsetResult(0, [_pareto(3, {(0, 1), (1, 2)}, mask)])]
    med = aggregate_effects(chain, [cov], 2, [(1, 2)], data, mask)[0].median

    collider = [SubsetResult(0, [_pareto(3, {(0, 2), (1, 2)}, mask)])]
    singleton = aggregate_effects(collider, [cov], 2, [(0, 2)], data, mask)[0].n_values

    chain_mask = mask.with_forbidden([(1, 0), (2, 1), (2, 0)])
    model = _pareto(3, {(0, 1), (1, 2)}, chain_mask)
    est = aggregate_effects(
        [SubsetResult(0, [model])], [cov], 2, [(0, 2)], data, chain_mask
    )[0]
    sx = float(np.std(vals[:, 0], ddof=1))
    sy = float(np.std(vals[:, 2], ddof=1))
    identity_gap = abs(est.standardized - est.median * sx / sy)

    ok = abs(med - 1.0) <= 0.1 and singleton == 1 and identity_gap <= 1e-12
    report(
        9,
        "ida oracle",
        ok,
        f"chain median {med:.3f} (within 0.1 of 1), singleton length "
        f"{singleton}, standardization gap {identity_gap:.1e}",
    )


def test_criterion_10_parallelism_byte_determinism(tmp_path):
    rng = np.random.default_rng(7)
    x1 = rng.normal(size=120)
    x2 = 0.8 * x1 + rng.normal(size=120)
    x3 = 0.7 * x2 + rng.normal(size=120)
    csv = tmp_path / "d.csv"
    with open(csv, "w") as fh:
        fh.write("A,B,C\n")
        for row in np.column_stack([x1, x2, x3]):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

    outs = []
    for degree in (1, 2, 3):
        out = tmp_path / f"run_p{degree}"
        rc = cli_main(
            ["search", "--data", str(csv), "--out", str(out),
             "--subsets", "10", "--generations", "6", "--population", "20",
             "--seed", "5", "--parallelism", str(degree)]
        )
        assert rc == 0
        outs.append(out)

    identical = all(
        (out / name).read_bytes() == (outs[0] / name).read_bytes()
        for out in outs[1:]
        for name in ("edge_stability.csv", "causal_stability.csv")
    )
    report(
        10,
        "parallel determinism",
        identical,
        "stability CSVs byte-identical at parallelism 1, 2, 3",
    )
