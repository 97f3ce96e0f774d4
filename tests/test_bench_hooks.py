"""The benchmark reaches into the package by name.

``bench/tracer.py`` replaces module attributes that the package looks up at
call time and reads counters off the arguments of ``evolve`` and of the
effects call sites.  ``bench/workloads.py`` builds its inputs from package
functions and types, called positionally.  A refactor under ``src/`` that
renames, moves or reshapes one of them breaks ``bench/run.py`` without
failing any package test; these tests catch that.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from stablesearch import effects, simulate
from stablesearch.graphs import Dag, dag_to_cpdag
from stablesearch.scoring import Dataset, FitResult
from stablesearch.search import ParetoModel
from stablesearch.stability import SubsetResult

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_bench("tracer")


def test_effects_dense_workload_runs_and_checks(tmp_path):
    # its set-up scores the Pareto sets with scoring.fit_dag_ml and builds
    # SubsetResult, aggregate_effects' inputs and PipelineResult positionally
    workload = load_bench("workloads").EffectsDense(1, tmp_path)
    workload.setup()
    workload.run(tmp_path / "out", 1, 0)
    assert workload.check(tmp_path / "out", 0) == (1.0, 1.0)


def test_simulate_sampler_matches_the_bench_sampler():
    # the bench's sample_sem draws nodes 0..p-1 in turn, each a unit-noise
    # draw plus its parents' terms over arcs sorted upward
    sample_sem = load_bench("workloads").sample_sem
    rng = np.random.default_rng(12)
    for _ in range(300):
        p, n = int(rng.integers(1, 9)), int(rng.integers(1, 20))
        arcs = sorted((a, b) for a in range(p) for b in range(a + 1, p) if rng.random() < 0.4)
        weights = rng.uniform(-1.0, 1.0, size=len(arcs))
        seed = int(rng.integers(1 << 30))
        expected = sample_sem(arcs, weights, p, n, np.random.default_rng(seed))
        values = np.zeros((n, p))
        simulate.sample_sem(values, 0, dict(zip(arcs, weights)), (1.0,) * p,
                            np.random.default_rng(seed))
        assert values.tobytes() == expected.tobytes()


def test_every_call_site_resolves(tracer):
    for module_name, attr, _ in tracer.CALL_SITES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_evolve_binds_the_tracer_hook_arguments(tracer):
    from stablesearch import stability

    evolve = inspect.signature(stability.evolve)
    hook = inspect.signature(tracer.Tracer._on_evolve)
    # the wrapper passes the hook evolve's own arguments, positional or named
    hook_names = [
        name for name, param in hook.parameters.items()
        if name != "self" and param.kind is not param.KEYWORD_ONLY
    ]
    assert list(evolve.parameters) == hook_names
    # evolve is called with all six arguments positionally
    args = [object()] * 6
    evolve.bind(*args)
    hook.bind(object(), *args, result=[])


def test_effects_hooks_bind_their_call_sites_arguments(tracer):
    causal_effect = inspect.signature(effects.causal_effect)
    hook = inspect.signature(tracer.Tracer._on_causal_effect)
    hook_names = [
        name for name, param in hook.parameters.items()
        if name != "self" and param.kind is not param.KEYWORD_ONLY
    ]
    assert list(causal_effect.parameters) == hook_names
    # effects calls causal_effect(dag, cov, x, y) and
    # enumerate_extensions(cpdag, mask), both positionally
    args = [object()] * 4
    causal_effect.bind(*args)
    hook.bind(object(), *args, result=0.0)
    args = [object()] * 2
    inspect.signature(effects.enumerate_extensions).bind(*args)
    inspect.signature(tracer.Tracer._on_enumerate_extensions).bind(
        object(), *args, result=[]
    )


def test_traced_effects_count_classes_and_regressions(tracer):
    # a 3-chain: its class has three members and pa(0) takes two values
    dag = Dag(3, frozenset({(0, 1), (1, 2)}))
    model = ParetoModel(dag, FitResult(1.0, 2, 1.0), dag_to_cpdag(dag))
    rng = np.random.default_rng(0)
    data = Dataset(["a", "b", "c"], rng.standard_normal((50, 3)))
    cov = np.cov(data.values, rowvar=False)
    with tracer.Tracer() as t:
        effects.aggregate_effects(
            [SubsetResult(0, [model])], [cov], 2, [(0, 2), (0, 1)], data
        )
    metrics = t.layer_metrics()
    assert metrics["effects.enumerate_extensions.calls"] == 1
    assert metrics["effects.extensions"] == 3
    assert metrics["effects.causal_effect.calls"] == 4
    assert metrics["effects.distinct_parent_share"] == 1.0


def test_traced_effects_count_one_class_shared_by_two_subsets(tracer):
    # two subsets chose two members of the 3-chain's class: it is enumerated
    # once, and each subset regresses each distinct pa(0) under its own cov
    chain = Dag(3, frozenset({(0, 1), (1, 2)}))
    reverse = Dag(3, frozenset({(2, 1), (1, 0)}))
    cpdag = dag_to_cpdag(chain)
    assert dag_to_cpdag(reverse) == cpdag
    models = [ParetoModel(d, FitResult(1.0, 2, 1.0), cpdag) for d in (chain, reverse)]
    rng = np.random.default_rng(0)
    data = Dataset(["a", "b", "c"], rng.standard_normal((50, 3)))
    covs = [np.cov(rng.standard_normal((50, 3)), rowvar=False) for _ in range(2)]
    results = [SubsetResult(i, [m]) for i, m in enumerate(models)]
    with tracer.Tracer() as t:
        effects.aggregate_effects(results, covs, 2, [(0, 2), (0, 1)], data)
    metrics = t.layer_metrics()
    assert metrics["effects.enumerate_extensions.calls"] == 1
    assert metrics["effects.extensions"] == 3
    assert metrics["effects.causal_effect.calls"] == 8
    assert metrics["effects.distinct_parent_share"] == 1.0
