"""The benchmark's trace mode wraps package attributes by name.

``bench/tracer.py`` replaces module attributes that the package looks up at
call time and reads counters off the arguments of ``evolve``.  A refactor
under ``src/`` that renames or moves one of them breaks
``bench/run.py --trace 1`` without failing any package test; these tests
catch that.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # _search_one calls evolve with all six arguments positionally
    args = [object()] * 6
    evolve.bind(*args)
    hook.bind(object(), *args, result=[])
