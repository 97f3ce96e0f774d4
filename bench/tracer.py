"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the module attributes that the package's own callers look
up at call time, e.g. ``stablesearch.stability.evolve`` (called by
``_search_one``) or ``stablesearch.effects.causal_effect`` (called by
``ida_multiset``).  Each call records a span (name, start, end, enclosing
span) and, for a few calls, counts taken from its arguments and result.
Nothing under ``src/`` changes.  Spans recorded in pool workers would not
reach this process, so traced runs use parallelism 1.
"""

from __future__ import annotations

import functools
import importlib
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The span name is the layer metric prefix;
# several call sites may share one name.
CALL_SITES = (
    ("stablesearch.pipeline", "subsample", "stability.subsample"),
    ("stablesearch.longitudinal", "subsample_subjects", "stability.subsample"),
    ("stablesearch.pipeline", "run_searches", "stability.run_searches"),
    ("stablesearch.pipeline", "stability_graphs", "stability.stability_graphs"),
    ("stablesearch.pipeline", "compute_pi_bic", "stability.select"),
    ("stablesearch.pipeline", "relevant_structures", "stability.select"),
    ("stablesearch.pipeline", "assemble_graph", "stability.select"),
    ("stablesearch.stability", "evolve", "search.evolve"),
    ("stablesearch.search", "repair_arcs", "search.repair"),
    ("stablesearch.search", "fit_dag_ml", "search.postfilter_fit"),
    ("stablesearch.search", "dag_to_cpdag", "search.postfilter_cpdag"),
    ("stablesearch.stability", "sample_covariance", "scoring.sample_covariance"),
    ("stablesearch.longitudinal", "sample_covariance", "scoring.sample_covariance"),
    ("stablesearch.longitudinal", "reshape", "longitudinal.reshape"),
    ("stablesearch.pipeline", "aggregate_effects", "effects.aggregate_effects"),
    ("stablesearch.effects", "enumerate_extensions", "effects.enumerate_extensions"),
    ("stablesearch.effects", "causal_effect", "effects.causal_effect"),
    ("stablesearch.cli", "write_pipeline_artifacts", "export.write_artifacts"),
)

# Per-layer metrics of one traced run, with their units.  Times are seconds
# of wall time inside the spans; self time excludes the child spans.
LAYER_METRICS = {
    "stability.subsample.calls": "count",
    "stability.subsample.s": "s",
    "stability.run_searches.s": "s",
    "stability.run_searches.self_s": "s",
    "stability.stability_graphs.s": "s",
    "stability.select.s": "s",
    "stability.pi_bic": "count",
    "stability.imputed_share": "ratio",
    "search.evolve.calls": "count",
    "search.evolve.s": "s",
    "search.evolve.self_s": "s",
    "search.individuals": "count",
    "search.repair.calls": "count",
    "search.repair.s": "s",
    "search.repair_share": "ratio",
    "search.front_models": "count",
    "search.top_complexity": "count",
    "search.postfilter_fit.calls": "count",
    "search.postfilter_fit.s": "s",
    "search.postfilter_cpdag.calls": "count",
    "search.postfilter_cpdag.s": "s",
    "scoring.sample_covariance.calls": "count",
    "scoring.sample_covariance.s": "s",
    "longitudinal.reshape.calls": "count",
    "longitudinal.reshape.s": "s",
    "effects.aggregate_effects.s": "s",
    "effects.enumerate_extensions.calls": "count",
    "effects.enumerate_extensions.s": "s",
    "effects.extensions": "count",
    "effects.causal_effect.calls": "count",
    "effects.causal_effect.s": "s",
    "effects.distinct_parent_share": "ratio",
    "export.write_artifacts.s": "s",
    "export.bytes": "count",
}


class Tracer:
    """Spans and counters of one traced run; install with ``with tracer:``."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.individuals = 0
        self.front_models = 0
        self.top_complexity = 0
        self.extensions = 0
        self.parent_keys: set = set()
        self.export_bytes = 0
        self.pi_bic = 0
        self.imputed_share = 0.0
        self._edge_sg = None

    def __enter__(self):
        for module_name, attr, span in CALL_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, getattr(self, f"_on_{attr}", None)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(np.nan)
            self._stack.append(i)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(*args, result=result, **kwargs)
            return result

        return traced

    # counters, taken from the arguments and results of the wrapped calls

    def _on_evolve(self, cov, n, p, mask, params, labels=None, *, result):
        self.individuals += params.population_size * (params.generations + 1)
        self.front_models += len(result)
        top = max((m.fit.complexity for m in result), default=0)
        self.top_complexity = max(self.top_complexity, top)

    def _on_stability_graphs(self, *args, result, **kwargs):
        self._edge_sg = result[0]

    def _on_compute_pi_bic(self, models, *, result):
        # the last pipeline of a run wins: the transition model on panel
        self.pi_bic = result
        self.imputed_share = float(self._edge_sg.imputed[: result + 1].sum()) / (result + 1)

    def _on_enumerate_extensions(self, *args, result, **kwargs):
        self.extensions += len(result)

    def _on_causal_effect(self, dag, cov, x, y, *, result):
        # the enclosing aggregate_effects span keeps the covariance ids apart
        scope = self._stack[-1] if self._stack else -1
        self.parent_keys.add((scope, id(cov), x, y, tuple(dag.parents(x))))

    def _on_write_pipeline_artifacts(self, out, pipeline_result, *, result):
        self.export_bytes += sum(f.stat().st_size for f in Path(out).iterdir() if f.is_file())

    def layer_metrics(self) -> dict[str, float]:
        """The LAYER_METRICS of this run, from its spans and counters."""
        starts, ends = np.array(self.starts), np.array(self.ends)
        dur = ends - starts
        child = np.zeros(len(dur))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + float(dur[i])
            own[name] = own.get(name, 0.0) + float(dur[i] - child[i])
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(span, 0)
            elif field == "s":
                out[metric] = total.get(span, 0.0)
            elif field == "self_s":
                out[metric] = own.get(span, 0.0)
        repairs = calls.get("search.repair", 0)
        effects = calls.get("effects.causal_effect", 0)
        out.update({
            "stability.pi_bic": self.pi_bic,
            "stability.imputed_share": self.imputed_share,
            "search.individuals": self.individuals,
            "search.repair_share": repairs / self.individuals if self.individuals else 0.0,
            "search.front_models": self.front_models,
            "search.top_complexity": self.top_complexity,
            "effects.extensions": self.extensions,
            "effects.distinct_parent_share": len(self.parent_keys) / effects if effects else 0.0,
            "export.bytes": self.export_bytes,
        })
        return out
