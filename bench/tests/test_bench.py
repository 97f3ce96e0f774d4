"""Self-tests of the benchmark: its replay and its tracing must not drift.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from stablesearch import cli  # noqa: E402
from stablesearch.graphs import ConstraintMask  # noqa: E402
from stablesearch.pipeline import run_pipeline  # noqa: E402
from stablesearch.scoring import Dataset  # noqa: E402
from stablesearch.search import SearchParams  # noqa: E402
from stablesearch.seeding import SUBSAMPLE_LANE, derived_rng  # noqa: E402
from stablesearch.stability import cross_sectional_cov, subsample  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EffectsDense,
    Panel,
    artifact_digests,
    combined_digest,
    post_search,
)


def test_post_search_replay_writes_the_pipeline_artifacts(tmp_path):
    # A -> C <- B is a v-structure, so the patterns carry directed paths
    rng = np.random.default_rng(3)
    a = rng.normal(size=500)
    b = rng.normal(size=500)
    c = 0.9 * a + 0.8 * b + rng.normal(size=500)
    d = 0.7 * c + rng.normal(size=500)
    data = Dataset(("A", "B", "C", "D"), np.column_stack([a, b, c, d]))
    mask = ConstraintMask.empty(4)
    params = SearchParams(seed=11)
    result = run_pipeline(data, mask, params, n_subsets=6)
    assert result.estimates, "the search should leave causal paths to estimate"
    cli.write_pipeline_artifacts(tmp_path / "pipeline", result)

    subsets = subsample(data, 6, derived_rng(params.seed, SUBSAMPLE_LANE, 0))
    covariances = [cross_sectional_cov(s)[0] for s in subsets]
    replay = post_search(result.subset_results, covariances, data, mask, data.names)
    cli.write_pipeline_artifacts(tmp_path / "replay", replay)

    expected = artifact_digests(tmp_path / "pipeline")
    assert len(expected) == 7
    assert artifact_digests(tmp_path / "replay") == expected


def _three_runs(wl, out):
    """Untraced at the workload's parallelism, untraced and traced at 1.

    All three write to ``out``, as the benchmark does, because the manifest
    records the output path.
    """
    tracer = Tracer()
    digests = []
    for parallelism, tr in ((wl.parallelism, None), (1, None), (1, tracer)):
        shutil.rmtree(out, ignore_errors=True)
        if tr is None:
            wl.run(out, parallelism, 0)
        else:
            with tr:
                wl.run(out, parallelism, 0)
        digests.append(artifact_digests(out))
    return digests, tracer.layer_metrics()


def test_traced_and_untraced_panel_runs_agree(tmp_path):
    wl = Panel(seed=4, workdir=tmp_path / "in")
    wl.subsets = 2
    wl.cases = 1
    wl.setup()
    (default, plain, traced), layers = _three_runs(wl, tmp_path / "out")
    assert traced == plain
    assert combined_digest(default) == combined_digest(plain)
    assert layers["search.evolve.calls"] == 4  # baseline and transition, 2 subsets each
    assert layers["search.individuals"] == 4 * 150 * 36
    assert layers["longitudinal.reshape.calls"] == 1 + 2 * 2
    assert layers["search.evolve.s"] > layers["search.evolve.self_s"] > 0


def test_traced_and_untraced_effects_runs_agree(tmp_path):
    wl = EffectsDense(seed=4, workdir=tmp_path / "in")
    wl.subsets = 1
    wl.setup()
    (default, plain, traced), layers = _three_runs(wl, tmp_path / "out")
    assert default == plain == traced
    assert wl.check(tmp_path / "out", 0) == (1.0, 1.0)
    assert layers["search.evolve.calls"] == 0
    assert layers["effects.extensions"] == 20 * 720
    assert layers["effects.distinct_parent_share"] == 1 / 720


def test_exits_without_a_result_when_the_package_is_missing(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "panel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
