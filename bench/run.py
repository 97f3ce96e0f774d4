"""Benchmark entry point for stablesearch.

    python3 bench/run.py --workload cross-p16 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  One invocation sets a workload up from the seed, makes
one untimed warm-up run, then runs the workload's cases in at least two
whole cycles, and more until ``--seconds`` have passed.  Every run's
artifacts must be byte-identical to those of the first run of its case.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced runs at parallelism 1 (one cycle suffices)
and prints the per-layer metrics.  The last line of stdout is one JSON
object.  See bench/README.md for the workloads and metrics.
"""

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads, so that panel's parent and its two
# pool workers use one thread each and stay within two cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative, so manifests match across checkouts
SETUP_PROBES = 3  # extra set-ups in fresh processes; setup_s is the median
PROBE_TIMEOUT = 60


def _import_package():
    """Import stablesearch from this checkout's src/, or exit with code 2."""
    if not (SRC / "stablesearch" / "__init__.py").is_file():
        print(f"error: no stablesearch package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import stablesearch

    if Path(stablesearch.__file__).resolve().parent != SRC / "stablesearch":
        print(f"error: imported stablesearch from {stablesearch.__file__}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_probes(args) -> list[float]:
    """Set the workload up again in fresh processes; their set-up times.

    Call this only after peak_rss_mb(): a probe is a waited-for child, and
    its peak would count as the program's.
    """
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True,
        )
        out.append(float(proc.stdout))
    return out


class Bench:
    """Timed runs of one workload; a case's first run sets its reference digests."""

    def __init__(self, workload):
        from stablesearch import pipeline

        self.wl = workload
        # failed subset searches, counted in the results run_searches returns
        self.failed_subsets = 0
        run_searches = pipeline.run_searches

        def counted(*args, **kwargs):
            results = run_searches(*args, **kwargs)
            self.failed_subsets += sum(r.failed for r in results)
            return results

        pipeline.run_searches = counted
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.reference: dict[int, dict] = {}

    def out(self, case: int) -> Path:
        return WORK / self.wl.name / f"out{case}"

    def run(self, case: int, parallelism: int, tracer=None, label: str = ""):
        """One run; returns (seconds, digests), or None when the run failed."""
        from stablesearch.errors import StableSearchError
        from workloads import RunAborted, artifact_digests

        out = self.out(case)
        shutil.rmtree(out, ignore_errors=True)
        before = self.failed_subsets
        self.attempted += self.wl.attempts
        t0 = time.perf_counter()
        try:
            if tracer is None:
                self.wl.run(out, parallelism, case)
            else:
                with tracer:
                    self.wl.run(out, parallelism, case)
        except (StableSearchError, RunAborted) as exc:
            print(f"run failed ({label}): {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += self.wl.attempts
            return None
        seconds = time.perf_counter() - t0
        self.failed += self.failed_subsets - before
        digests = artifact_digests(out)
        if case not in self.reference:
            self.reference[case] = digests
        elif digests != self.reference[case]:
            self.mismatches.append(f"case {case} {label}")
        return seconds, digests


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten values beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def cycles(wl, seconds: float, body, min_cycles: int) -> int:
    """Call body(case) for every case, cycle after cycle, and count the cycles.

    After ``min_cycles``, a new cycle starts only while it is expected to end
    within ``seconds``.  Whole cycles give every case the same weight.
    """
    t0 = time.perf_counter()
    n = 0
    while n < min_cycles or (time.perf_counter() - t0) * (n + 1) / n <= seconds:
        for case in range(wl.cases):
            body(case)
        n += 1
    return n


def measure(args, wl, bench) -> tuple[dict, dict]:
    """Untraced runs at the workload's parallelism.

    One untimed run of case 0 lets lazy set-up finish.  At least two timed
    cycles follow, so every case repeats and the determinism gate compares
    each one.  run_s is the median of all timed runs; whole cycles give every
    case the same weight.
    """
    bench.run(0, wl.parallelism, label="warm-up")
    times: dict[int, list[float]] = {case: [] for case in range(wl.cases)}

    def body(case):
        rec = bench.run(case, wl.parallelism, label="timed")
        if rec:
            times[case].append(rec[0])

    n = cycles(wl, args.seconds, body, min_cycles=2)
    if not all(times.values()):
        return {}, {}
    flat = [t for ts in times.values() for t in ts]
    run_s = statistics.median(flat)
    high = tail(flat)
    notes = {"runs": (
        f"{len(flat)} timed runs of {wl.subsets} subsets in {n} cycles over "
        f"{wl.cases} cases at parallelism {wl.parallelism}; case medians "
        f"{[round(statistics.median(t), 4) for t in times.values()]}; run_s (median) "
        f"{run_s:.4f} s"
        + (f", p{high[0]} {high[1]:.4f} s (10 runs beyond it)" if high else "")
    )}
    return {"run_s": (run_s, "s")}, notes


def measure_traced(args, wl, bench) -> tuple[dict, dict]:
    """Untraced and traced runs of every case at parallelism 1.

    Each case runs once untraced and once traced per cycle.  A layer metric,
    and the traced and untraced run times, are the median over cycles of the
    cycle's mean per run, so counts repeat exactly for a seed and shares of
    trace.run_s add up.  On a parallel workload, one untraced run of case 0
    at the workload's parallelism must match the parallelism-1 artifacts.
    """
    from tracer import LAYER_METRICS, Tracer
    from workloads import combined_digest

    notes = {}
    first = None
    if wl.parallelism > 1:
        first = bench.run(0, wl.parallelism, label=f"untraced p{wl.parallelism}")
        bench.reference.clear()  # the parallelism-1 runs set the references
    bench.run(0, 1, label="warm-up")
    names = [*LAYER_METRICS, "trace.run_s", "trace.untraced_run_s"]
    per_cycle, runs = [], []

    def body(case):
        plain = bench.run(case, 1, label="untraced p1")
        tracer = Tracer()
        traced = bench.run(case, 1, tracer, label="traced p1")
        if plain and traced:
            runs.append({
                **tracer.layer_metrics(),
                "trace.run_s": traced[0],
                "trace.untraced_run_s": plain[0],
            })
        if case == wl.cases - 1:
            complete = len(runs) == wl.cases
            per_cycle.append(
                {name: statistics.fmean(r[name] for r in runs) for name in names}
                if complete else None
            )
            runs.clear()

    n = cycles(wl, args.seconds, body, min_cycles=1)
    if first is not None and 0 in bench.reference:
        same = combined_digest(first[1]) == combined_digest(bench.reference[0])
        notes["p1_vs_p2"] = "identical" if same else "DIFFERENT"
        if not same:
            bench.mismatches.append(f"p{wl.parallelism} vs p1")
    if None in per_cycle:
        return {}, notes
    units = {**LAYER_METRICS, "trace.run_s": "s", "trace.untraced_run_s": "s"}
    metrics = {
        name: (statistics.median(c[name] for c in per_cycle), units[name]) for name in names
    }
    overhead = metrics["trace.run_s"][0] - metrics["trace.untraced_run_s"][0]
    metrics["trace.overhead_s"] = (overhead, "s")
    notes["runs"] = (
        f"{n} cycles over {wl.cases} cases, each case untraced and traced once "
        f"per cycle; {wl.subsets} subsets per run at parallelism 1"
    )
    return metrics, notes


def reference_digest(workload: str, seed: int, digest: str) -> str:
    path = BENCH / "digests.json"
    recorded = json.loads(path.read_text()).get(workload, {}) if path.is_file() else {}
    if str(seed) not in recorded:
        return "not recorded"
    return "match" if recorded[str(seed)] == digest else "differs"


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, CheckFailed, combined_digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    probe = args.setup_probe
    wl = WORKLOADS[args.workload](args.seed, WORK / args.workload / ("probe" if probe else "in"))
    wl.setup()
    setup_s = time.perf_counter() - START
    if probe:
        print(repr(setup_s))
        return 0
    setup_times = [setup_s]

    bench = Bench(wl)
    correct = True
    try:
        metrics, notes = (measure_traced if args.trace else measure)(args, wl, bench)
    except Exception:  # a bug in the program must not lose the result line
        traceback.print_exc()
        metrics, notes, correct = {}, {}, False
    aucs = []
    for case in sorted(bench.reference):
        try:
            aucs.append(wl.check(bench.out(case), case))
        except CheckFailed as exc:
            print(f"check failed on case {case}: {exc}", file=sys.stderr)
            correct = False
        except Exception:  # unreadable artifacts must not lose the result line either
            traceback.print_exc()
            correct = False
    if bench.mismatches:
        print(f"artifacts differ from the case's first run: {bench.mismatches}", file=sys.stderr)
        correct = False
    if not metrics or len(aucs) != wl.cases:
        correct = False

    if not args.trace:
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        try:
            setup_times += setup_probes(args)
        except (subprocess.SubprocessError, ValueError) as exc:
            print(f"set-up probe failed: {exc}", file=sys.stderr)
            correct = False
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["completed_share"] = (1.0 - bench.failed / bench.attempted, "ratio")
        if aucs:
            metrics["edge_auc"] = (statistics.fmean(a[0] for a in aucs), "ratio")
            metrics["causal_auc"] = (statistics.fmean(a[1] for a in aucs), "ratio")

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    for key, text in notes.items():
        print(f"{key}: {text}")
    print(f"failed_share {bench.failed / max(bench.attempted, 1):.4f} "
          f"({bench.failed} of {bench.attempted} attempted)")
    if bench.reference:
        digest = combined_digest(
            {f"{case}/{name}": d for case, ref in bench.reference.items() for name, d in ref.items()}
        )
        print(f"outputs digest {digest} (recorded reference: "
              f"{reference_digest(wl.name, args.seed, digest)})")
    if not args.trace:
        print(f"setup_s samples {[round(t, 4) for t in setup_times]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
