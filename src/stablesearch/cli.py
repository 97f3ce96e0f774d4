"""Batch command line: search, simulate, evaluate and export artifacts.

Every command reads its settings from flags, optionally layered over a JSON
config file, and writes its outputs under one directory.  main then drops a
manifest recording the command's own settings at their effective values and
the library versions.
With a fixed manifest the outputs are reproducible byte for byte, whatever
the parallelism degree.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidPrior, SearchFailed, ShapeMismatch, StableSearchError, require
from .export import (
    annotated_dot,
    dataset_csv,
    effects_csv,
    graph_to_dict,
    prior_from_dict,
    read_json,
    roc_csv,
    stability_csv,
    stability_svg,
    write_json,
)
from .longitudinal import (
    LongitudinalDataset,
    intra_slice_mask,
    layout_from_dict,
    layout_to_dict,
    run_longitudinal,
)
from .pipeline import PipelineResult, run_pipeline
from .scoring import DISCRETE, load_dataset, rank_normalize
from .search import SearchParams
from .seeding import PARAMETERIZE_LANE, derived_rng
from .simulate import (
    default_structure,
    evaluate_recovery,
    random_parameterization,
    simulate_datasets,
    truth_from_dict,
    truth_to_dict,
)
from .stability import Thresholds

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SEARCH = 4


@dataclass
class RunConfig:
    data: str | None = None
    layout: str | None = None
    prior: str | None = None
    out: str = "run"
    subsets: int | None = None  # build_config takes it from SUBSETS
    generations: int = SearchParams.generations
    population: int = SearchParams.population_size
    crossover: float = SearchParams.p_crossover
    mutation: float = SearchParams.p_mutation
    pi_sel: float = Thresholds.pi_sel
    seed: int = SearchParams.seed
    parallelism: int = 1
    discrete: tuple = ()
    subsample_unit: str = "subject"
    prev_only: tuple = ()
    cur_only: tuple = ()
    datasets: int = 10
    samples: int = 400
    slices: int = 3
    truth: str | None = None


# default subset count of each command that takes --subsets
SUBSETS = {"search": 50, "search-longitudinal": 100, "evaluate": 50}

# the setting behind each SearchParams field
SEARCH_KEYS = {"generations": "generations", "population_size": "population",
               "p_crossover": "crossover", "p_mutation": "mutation", "seed": "seed"}

# integer settings that no library type checks, and their lower bounds
INTEGER_SETTINGS = {"subsets": 2, "parallelism": 1, "datasets": 1, "samples": 1, "slices": 2}


class ConfigError(Exception):
    pass


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then explicit flags."""
    values = {f.name: f.default for f in fields(RunConfig)}
    values["subsets"] = SUBSETS.get(args.command)
    loaded = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        loaded = read_json(path)
    try:
        settings = {key + "?": object for key in values if key in vars(args)}  # checked below
        require(f"config file {args.config}", loaded, settings)
        values.update(loaded)
        values.update((k, v) for k, v in vars(args).items() if k in values and v is not None)
        cfg = RunConfig(**values)
        for name, low in INTEGER_SETTINGS.items():
            if name in vars(args):  # the command reads it
                require(name, getattr(cfg, name), int)
                if getattr(cfg, name) < low:
                    raise ValueError(f"{name} must be at least {low}")
        search_params(cfg)
        Thresholds(cfg.pi_sel)
        for name in ("discrete", "prev_only", "cur_only"):
            require(name, getattr(cfg, name), [str])
        require("out", cfg.out, str)
        for attr in ("data", "layout", "prior", "truth"):
            value = getattr(cfg, attr)
            if value is not None:
                require(attr, value, str)
                if not Path(value).exists():
                    raise ConfigError(f"{attr} path not found: {value}")
    except ValueError as exc:
        raise ConfigError(f"bad settings: {exc}") from None
    if cfg.subsample_unit not in ("subject", "row"):
        raise ConfigError(
            f"subsample_unit must be 'subject' or 'row', not {cfg.subsample_unit!r}"
        )
    return cfg


def search_params(cfg: RunConfig) -> SearchParams:
    try:
        return SearchParams(**{field: getattr(cfg, key) for field, key in SEARCH_KEYS.items()})
    except ValueError as exc:  # name the setting, not the SearchParams field
        field, rest = str(exc).split(" ", 1)
        raise ValueError(f"{SEARCH_KEYS[field]} {rest}") from None


def load_prior(cfg: RunConfig) -> list[tuple[str, str]]:
    if cfg.prior is None:
        return []
    return prior_from_dict(read_json(cfg.prior))


def write_manifest(args: argparse.Namespace, cfg: RunConfig, extra: dict) -> None:
    """<out>/manifest.json: the settings the command registers, at their
    effective values, the library versions and the command's extras."""
    config = {k: v for k, v in asdict(cfg).items() if k in vars(args)}
    versions = {
        "stablesearch": __version__, "python": sys.version.split()[0], "numpy": np.__version__
    }
    write_json(
        Path(cfg.out) / "manifest.json",
        {"command": args.command, "config": config, "versions": versions, **extra},
    )


def write_pipeline_artifacts(out: Path, result: PipelineResult) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "edge_stability.csv").write_text(stability_csv(result.edge_sg), encoding="utf-8")
    (out / "causal_stability.csv").write_text(stability_csv(result.path_sg), encoding="utf-8")
    pi_sel, pi_bic = result.thresholds.pi_sel, result.pi_bic
    (out / "edge_stability.svg").write_text(
        stability_svg(result.edge_sg, pi_sel, pi_bic), encoding="utf-8"
    )
    (out / "causal_stability.svg").write_text(
        stability_svg(result.path_sg, pi_sel, pi_bic), encoding="utf-8"
    )
    (out / "effects.csv").write_text(
        effects_csv(result.estimates, result.labels), encoding="utf-8"
    )
    write_json(out / "graph.json", graph_to_dict(result.graph))
    (out / "graph.dot").write_text(annotated_dot(result.graph), encoding="utf-8")


# Each command writes its outputs and returns its manifest extras.
def cmd_search(cfg: RunConfig) -> dict:
    if cfg.data is None:
        raise ConfigError("search needs --data")
    kinds = {name: DISCRETE for name in cfg.discrete}
    data = rank_normalize(load_dataset(cfg.data, kinds))
    prior = load_prior(cfg)
    mask = intra_slice_mask(data.names, prior)
    result = run_pipeline(
        data,
        mask,
        search_params(cfg),
        n_subsets=cfg.subsets,
        pi_sel=cfg.pi_sel,
        parallelism=cfg.parallelism,
    )
    write_pipeline_artifacts(Path(cfg.out), result)
    log.info("search finished, pi_bic=%d, outputs in %s", result.pi_bic, cfg.out)
    return {"pi_bic": result.pi_bic}


def cmd_search_longitudinal(cfg: RunConfig) -> dict:
    if cfg.data is None or cfg.layout is None:
        raise ConfigError("search-longitudinal needs --data and --layout")
    kinds = {name: DISCRETE for name in cfg.discrete}
    wide = rank_normalize(load_dataset(cfg.data, kinds))
    layout = layout_from_dict(read_json(cfg.layout))
    data = LongitudinalDataset(wide, layout)
    prior = load_prior(cfg)
    baseline, transition = run_longitudinal(
        data,
        search_params(cfg),
        prior,
        pi_sel=cfg.pi_sel,
        n_subsets=cfg.subsets,
        parallelism=cfg.parallelism,
        subsample_unit=cfg.subsample_unit,
        prev_only=cfg.prev_only,
        cur_only=cfg.cur_only,
    )
    out = Path(cfg.out)
    write_pipeline_artifacts(out / "baseline", baseline)
    write_pipeline_artifacts(out / "transition", transition)
    log.info("longitudinal search finished, outputs in %s", out)
    return {"pi_bic": {"baseline": baseline.pi_bic, "transition": transition.pi_bic}}


def cmd_simulate(cfg: RunConfig) -> dict:
    if cfg.truth is not None:
        model = truth_from_dict(read_json(cfg.truth))
    else:
        structure = default_structure(cfg.slices)
        model = random_parameterization(
            structure, derived_rng(cfg.seed, PARAMETERIZE_LANE, 0)
        )
    datasets = simulate_datasets(model, cfg.datasets, cfg.samples, cfg.seed)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for d, ld in enumerate(datasets):
        (out / f"data_{d:02d}.csv").write_text(
            dataset_csv(ld.data.names, ld.data.values), encoding="utf-8"
        )
    write_json(out / "layout.json", layout_to_dict(datasets[0].layout))
    write_json(out / "truth.json", truth_to_dict(model))
    log.info("wrote %d datasets to %s", len(datasets), out)
    return {}


def cmd_evaluate(cfg: RunConfig) -> dict:
    if cfg.data is None:
        raise ConfigError("evaluate needs --data (a simulate output directory)")
    src = Path(cfg.data)
    if not src.is_dir():
        raise ConfigError(f"not a directory: {src}")
    truth_path = Path(cfg.truth) if cfg.truth else src / "truth.json"
    if not truth_path.is_file():
        raise ConfigError(f"missing ground truth: {truth_path}")
    model = truth_from_dict(read_json(truth_path))
    layout = layout_from_dict(read_json(src / "layout.json"))
    if (
        tuple(layout.variables) != model.variables
        or layout.slices != model.n_slices
    ):
        raise ShapeMismatch(
            f"layout ({len(layout.variables)} variables, {layout.slices} "
            f"slices) does not match the ground truth ({model.p} variables, "
            f"{model.n_slices} slices)"
        )
    files = sorted(src.glob("data_*.csv"))
    if not files:
        raise ConfigError(f"no data_*.csv files in {src}")
    datasets = [
        LongitudinalDataset(load_dataset(str(f)), layout) for f in files
    ]
    prior = load_prior(cfg)
    report = evaluate_recovery(
        datasets,
        model,
        search_params(cfg),
        prior=prior,
        n_subsets=cfg.subsets,
        parallelism=cfg.parallelism,
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "roc_edge.csv").write_text(roc_csv(report.edge_roc.points), encoding="utf-8")
    (out / "roc_causal.csv").write_text(roc_csv(report.causal_roc.points), encoding="utf-8")
    summary = {
        "averaging": {
            "edge_auc": report.edge_roc.auc,
            "causal_auc": report.causal_roc.auc,
        },
        "individual": {
            "edge_aucs": report.edge_aucs,
            "causal_aucs": report.causal_aucs,
        },
        "pi_bics": report.pi_bics,
    }
    write_json(out / "auc_summary.json", summary)
    log.info(
        "evaluated %d datasets: edge AUC %.3f, causal AUC %.3f",
        len(datasets),
        report.edge_roc.auc,
        report.causal_roc.auc,
    )
    return {"auc": summary}


# Each command registers only the flags it reads; its --config JSON may set
# only the RunConfig fields those flags set.
def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--seed", type=int)


def _add_search(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--subsets", type=int)
    sp.add_argument("--parallelism", type=int)
    sp.add_argument("--generations", type=int)
    sp.add_argument("--population", type=int)
    sp.add_argument("--crossover", type=float)
    sp.add_argument("--mutation", type=float)
    sp.add_argument("--prior", help="JSON file with forbidden intra-slice arcs")


def _add_selection(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--pi-sel", dest="pi_sel", type=float)
    sp.add_argument(
        "--discrete", nargs="*", help="column names to rank-normalize"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablesearch",
        description="Stability-based causal structure search",
    )
    levels = [logging.getLevelName(level) for level in range(0, 60, 10)]
    parser.add_argument("--log-level", type=str.upper, choices=levels, default="INFO")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="JSON config file; flags override it")
        return sp

    sp = command("search", "cross-sectional structure search")
    sp.add_argument("--data", help="CSV with a header row")
    _add_output(sp)
    _add_search(sp)
    _add_selection(sp)

    sp = command("search-longitudinal", "baseline + transition structure search")
    sp.add_argument("--data", help="wide-format longitudinal CSV")
    sp.add_argument("--layout", help="layout JSON mapping variables to slices")
    sp.add_argument("--subsample-unit", dest="subsample_unit", help="subject or row")
    sp.add_argument("--prev-only", dest="prev_only", nargs="*")
    sp.add_argument("--cur-only", dest="cur_only", nargs="*")
    _add_output(sp)
    _add_search(sp)
    _add_selection(sp)

    sp = command("simulate", "generate ground-truth datasets")
    sp.add_argument("--datasets", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--slices", type=int)
    sp.add_argument("--truth", help="reuse an existing ground-truth JSON")
    _add_output(sp)

    sp = command("evaluate", "ROC/AUC recovery evaluation")
    sp.add_argument("--data", help="simulate output directory")
    sp.add_argument("--truth", help="ground-truth JSON override")
    _add_output(sp)
    _add_search(sp)

    return parser


COMMANDS = {
    "search": cmd_search,
    "search-longitudinal": cmd_search_longitudinal,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = build_config(args)
        write_manifest(args, cfg, COMMANDS[args.command](cfg))
        return 0
    except (ConfigError, InvalidPrior, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SearchFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except StableSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
