"""Command line tests: config layering, artifacts, exit codes, reruns."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from stablesearch.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_SEARCH,
    ConfigError,
    RunConfig,
    build_config,
    build_parser,
    main,
)
from stablesearch.export import dataset_csv, read_json, write_json


def write_chain_csv(path, n=100, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = 0.8 * x1 + rng.normal(size=n)
    x3 = 0.7 * x2 + rng.normal(size=n)
    rows = np.column_stack([x1, x2, x3])
    with open(path, "w") as fh:
        fh.write("A,B,C\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


FAST = ["--subsets", "6", "--generations", "4", "--population", "12", "--seed", "3"]

# the seven artifacts of a search run
ARTIFACTS = (
    "edge_stability.csv",
    "causal_stability.csv",
    "edge_stability.svg",
    "causal_stability.svg",
    "effects.csv",
    "graph.json",
    "graph.dot",
)


def parse_config(argv):
    return build_config(build_parser().parse_args(argv))


def test_config_defaults():
    cfg = parse_config(["search"])
    assert cfg.generations == 35
    assert cfg.population == 150
    assert cfg.crossover == 0.85
    assert cfg.mutation == 0.07
    assert cfg.pi_sel == 0.6
    assert cfg.parallelism == 1
    assert cfg.subsets == 50


def test_every_setting_is_a_flag_and_every_flag_a_setting():
    registered = set()
    for command in COMMANDS:
        registered |= vars(build_parser().parse_args([command])).keys()
    registered -= {"command", "log_level", "config"}  # not run settings
    assert {f.name for f in fields(RunConfig)} == registered


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    groups = {
        group.lower(): flags.split()
        for group, flags in re.findall(r"(\w+) flags\s+are\s+`([^`]+)`", section)
    }
    common = re.findall(r"Every command also takes `(--[a-z-]+)`", section)
    documented = {}
    for command, cells in re.findall(r"^\| `([a-z][a-z-]*)` \| (.+) \|$", section, re.M):
        flags = set(common)
        for cell in cells.split(", "):
            flags.update(cell.strip("`").split() if cell.startswith("`") else groups[cell])
        documented[command] = flags
    subparsers = next(a for a in build_parser()._actions if a.choices and "search" in a.choices)
    registered = {
        command: {s for action in sp._actions for s in action.option_strings} - {"-h", "--help"}
        for command, sp in subparsers.choices.items()
    }
    assert set(groups) == {"output", "search", "selection"} and common == ["--config"]
    assert documented == registered


def test_config_file_then_flags(tmp_path):
    path = tmp_path / "cfg.json"
    write_json(path, {"generations": 9, "population": 34, "discrete": ["A"]})
    cfg = parse_config(
        ["search", "--config", str(path), "--generations", "5"]
    )
    assert cfg.generations == 5  # flag wins
    assert cfg.population == 34  # file wins over default
    assert cfg.crossover == 0.85  # untouched default
    assert cfg.discrete == ["A"]


def test_config_rejects_junk(tmp_path):
    path = tmp_path / "cfg.json"
    write_json(path, {"generaitons": 9})
    with pytest.raises(ConfigError):
        parse_config(["search", "--config", str(path)])
    with pytest.raises(ConfigError):
        parse_config(["search", "--subsets", "1"])
    with pytest.raises(ConfigError):
        parse_config(["search", "--parallelism", "0"])
    with pytest.raises(ConfigError):
        parse_config(["search", "--prior", str(tmp_path / "nope.json")])


def test_search_writes_artifacts(tmp_path):
    csv = write_chain_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    assert main(["search", "--data", csv, "--out", str(out), *FAST]) == 0
    for name in (
        "edge_stability.csv",
        "causal_stability.csv",
        "edge_stability.svg",
        "causal_stability.svg",
        "effects.csv",
        "graph.json",
        "graph.dot",
        "manifest.json",
    ):
        assert (out / name).is_file(), name
    manifest = read_json(out / "manifest.json")
    assert isinstance(manifest["pi_bic"], int)
    assert manifest["config"]["generations"] == 4
    assert manifest["command"] == "search"
    assert set(manifest["versions"]) == {"stablesearch", "python", "numpy"}
    header = (out / "edge_stability.csv").read_text().splitlines()[0]
    assert header == "kind,from,to,complexity,probability,imputed"


def test_search_rerun_and_parallelism_byte_identical(tmp_path):
    csv = write_chain_csv(tmp_path / "d.csv")
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert main(["search", "--data", csv, "--out", str(outs[0]), *FAST]) == 0
    assert main(["search", "--data", csv, "--out", str(outs[1]), *FAST]) == 0
    assert (
        main(
            ["search", "--data", csv, "--out", str(outs[2]), *FAST,
             "--parallelism", "2"]
        )
        == 0
    )
    for name in ARTIFACTS:
        first = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == first, name
        assert (outs[2] / name).read_bytes() == first, name


def test_search_past_the_exact_limit_is_byte_identical_across_parallelism(tmp_path):
    # 10 columns: past search.EXACT_NODES, so each subset runs NSGA-II in the pool
    rng = np.random.default_rng(10)
    values = rng.standard_normal((100, 10))
    for j in range(1, 10):
        values[:, j] += 0.6 * values[:, j - 1]
    csv = tmp_path / "d.csv"
    csv.write_text(dataset_csv([f"X{j}" for j in range(10)], values))
    outs = [tmp_path / f"run{i}" for i in range(3)]
    for out, parallelism in zip(outs, ("1", "1", "2")):
        rc = main(["search", "--data", str(csv), "--out", str(out), *FAST,
                   "--parallelism", parallelism])
        assert rc == 0
    for name in ARTIFACTS:
        first = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == first, name
        assert (outs[2] / name).read_bytes() == first, name


def test_missing_data_exits_config(tmp_path, capsys):
    rc = main(["search", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_prev_suffix_prior_exits_config(tmp_path, capsys):
    csv = write_chain_csv(tmp_path / "d.csv")
    prior = tmp_path / "prior.json"
    write_json(prior, {"forbidden": [["A_prev", "B"]]})
    rc = main(
        ["search", "--data", csv, "--prior", str(prior), "--out", str(tmp_path / "o")]
    )
    assert rc == EXIT_CONFIG
    assert "previous slice" in capsys.readouterr().err


def test_prior_matches_exact_column_names_before_the_slice_suffixes(tmp_path):
    csv = tmp_path / "d.csv"
    write_chain_csv(csv)
    csv.write_text(csv.read_text().replace("A,B,C", "age,bmi_cur,dose_prev", 1))
    prior = tmp_path / "prior.json"
    write_json(prior, {"forbidden": [["age", "bmi_cur"], ["dose_prev", "age"]]})
    out = tmp_path / "o"
    rc = main(["search", "--data", str(csv), "--prior", str(prior), "--out", str(out), *FAST])
    assert rc == 0
    graph = read_json(out / "graph.json")
    assert graph["labels"] == ["age", "bmi_cur", "dose_prev"]
    assert not {(0, 1), (2, 0)} & {(a, b) for a, b, _ in graph["directed"]}


# (command, extra arguments, expected message); an argument starting with "{"
# is the text of a JSON file that the argument is replaced with
BAD_CONFIGS = {
    "odd population": (
        "search", ["--population", "7"], "bad settings: population must be even and at least 4"
    ),
    "zero generations": ("search", ["--generations", "0"], "generations must be positive"),
    "zero pi-sel": ("search", ["--pi-sel", "0"], "pi_sel must lie in (0, 1]"),
    "crossover above one": (
        "search", ["--crossover", "1.5"], "bad settings: crossover must lie in [0, 1]"
    ),
    "mutation below zero": (
        "search", ["--mutation", "-0.1"], "bad settings: mutation must lie in [0, 1]"
    ),
    "malformed config json": (
        "search", ["--config", '{"generations": 3,'], "Expecting property name"
    ),
    "malformed prior json": (
        "search", ["--prior", '{"generations": 3,'], "Expecting property name"
    ),
    "null prior forbidden": (
        "search", ["--prior", '{"forbidden": null}'], "bad prior: forbidden must be a list, not None"
    ),
    "zero datasets": ("simulate", ["--datasets", "0"], "datasets must be at least 1"),
    "zero samples": ("simulate", ["--samples", "0"], "samples must be at least 1"),
    "one slice": ("simulate", ["--slices", "1"], "slices must be at least 2"),
    "unknown subsample unit": (
        "search-longitudinal", ["--config", '{"subsample_unit": "bogus"}'],
        "subsample_unit must be 'subject' or 'row', not 'bogus'",
    ),
    "string seed": ("search", ["--config", '{"seed": "abc"}'], "seed must be an integer"),
    "discrete as one string": (
        "search", ["--config", '{"discrete": "X1_t0"}'], "discrete must be a list, not 'X1_t0'"
    ),
    "boolean pi_sel": (
        "search", ["--config", '{"pi_sel": true}'], "pi_sel must be a number, not True"
    ),
    "boolean crossover": (
        "search", ["--config", '{"crossover": true}'],
        "bad settings: crossover must be a number, not True",
    ),
    "string mutation": (
        "search", ["--config", '{"mutation": "0.1"}'],
        "bad settings: mutation must be a number, not '0.1'",
    ),
    "fractional population in config": (
        "search", ["--config", '{"population": 12.5}'],
        "bad settings: population must be an integer, not 12.5",
    ),
    "zero generations in config": (
        "search", ["--config", '{"generations": 0}'], "bad settings: generations must be positive"
    ),
    "one subset in config": (
        "search", ["--config", '{"subsets": 1}'], "bad settings: subsets must be at least 2"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_config_without_traceback(case, sim_dir, tmp_path, capsys):
    command, args, message = BAD_CONFIGS[case]
    fast = {}  # simulate takes none of the search settings
    if command != "simulate":  # a --seed flag would override the config's
        fast = {flag[2:]: int(value) for flag, value in zip(FAST[:6:2], FAST[1:6:2])}
    extra = []
    for i, arg in enumerate(args):
        if arg.startswith("{"):
            if args[i - 1] == "--config" and fast:
                # flags would override the file's values, so the file carries them
                try:
                    arg = json.dumps({**fast, **json.loads(arg)})
                except json.JSONDecodeError:
                    pass
                fast = {}
            path = tmp_path / f"arg{i}.json"
            path.write_text(arg)
            arg = str(path)
        extra.append(arg)
    flags = [item for key, value in fast.items() for item in (f"--{key}", str(value))]
    if command == "search":
        extra += ["--data", write_chain_csv(tmp_path / "d.csv")]
    elif command == "search-longitudinal":
        extra += ["--data", str(sim_dir / "data_00.csv"),
                  "--layout", str(sim_dir / "layout.json")]
    rc = main([command, "--out", str(tmp_path / "o"), *flags, *extra])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_config_keys_are_limited_to_the_commands_flags(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    write_json(path, {"population": 12})
    assert parse_config(["search", "--config", str(path)]).population == 12
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: ") and "'population'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# flags a command does not read are not registered for it
UNREAD_FLAGS = [
    ("simulate", "--population", "12"),
    ("simulate", "--prior", "prior.json"),
    ("evaluate", "--pi-sel", "0.5"),
    ("evaluate", "--discrete", "A"),
    ("effects", "--seed", "1"),
    ("export-dot", "--out", "o"),
]

# every run already writes effects.csv and graph.dot; no command re-prints them
REMOVED_COMMANDS = ("effects", "export-dot")


def assert_invalid_choice(exc, err, command):
    assert exc.value.code == EXIT_CONFIG
    assert f"invalid choice: '{command}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,flag,value", UNREAD_FLAGS, ids=[f"{c} {f}" for c, f, _ in UNREAD_FLAGS]
)
def test_unread_flag_exits_config_without_traceback(
    command, flag, value, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # a command that did run writes to ./run
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    err = capsys.readouterr().err
    if command in REMOVED_COMMANDS:  # a removed command reads no flag at all
        assert_invalid_choice(exc, err, command)
        return
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err


def test_unknown_log_level_exits_config_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert build_parser().parse_args(["--log-level", "warning", "simulate"]).log_level == "WARNING"
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "LOUD", "simulate"])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_CONFIG
    assert "argument --log-level: invalid choice: 'LOUD'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def write_one_variable_panel(tmp_path):
    rng = np.random.default_rng(4)
    x = np.cumsum(rng.normal(size=(80, 3)), axis=1)
    csv = tmp_path / "panel.csv"
    lines = [",".join(map(repr, row)) for row in x.tolist()]
    csv.write_text("\n".join(["X1_t0,X1_t1,X1_t2", *lines]) + "\n")
    layout = tmp_path / "layout.json"
    write_json(layout, {"variables": ["X1"], "slices": 3})
    return ["--data", str(csv), "--layout", str(layout)]


def test_single_variable_data_exits_data(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    column = np.random.default_rng(0).normal(size=50)
    csv.write_text("\n".join(["A", *map(repr, column.tolist())]) + "\n")
    runs = {
        "search": ["--data", str(csv)],
        "search-longitudinal": write_one_variable_panel(tmp_path),  # baseline slice
    }
    for command, args in runs.items():
        rc = main([command, *args, "--out", str(tmp_path / "o"), *FAST])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, command
        assert err.startswith("error: ") and "at least two variables" in err
        assert "Traceback" not in err


def assert_one_error_line(err, message):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_failed_subset_searches_exit_search(tmp_path, capsys):
    # C is nonzero in one row only: every subset without that row has a
    # constant column, and those searches fail
    rows = np.random.default_rng(0).normal(size=(40, 3))
    rows[:, 2] = 0.0
    rows[7, 2] = 1.0
    csv = tmp_path / "spike.csv"
    csv.write_text("A,B,C\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    rc = main(["search", "--data", str(csv), "--out", str(tmp_path / "o"), "--subsets", "10",
               "--generations", "4", "--population", "12", "--seed", "3"])
    assert rc == EXIT_SEARCH
    assert_one_error_line(capsys.readouterr().err, "of 10 subset searches failed")


def test_output_under_a_regular_file_exits_config(tmp_path, capsys):
    csv = write_chain_csv(tmp_path / "d.csv")
    (tmp_path / "file").write_text("x")
    rc = main(["search", "--data", csv, "--out", str(tmp_path / "file" / "o"), *FAST])
    assert rc == EXIT_CONFIG
    assert_one_error_line(capsys.readouterr().err, "Not a directory")


def test_search_without_data_exits_config(tmp_path, capsys):
    rc = main(["search", "--out", str(tmp_path / "o"), *FAST])
    assert rc == EXIT_CONFIG
    assert_one_error_line(capsys.readouterr().err, "error: search needs --data")


def test_discrete_unknown_column_exits_data(tmp_path, capsys):
    csv = write_chain_csv(tmp_path / "d.csv")
    rc = main(["search", "--data", csv, "--discrete", "Z", "--out", str(tmp_path / "o"), *FAST])
    assert rc == EXIT_DATA
    assert_one_error_line(capsys.readouterr().err, "kind declared for unknown columns ['Z']")


def test_degenerate_data_exits_data(tmp_path, capsys):
    csv = write_chain_csv(tmp_path / "tiny.csv", n=4)
    rc = main(["search", "--data", csv, "--out", str(tmp_path / "o"), *FAST])
    assert rc == EXIT_DATA
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("constant column", "column 'C' has zero variance"),
    pytest.param("collinear pair", "numerically singular: columns 'A', 'B' are collinear",
                 id="collinear pair-numerically singular"),
    ("rounding-level constant", "column 'C' has zero variance"),
])
def test_degenerate_covariance_exits_data(tmp_path, capsys, case, message):
    a, c = np.random.default_rng(0).normal(size=(2, 60))
    if case == "constant column":
        c = np.ones(60)
    elif case == "rounding-level constant":  # 0.3 and the next double up
        c = np.where(np.arange(60) % 2, 0.3, 0.30000000000000004)
    rows = np.column_stack([a, 2 * a if case == "collinear pair" else -a + c, c])
    csv = tmp_path / "degenerate.csv"
    csv.write_text("A,B,C\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    rc = main(["search", "--data", str(csv), "--out", str(tmp_path / "o"), *FAST])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["search", "search-longitudinal"])
def test_a_column_that_overflows_the_covariance_exits_data(command, tmp_path, capsys):
    header = {"search": "A,B,C", "search-longitudinal": "A_t0,A_t1,B_t0,B_t1"}[command]
    rows = np.random.default_rng(0).normal(size=(60, header.count(",") + 1))
    rows[:, 0] *= 1e200
    csv = tmp_path / "overflow.csv"
    csv.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    args = ["--data", str(csv)]
    if command == "search-longitudinal":
        write_json(tmp_path / "layout.json", {"variables": ["A", "B"], "slices": 2})
        args += ["--layout", str(tmp_path / "layout.json")]
    rc = main([command, *args, "--out", str(tmp_path / "o"), *FAST])
    assert rc == EXIT_DATA
    assert_one_error_line(capsys.readouterr().err, "column 'A' overflows the sample covariance")


def test_columns_on_very_different_scales_are_not_singular(tmp_path, capsys):
    rows = np.random.default_rng(0).normal(size=(200, 3)) * [1e7, 1.0, 1.0]
    csv = tmp_path / "scaled.csv"
    csv.write_text("A,B,C\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    out = tmp_path / "o"
    rc = main(["search", "--data", str(csv), "--out", str(out), *FAST])
    assert rc == 0, capsys.readouterr().err
    assert (out / "effects.csv").is_file()


def test_cli_import_leaves_scipy_out():
    code = "import sys, stablesearch.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_artifacts_are_utf8_whatever_the_locale(tmp_path):
    csv = write_chain_csv(tmp_path / "d.csv")
    text = Path(csv).read_text(encoding="utf-8")
    Path(csv).write_text(text.replace("A,", "Größe,", 1), encoding="utf-8")
    runs = {}
    for name, locale in (("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"}),
                         ("utf8", {"LC_ALL": "C.UTF-8"})):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "PYTHONCOERCECLOCALE": "0", **locale}
        (tmp_path / name).mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "stablesearch.cli", "search", "--data", csv,
             "--out", "run", *FAST],
            cwd=tmp_path / name, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        out = tmp_path / name / "run"
        runs[name] = {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*")}
    assert "Größe".encode() in runs["utf8"]["graph.dot"]
    assert runs["ascii"] == runs["utf8"]


def test_duplicate_column_names_exit_data(tmp_path, capsys):
    csv = tmp_path / "dup.csv"
    rows = np.random.default_rng(0).normal(size=(40, 4))
    lines = [",".join(map(repr, row)) for row in rows.tolist()]
    csv.write_text("\n".join(["A,A,C,D", *lines]) + "\n")
    out = tmp_path / "o"
    rc = main(["search", "--data", str(csv), "--out", str(out), *FAST])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("error: ") and "duplicate column names" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(
        ["simulate", "--out", str(out), "--datasets", "2", "--samples", "60",
         "--slices", "3", "--seed", "11"]
    )
    assert rc == 0
    return out


def test_simulate_outputs(sim_dir):
    assert (sim_dir / "data_00.csv").is_file()
    assert (sim_dir / "data_01.csv").is_file()
    layout = read_json(sim_dir / "layout.json")
    assert layout["variables"] == ["X1", "X2", "X3", "X4"]
    assert layout["slices"] == 3
    truth = read_json(sim_dir / "truth.json")
    assert truth["p"] == 4
    header = (sim_dir / "data_00.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "X1_t0"
    # weights land in the documented magnitude band
    for val in truth["baseline_weights"].values():
        assert 0.3 <= abs(val) <= 1.0
    # the manifest records simulate's own settings only
    config = read_json(sim_dir / "manifest.json")["config"]
    assert set(config) == {"datasets", "samples", "slices", "truth", "out", "seed"}


@pytest.mark.parametrize("command, subsets", [("search", 50), ("search-longitudinal", 100)])
def test_manifest_records_the_commands_default_subsets(command, subsets, sim_dir, tmp_path):
    args = ["--data", str(sim_dir / "data_00.csv")]
    if command == "search-longitudinal":
        args += ["--layout", str(sim_dir / "layout.json")]
    out = tmp_path / "o"
    tiny = ["--generations", "1", "--population", "4"]
    assert main([command, *args, "--out", str(out), *tiny]) == 0
    assert read_json(out / "manifest.json")["config"]["subsets"] == subsets


def test_unknown_role_variable_is_named_by_its_setting(sim_dir, tmp_path, capsys):
    rc = main(
        ["search-longitudinal", "--data", str(sim_dir / "data_00.csv"),
         "--layout", str(sim_dir / "layout.json"), "--prev-only", "Z",
         "--out", str(tmp_path / "o"), *FAST]
    )
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: prev_only references unknown variable 'Z'")
    assert "Traceback" not in err



def test_variable_pinned_to_both_sides_exits_2(sim_dir, tmp_path, capsys):
    rc = main(
        ["search-longitudinal", "--data", str(sim_dir / "data_00.csv"),
         "--layout", str(sim_dir / "layout.json"), "--prev-only", "X1",
         "--cur-only", "X1", "--out", str(tmp_path / "o"), *FAST]
    )
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: variable 'X1' is in both prev_only and cur_only")
    assert "Traceback" not in err


def test_simulate_truth_reuse(sim_dir, tmp_path):
    out = tmp_path / "again"
    rc = main(
        ["simulate", "--out", str(out), "--datasets", "1", "--samples", "30",
         "--truth", str(sim_dir / "truth.json"), "--seed", "11"]
    )
    assert rc == 0
    assert read_json(out / "truth.json") == read_json(sim_dir / "truth.json")


def test_search_longitudinal_end_to_end(sim_dir, tmp_path):
    out = tmp_path / "lrun"
    rc = main(
        ["search-longitudinal", "--data", str(sim_dir / "data_00.csv"),
         "--layout", str(sim_dir / "layout.json"), "--out", str(out),
         "--subsets", "5", "--generations", "3", "--population", "10",
         "--seed", "2"]
    )
    assert rc == 0
    manifest = read_json(out / "manifest.json")
    assert set(manifest["pi_bic"]) == {"baseline", "transition"}
    for sub in ("baseline", "transition"):
        assert (out / sub / "edge_stability.csv").is_file()
        assert (out / sub / "graph.dot").is_file()
    trans_csv = (out / "transition" / "edge_stability.csv").read_text()
    assert "X1_prev" in trans_csv and "X1_cur" in trans_csv


def test_search_longitudinal_rerun_and_parallelism_byte_identical(sim_dir, tmp_path):
    """A rerun, and one at --parallelism 2, write the same bytes: the
    search-longitudinal and evaluate artifacts, on the simulate output."""
    runs = {
        "search-longitudinal": (["--data", str(sim_dir / "data_00.csv"),
                                 "--layout", str(sim_dir / "layout.json")], 14),  # 7 per model
        "evaluate": (["--data", str(sim_dir)], 3),  # two ROC CSVs and auc_summary.json
    }
    for command, (data, n_files) in runs.items():
        outs = [tmp_path / command / f"run{i}" for i in range(3)]
        for out, parallelism in zip(outs, ("1", "1", "2")):
            rc = main([command, *data, "--out", str(out), *FAST, "--parallelism", parallelism])
            assert rc == 0
        # the manifest records the parallelism and the output path
        files = sorted(
            f.relative_to(outs[0]) for f in outs[0].rglob("*")
            if f.is_file() and f.name != "manifest.json"
        )
        assert len(files) == n_files, command
        for name in files:
            first = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == first, name
            assert (outs[2] / name).read_bytes() == first, name


@pytest.mark.parametrize("command", ["search", "search-longitudinal", "evaluate"])
def test_a_run_starts_at_most_one_pool(command, sim_dir, tmp_path, in_process_pool):
    data = {
        "search": ["--data", write_chain_csv(tmp_path / "d.csv")],
        "search-longitudinal": ["--data", str(sim_dir / "data_00.csv"),
                                "--layout", str(sim_dir / "layout.json")],
        "evaluate": ["--data", str(sim_dir)],
    }[command]
    rc = main([command, *data, "--out", str(tmp_path / "o"), *FAST, "--parallelism", "64"])
    assert rc == 0
    # search: 6 subsets; search-longitudinal: 2 models x 6; evaluate: 2 datasets x 6
    assert in_process_pool == [{"search": 6}.get(command, 12)]


def test_variables_observed_at_one_slice_enter_on_their_one_side(tmp_path):
    # B is observed only at slice 0 and C only at slice 2: B can only act as a
    # cause in the previous slice, C only as an effect in the current one
    rng = np.random.default_rng(6)
    a = np.cumsum(rng.normal(size=(80, 3)), axis=1)
    b = rng.normal(size=80)
    c = 0.8 * a[:, 2] + rng.normal(size=80)
    csv = tmp_path / "panel.csv"
    rows = np.column_stack([a, b, c]).tolist()
    csv.write_text("\n".join(["A_t0,A_t1,A_t2,B_t0,C_t2", *(",".join(map(repr, r)) for r in rows)]))
    layout = tmp_path / "layout.json"
    write_json(layout, {"variables": ["A", "B", "C"], "slices": 3,
                        "presence": {"B": [0], "C": [2]}})
    out = tmp_path / "o"
    rc = main(["search-longitudinal", "--data", str(csv), "--layout", str(layout),
               "--out", str(out), *FAST])
    assert rc == 0
    assert read_json(out / "baseline" / "graph.json")["labels"] == ["A", "B"]
    labels = read_json(out / "transition" / "graph.json")["labels"]
    assert labels == ["A_prev", "B_prev", "A_cur", "C_cur"]


def test_evaluate_end_to_end(sim_dir, tmp_path):
    out = tmp_path / "eval"
    rc = main(
        ["evaluate", "--data", str(sim_dir), "--out", str(out),
         "--subsets", "4", "--generations", "3", "--population", "10",
         "--seed", "7"]
    )
    assert rc == 0
    summary = read_json(out / "auc_summary.json")
    assert set(summary) == {"averaging", "individual", "pi_bics"}
    for val in summary["averaging"].values():
        assert 0.0 <= val <= 1.0
    assert len(summary["individual"]["edge_aucs"]) == 2
    assert len(summary["pi_bics"]) == 2
    rows = (out / "roc_edge.csv").read_text().splitlines()
    assert rows[0] == "fpr,tpr"
    assert rows[1] == "0.0,0.0"
    assert rows[-1] == "1.0,1.0"


SETTINGS = [f.name for f in fields(RunConfig)]
# every field of each JSON input, the fields that may be left out, and the
# exit code a malformed one gives
JSON_INPUTS = {
    "config": (SETTINGS, SETTINGS, EXIT_CONFIG),
    "prior": (["forbidden"], (), EXIT_CONFIG),
    "layout": (["variables", "slices", "column_pattern", "presence"],
               ("column_pattern", "presence"), EXIT_DATA),
    "truth": (["p", "slices", "baseline_arcs", "transition_arcs", "baseline_weights",
               "transition_weights", "baseline_noise", "transition_noise"], (), EXIT_DATA),
}
# one value of each JSON type; [[]] and {"k": "v"} hold a wrong item for any
# list or object field
WRONG_VALUES = {
    "float": 0.5, "bool": True, "string": "x", "null": None, "list": [[]], "object": {"k": "v"},
}
# (input, field): the type of WRONG_VALUES that the field accepts
FITTING = {
    ("config", "out"): "string", ("config", "crossover"): "float",
    ("config", "mutation"): "float", ("config", "pi_sel"): "float",
    ("config", "prior"): "null", ("config", "truth"): "null",
}
DROP = object()  # a field left out of the input
# nested cases: (input, fields replaced or dropped, text the error holds)
NESTED_JSON = {
    "truth p 4.7": ("truth", {"p": 4.7}, "p must be an integer, not 4.7"),
    "truth p as a string": ("truth", {"p": "4"}, "p must be an integer, not '4'"),
    "truth slices 3.9": ("truth", {"slices": 3.9}, "slices must be an integer, not 3.9"),
    "truth string arc": ("truth", {"baseline_arcs": [["1", 0], [3, 2]]},
                         "baseline_arcs[0][0] must be an integer, not '1'"),
    "truth string weight": ("truth", {"baseline_weights": {"1,0": "0.5", "3,2": 0.5}},
                            "baseline_weights['1,0'] must be a number, not '0.5'"),
    "truth bool weight": ("truth", {"baseline_weights": {"1,0": True, "3,2": 0.5}},
                          "baseline_weights['1,0'] must be a number, not True"),
    "truth weight for no arc": (
        "truth", {"baseline_weights": {"1,0": 0.5, "3,2": 0.5, "x,y": 0.5}},
        "baseline_weights has key 'x,y' that names no arc",
    ),
    "truth bool noise": ("truth", {"baseline_noise": [True] * 4},
                         "baseline_noise[0] must be a number, not True"),
    "truth baseline arc out of range": ("truth", {"baseline_arcs": [[1, 0], [9, 2]]},
                                        "baseline arcs out of range"),
    "truth transition arc out of range": ("truth", {"transition_arcs": [[0, 4], [0, 8]]},
                                          "transition arcs out of range"),
    "truth transition arc into the previous slice": (
        "truth", {"transition_arcs": [[4, 0]]},
        "transition arcs may not point into the previous slice",
    ),
    "truth cyclic transition pair": ("truth", {"transition_arcs": [[4, 5], [5, 4]]},
                                     "transition arcs contain a cycle"),
    "truth baseline self-loop": ("truth", {"baseline_arcs": [[1, 1]]},
                                 "baseline arcs contain a cycle"),
    "truth too few noise scales": ("truth", {"baseline_noise": [1.0] * 3},
                                   "need one noise scale per variable and part"),
    "truth non-positive noise scale": ("truth", {"transition_noise": [1.0, 0.0, 1.0, 1.0]},
                                       "noise scales must be positive"),
    "truth slices 1": ("truth", {"slices": 1}, "a longitudinal model needs at least two slices"),
    "prior non-string entry": ("prior", {"forbidden": [["X1", 5]]},
                               "forbidden[0][1] must be a string, not 5"),
    "prior three names": ("prior", {"forbidden": [["X1", "X2", "X3"]]},
                          "forbidden[0] must be a pair"),
    "config flag that is no setting": ("config", {"log_level": "DEBUG"},
                                       "has unknown key 'log_level'"),
    "layout slices 0": ("layout", {"slices": 0}, "layout needs at least one time slice"),
    "layout float slice": ("layout", {"presence": {"X1": [1.9]}},
                           "presence['X1'][0] must be an integer, not 1.9"),
    "layout misspelled presence": ("layout", {"presense": {"X1": [0]}},
                                   "layout has unknown key 'presense'"),
}


def json_input_cases():
    """Each field of each input replaced by each wrong type, or dropped where
    it is required, an unknown key, and the nested cases; the error text is
    the field name, or the whole expected message for a nested case."""
    cases = {}
    for name, (keys, optional, _) in JSON_INPUTS.items():
        for key in keys:
            for type_name, value in WRONG_VALUES.items():
                if FITTING.get((name, key)) != type_name:
                    cases[f"{name} {key} {type_name}"] = (name, {key: value}, key)
            if key not in optional:
                cases[f"{name} without {key}"] = (name, {key: DROP}, key)
        cases[f"{name} unknown key"] = (name, {"bogus": 1}, "bogus")
    return {**cases, **NESTED_JSON}


JSON_INPUT_CASES = json_input_cases()
SIMULATE_SETTINGS = ("datasets", "samples", "slices", "truth")


@pytest.mark.parametrize("case", sorted(JSON_INPUT_CASES))
def test_malformed_json_input_exits_naming_the_field(case, sim_dir, tmp_path, capsys):
    name, edits, named = JSON_INPUT_CASES[case]
    out = str(tmp_path / "o")
    command = "search-longitudinal"
    files = {"--data": str(sim_dir / "data_00.csv"), "--layout": str(sim_dir / "layout.json")}
    if name == "truth" or name == "config" and set(edits) & set(SIMULATE_SETTINGS):
        command, files = "simulate", {}
    if name == "config":  # it names every path itself, since a flag would override it
        base = {"datasets": 1, "samples": 30, "out": out}
        if command != "simulate":
            base = {"data": files.pop("--data"), "layout": files.pop("--layout"), "out": out,
                    "subsets": 6, "generations": 4, "population": 12}
    elif name == "prior":
        base = {"forbidden": [["X1", "X2"]]}
    else:
        base = read_json(sim_dir / f"{name}.json")
    for key, value in edits.items():
        if value is DROP:
            del base[key]
        else:
            base[key] = value
    path = tmp_path / f"{name}.json"
    write_json(path, base)
    files["--" + name] = str(path)
    args = [arg for item in files.items() for arg in item]
    rc = main([command, *args] if name == "config" else [command, *args, "--out", out])
    err = capsys.readouterr().err
    assert rc == JSON_INPUTS[name][2]
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if case in NESTED_JSON:
        assert named in err
    else:  # the field is named as a word: "p", "crossover", "'bogus'", "--data"
        assert re.search(rf"(^|[ '-]){named}(?![a-z_])", err[len("error: "):])


# (command, flag whose file is not UTF-8, exit code)
NON_UTF8_INPUTS = {
    "search data": ("search", "--data", EXIT_DATA),
    "search-longitudinal data": ("search-longitudinal", "--data", EXIT_DATA),
    "config": ("search", "--config", EXIT_CONFIG),
    "prior": ("search", "--prior", EXIT_CONFIG),
    "layout": ("search-longitudinal", "--layout", EXIT_CONFIG),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_exits_without_traceback(case, sim_dir, tmp_path, capsys):
    command, flag, code = NON_UTF8_INPUTS[case]
    files = {"--data": sim_dir / "data_00.csv"}
    if command == "search-longitudinal":
        files["--layout"] = sim_dir / "layout.json"
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfeA,B\n1.0,2.0\n")  # a UTF-16 byte-order mark
    files[flag] = bad
    args = [arg for item in files.items() for arg in map(str, item)]
    rc = main([command, *args, "--out", str(tmp_path / "o"), *FAST])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--data", "--config", "--prior", "--layout"])
def test_byte_order_mark_inputs_read_as_utf8(flag, sim_dir, tmp_path):
    # Excel's "CSV UTF-8" and some editors start a file with a UTF-8 byte-order mark
    files = {
        "--data": (sim_dir / "data_00.csv").read_bytes(),
        "--layout": (sim_dir / "layout.json").read_bytes(),
        "--config": b'{"generations": 4}',
        "--prior": b'{"forbidden": [["X1", "X2"]]}',
    }
    files[flag] = b"\xef\xbb\xbf" + files[flag]
    args = []
    for name, body in files.items():
        (tmp_path / name[2:]).write_bytes(body)
        args += [name, str(tmp_path / name[2:])]
    out = tmp_path / "o"
    discrete = ["X1_t0", "X1_t1", "X1_t2"]
    rc = main(["search-longitudinal", *args, "--discrete", *discrete, "--out", str(out), *FAST])
    assert rc == 0
    assert read_json(out / "manifest.json")["config"]["discrete"] == discrete
    for path in out.rglob("*.*"):
        assert "\ufeff" not in path.read_text(), path


@pytest.mark.parametrize("flag", ["--config", "--prior", "--layout"])
def test_malformed_json_input_names_its_file(flag, sim_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generations": 3,')
    files = {"--data": sim_dir / "data_00.csv", "--layout": sim_dir / "layout.json"}
    files[flag] = bad
    args = [arg for item in files.items() for arg in map(str, item)]
    rc = main(["search-longitudinal", *args, "--out", str(tmp_path / "o"), *FAST])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("unit", ["subject", "row"])
def test_too_few_subjects_exit_data_for_either_subsample_unit(unit, tmp_path, capsys):
    sim = tmp_path / "sim"  # 14 subjects, 4 variables, 2 slices: 8 transition columns
    args = ["--datasets", "1", "--samples", "14", "--slices", "2", "--seed", "5"]
    assert main(["simulate", "--out", str(sim), *args]) == 0
    rc = main(
        ["search-longitudinal", "--data", str(sim / "data_00.csv"),
         "--layout", str(sim / "layout.json"), "--subsample-unit", unit,
         "--out", str(tmp_path / "o"), *FAST]
    )
    assert rc == EXIT_DATA
    assert "subset size 7 too small for 8 columns" in capsys.readouterr().err


def test_evaluate_layout_mismatch_exits_data(sim_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    for f in sim_dir.glob("data_*.csv"):
        (bad / f.name).write_bytes(f.read_bytes())
    (bad / "truth.json").write_bytes((sim_dir / "truth.json").read_bytes())
    layout = read_json(sim_dir / "layout.json")
    layout["variables"] = layout["variables"][:3]
    write_json(bad / "layout.json", layout)
    rc = main(["evaluate", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    assert_one_error_line(
        capsys.readouterr().err,
        "layout (3 variables, 3 slices) does not match the ground truth (4 variables, "
        "3 slices): the layout lists X1, X2, X3, the truth X1, X2, X3, X4",
    )


def copy_sim_dir(sim_dir, dest, data=True):
    """A copy of the simulate output's truth and layout, and its data files if asked."""
    dest.mkdir()
    for f in ["truth.json", "layout.json", *(f.name for f in sim_dir.glob("data_*.csv") if data)]:
        (dest / f).write_bytes((sim_dir / f).read_bytes())
    return dest


def test_evaluate_layout_slices_mismatch_exits_data(sim_dir, tmp_path, capsys):
    bad = copy_sim_dir(sim_dir, tmp_path / "bad")
    layout = read_json(bad / "layout.json")
    layout["slices"] = 4
    write_json(bad / "layout.json", layout)
    rc = main(["evaluate", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    assert_one_error_line(
        capsys.readouterr().err,
        "layout (4 variables, 4 slices) does not match the ground truth (4 variables, 3 slices)",
    )


def test_evaluate_without_data_files_exits_config(sim_dir, tmp_path, capsys):
    empty = copy_sim_dir(sim_dir, tmp_path / "empty", data=False)
    rc = main(["evaluate", "--data", str(empty), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert_one_error_line(capsys.readouterr().err, f"no data_*.csv files in {empty}")


def test_evaluate_without_a_simulate_directory_exits_config(sim_dir, tmp_path, capsys):
    no_truth = copy_sim_dir(sim_dir, tmp_path / "no_truth")
    (no_truth / "truth.json").unlink()
    csv = sim_dir / "data_00.csv"
    for data, message in [
        ([], "evaluate needs --data (a simulate output directory)"),
        (["--data", str(csv)], f"not a directory: {csv}"),
        (["--data", str(no_truth)], f"missing ground truth: {no_truth / 'truth.json'}"),
    ]:
        rc = main(["evaluate", *data, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, message)


def test_missing_config_file_exits_config(tmp_path, capsys):
    missing = tmp_path / "none.json"
    rc = main(["search", "--config", str(missing), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert_one_error_line(capsys.readouterr().err, f"config file not found: {missing}")


def test_header_only_csv_exits_data(tmp_path, capsys):
    csv = tmp_path / "header.csv"
    csv.write_text("A,B,C\n")
    rc = main(["search", "--data", str(csv), "--out", str(tmp_path / "o"), *FAST])
    assert rc == EXIT_DATA
    assert_one_error_line(capsys.readouterr().err, f"{csv}: no data rows")


def test_blank_csv_lines_are_skipped(tmp_path):
    plain = write_chain_csv(tmp_path / "plain.csv")
    lines = Path(plain).read_text().splitlines()
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join([lines[0], "", *lines[1:50], "", "", *lines[50:], ""]) + "\n")
    for csv in (plain, gappy):
        assert main(["search", "--data", str(csv), "--out", str(tmp_path / Path(csv).stem),
                     *FAST]) == 0
    for name in ("edge_stability.csv", "graph.json"):
        assert (tmp_path / "gappy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_layout_that_observes_nothing_at_slice_0_exits_data(tmp_path, capsys):
    rows = np.random.default_rng(1).normal(size=(30, 4)).tolist()
    csv = tmp_path / "late.csv"
    csv.write_text("\n".join(["A_t1,A_t2,B_t1,B_t2", *(",".join(map(repr, r)) for r in rows)]))
    layout = tmp_path / "layout.json"
    write_json(layout, {"variables": ["A", "B"], "slices": 3,
                        "presence": {"A": [1, 2], "B": [1, 2]}})
    rc = main(["search-longitudinal", "--data", str(csv), "--layout", str(layout),
               "--out", str(tmp_path / "o"), *FAST])
    assert rc == EXIT_DATA
    assert_one_error_line(capsys.readouterr().err, "no variable is observed at the first slice")


def test_effects_and_export_dot_print(tmp_path, capsys):
    csv = write_chain_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    assert main(["search", "--data", csv, "--out", str(out), *FAST]) == 0
    capsys.readouterr()
    # what the two commands printed is read from the run directory itself
    assert (out / "effects.csv").read_text().startswith("source,target,")
    assert (out / "graph.dot").read_text().startswith("digraph G {")
    for command in REMOVED_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(out)])
        assert_invalid_choice(exc, capsys.readouterr().err, command)


def test_export_dot_missing_graph_exits_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export-dot", "--data", str(tmp_path)])
    assert_invalid_choice(exc, capsys.readouterr().err, "export-dot")
