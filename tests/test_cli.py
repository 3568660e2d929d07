import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from treebo import cli
from treebo.bench import BoConfig, RegressionRecord, read_trace, run_bo, run_regression_study

DATA = Path(__file__).parent / "data"

FAST = [
    "--iterations", "6", "--n-init", "3", "--restarts", "1",
    "--acq-starts", "2", "--acq-scan", "8",
]


def run_cli(*argv):
    return cli.main(list(argv))


def test_run_writes_traces_and_summary(tmp_path, capsys):
    out = tmp_path / "traces"
    code = run_cli(
        "run", "--objective", "jenatton", "--algorithms", "addtree,random",
        "--seeds", "0,1", "--out", str(out), *FAST,
    )
    assert code == 0
    files = sorted(p.name for p in out.glob("*.jsonl"))
    assert files == [
        "addtree-seed0.jsonl", "addtree-seed1.jsonl",
        "random-seed0.jsonl", "random-seed1.jsonl",
    ]
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all("best=" in line for line in lines)
    tr = read_trace(out / "addtree-seed0.jsonl")
    assert len(tr.records) == 6
    assert tr.meta["config"]["seed"] == 0


def test_run_missing_tree_spec_is_user_error(tmp_path, capsys):
    code = run_cli(
        "run", "--tree-spec", "/nonexistent/space.tree",
        "--out", str(tmp_path / "o"), *FAST,
    )
    assert code == 1
    assert "/nonexistent/space.tree" in capsys.readouterr().err


def _one_line_error(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


def test_run_tree_spec_directory_is_user_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli("run", "--tree-spec", str(tmp_path), "--out", str(out), *FAST)
    assert code == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and str(tmp_path) in err
    assert not out.exists()


def test_run_binary_tree_spec_is_user_error_and_writes_nothing(tmp_path, capsys):
    binary = tmp_path / "space.tree"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe")
    out = tmp_path / "o"
    code = run_cli("run", "--tree-spec", str(binary), "--out", str(out), *FAST)
    assert code == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and str(binary) in err
    assert not out.exists()



@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seeds", "0,-1", *FAST],
        ["run", "--tree-spec", str(DATA / "two_leaf.tree"), "--objective-seed=-1", *FAST],
        ["regression", "--train-sizes", "4", "--test-size", "1", "--seeds=-1",
         "--restarts", "1"],
    ],
    ids=["run", "objective-seed", "regression"],
)
def test_negative_seed_is_user_error_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and "seed" in err and "must be >= 0, got -1" in err
    assert not out.exists()

@pytest.mark.parametrize(
    "argv",
    [
        ["run", *FAST],
        ["regression", "--train-sizes", "4", "--test-size", "1", "--seeds", "0",
         "--restarts", "1"],
    ],
    ids=["run", "regression"],
)
def test_out_naming_a_file_is_user_error_before_any_work(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(*argv, "--out", str(taken)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no run and no study before the error
    assert _one_line_error(captured.err) and str(taken) in captured.err


def test_run_rejects_unknown_algorithm(tmp_path, capsys):
    code = run_cli(
        "run", "--algorithms", "annealing", "--out", str(tmp_path / "o"), *FAST
    )
    assert code == 1
    assert "annealing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ("--algorithms", "random,random"),
        ("--seeds", "0,0"),
        ("--algorithms", "random,random", "--seeds", "0,0"),
    ],
    ids=["algorithms", "seeds", "both"],
)
def test_run_rejects_repeated_algorithms_or_seeds(tmp_path, capsys, flags):
    # a repeat would run one (algorithm, seed) several times into one file
    out = tmp_path / "o"
    assert run_cli("run", "--out", str(out), *flags, *FAST) == 1
    assert "repeats a value" in capsys.readouterr().err
    assert not out.exists()  # no trace written


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_run_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    out = tmp_path / "o"
    assert run_cli("run", "--out", str(out), "--workers", workers, *FAST) == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()  # no trace written


def test_bad_flag_is_user_error(capsys):
    assert run_cli("run", "--no-such-flag") == 1


# The BoConfig fields that only an optimization loop reads; ``regression``
# takes none of their flags.
LOOP_FLAGS = ("--n-init", "--theta0", "--b0", "--delta", "--gamma-g", "--gamma-b",
              "--acq-starts", "--acq-scan")
STUDY_FIELDS = {"restarts", "noise_variance", "kernel_kind", "tie_scales"}


@pytest.mark.parametrize("command", ["run", "regression"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--gamma-g", "-0.5", "--gamma-b", "0"), "gamma_g and gamma_b"),
        (("--delta", "1.5"), "delta"),
        (("--theta0", "0"), "theta0"),
        (("--b0", "-1"), "B0"),
        (("--acq-starts", "0"), "acq_starts"),
        (("--acq-scan", "0"), "acq_scan"),
        (("--restarts", "0"), "restarts"),
        (("--noise-variance", "-1"), "noise_variance"),
        (("--noise-variance", "0"), "noise_variance"),
        (("--n-init", "-3"), "n_init"),
    ],
    ids=[
        "rate", "delta", "theta0", "b0", "acq-starts", "acq-scan", "restarts", "noise-variance",
        "zero-noise-variance", "n-init",
    ],
)
def test_bad_schedule_settings_are_user_errors(tmp_path, capsys, command, flags, message):
    # run rejects each bad setting by its field; regression rejects the loop's
    # flags themselves, as it reads none of their fields
    if command == "regression" and flags[0] in LOOP_FLAGS:
        message = f"unrecognized arguments: {' '.join(flags)}"
    out = tmp_path / "o"
    assert run_cli(command, "--out", str(out), *flags) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and message in err
    assert not out.exists()  # rejected before any run started


def test_traces_with_a_zero_dim_header_still_load(tmp_path, capsys):
    # traces written while BoConfig had a zero_dim field carry it in their
    # header config.  They still load and compare, and the same run today
    # gives the same records (the wall times aside) under a header without it
    old = DATA / "zero_dim_traces"
    new = tmp_path / "new"
    assert run_cli("run", "--objective", "jenatton", "--algorithms", "addtree,random",
                   "--seeds", "0,1", "--out", str(new), *FAST) == 0
    for path in sorted(old.glob("*.jsonl")):
        before, after = read_trace(path), read_trace(new / path.name)
        config = dict(before.meta["config"])
        assert config.pop("zero_dim") == "constant"
        assert after.meta["config"] == config
        assert [dataclasses.replace(r, wall_time=0) for r in before.records] == [
            dataclasses.replace(r, wall_time=0) for r in after.records
        ]
    capsys.readouterr()
    assert run_cli("compare", str(old), str(new), "--iterations", "3,6") == 0
    report = capsys.readouterr().out
    assert "arg0:addtree" in report and "arg1:random" in report


def test_independent_runs_reproduce_their_recorded_traces(tmp_path):
    # two 6-iteration Jenatton runs of independent, whose model-based steps
    # choose one leaf across the per-leaf loops: a run today gives the same
    # header and the same records, the wall times aside
    old = DATA / "independent_traces"
    new = tmp_path / "new"
    assert run_cli("run", "--objective", "jenatton", "--algorithms", "independent",
                   "--seeds", "0,1", "--out", str(new), *FAST) == 0
    paths = sorted(old.glob("*.jsonl"))
    assert [p.name for p in paths] == ["independent-seed0.jsonl", "independent-seed1.jsonl"]
    for path in paths:
        assert _strip_wall_time(new / path.name) == _strip_wall_time(path)


def test_addtree_runs_reproduce_their_recorded_traces(tmp_path):
    # two 16-iteration Jenatton runs of addtree with the default config, 6
    # model-based steps each: a run today gives the same header and the same
    # records, the wall times aside, so any change to the fit or the
    # acquisition that moves a bit shows here
    old = DATA / "addtree_traces"
    new = tmp_path / "new"
    assert run_cli("run", "--objective", "jenatton", "--algorithms", "addtree",
                   "--seeds", "0,1", "--iterations", "16", "--out", str(new)) == 0
    paths = sorted(old.glob("*.jsonl"))
    assert [p.name for p in paths] == ["addtree-seed0.jsonl", "addtree-seed1.jsonl"]
    for path in paths:
        assert _strip_wall_time(new / path.name) == _strip_wall_time(path)


def test_config_flag_defaults_are_bo_config_defaults():
    parser = cli._build_parser()
    for argv in (["run", "--out", "X"], ["regression"]):
        assert cli._config_from_args(parser.parse_args(argv)) == BoConfig()


def test_config_flags_are_exactly_the_bo_config_fields():
    # _config_from_args drops names that are not fields, so a flag left
    # behind by a removed field would parse and do nothing
    fields = {f.name for f in dataclasses.fields(BoConfig)}
    flags = argparse.ArgumentParser(add_help=False)
    cli._add_config_flags(flags, cli._FIT_FLAGS + cli._LOOP_FLAGS)
    assert sorted(action.dest for action in flags._actions) == sorted(fields)
    # run takes all of them, and regression only the four its study reads
    parser = cli._build_parser()
    assert fields <= set(vars(parser.parse_args(["run", "--out", "X"])))
    assert set(vars(parser.parse_args(["regression"]))) & fields == STUDY_FIELDS


# One moved setting per config flag, each away from its BoConfig default.
MOVED = {
    "--n-init": ["3"], "--restarts": ["1"], "--theta0": ["0.5"], "--b0": ["2"],
    "--delta": ["0.5"], "--gamma-g": ["0.1"], "--gamma-b": ["0"],
    "--noise-variance": ["1e-4"], "--acq-starts": ["1"], "--acq-scan": ["8"],
    "--kernel": ["matern52"], "--no-tie-scales": [],
}


def _moved_configs(*command):
    """Per config flag the subcommand takes, the config it parses to with
    that flag moved; each differs from the default in one field."""
    parser = cli._build_parser()
    default = cli._config_from_args(parser.parse_args(command))
    configs = {}
    for flag, values in MOVED.items():
        try:
            config = cli._config_from_args(parser.parse_args([*command, flag, *values]))
        except cli.UserError:
            continue  # a flag this subcommand does not take
        moved = [f.name for f in dataclasses.fields(BoConfig)
                 if getattr(config, f.name) != getattr(default, f.name)]
        assert len(moved) == 1, (flag, moved)
        configs[moved[0]] = config
    return default, configs


def test_no_run_config_flag_is_inert(jenatton):
    # every config flag of run changes a short Jenatton run.  Seed 1 is a run
    # in which a full refit's draws change the winning start, so restarts
    # moves it too (at seed 0 restarts 1 leaves the run as it is)
    default, configs = _moved_configs("run", "--out", "X")
    assert set(configs) == {f.name for f in dataclasses.fields(BoConfig)}

    def records(config):
        trace = run_bo(jenatton, "addtree", 16, 1, config)
        return [(r.leaf, r.values, r.y, r.beta) for r in trace.records]

    base = records(default)
    for field, config in configs.items():
        assert records(config) != base, field


def test_no_regression_config_flag_is_inert(jenatton):
    # every config flag of regression changes a two-seed study's MSEs
    default, configs = _moved_configs("regression")
    assert set(configs) == STUDY_FIELDS

    def mses(config):
        records = run_regression_study(jenatton, (6, 12), test_size=20, seeds=(0, 1),
                                       config=config)
        return [r.mse for r in records]

    base = mses(default)
    for field, config in configs.items():
        assert mses(config) != base, field


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("run", ["--objective-seed", "-5"], "--objective-seed"),
        ("run", ["--objective-seed", "3"], "--objective-seed"),
        ("run", ["--tree-spec", str(DATA / "two_leaf.tree"), "--objective", "jenatton"],
         "--objective and --tree-spec"),
        ("regression", ["--objective-seed", "0"], "--objective-seed"),
        ("regression", ["--tree-spec", str(DATA / "two_leaf.tree"), "--objective", "jenatton"],
         "--objective and --tree-spec"),
    ],
    ids=["run-negative-seed", "run-seed", "run-both", "regression-seed", "regression-both"],
)
def test_objective_flag_the_objective_ignores_is_user_error(
    tmp_path, capsys, command, flags, message
):
    # the seed only seeds the objective on a tree spec, and a tree spec
    # replaces the builtin objective: either flag alone would do nothing
    out = tmp_path / "o"
    argv = FAST if command == "run" else ["--train-sizes", "4", "--test-size", "1",
                                          "--seeds", "0", "--restarts", "1"]
    assert run_cli(command, *flags, *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and message in err
    assert not out.exists()


def test_run_on_tree_spec_file(tmp_path):
    out = tmp_path / "traces"
    code = run_cli(
        "run", "--tree-spec", str(DATA / "binary_depth3.tree"),
        "--algorithms", "random", "--seeds", "0", "--out", str(out), *FAST,
    )
    assert code == 0
    tr = read_trace(out / "random-seed0.jsonl")
    assert tr.meta["objective"] == "tree:binary_depth3.tree"


def _strip_wall_time(path: Path) -> bytes:
    out = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        rec.pop("wall_time", None)
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out).encode()


def test_rerun_identical_traces_modulo_wall_time(tmp_path):
    args = [
        "run", "--objective", "jenatton", "--algorithms", "addtree",
        "--seeds", "3", "--iterations", "8", "--n-init", "3",
        "--restarts", "2", "--acq-starts", "2", "--acq-scan", "8",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    t1 = _strip_wall_time(out1 / "addtree-seed3.jsonl")
    t2 = _strip_wall_time(out2 / "addtree-seed3.jsonl")
    assert t1 == t2


def test_run_parallel_workers_match_serial(tmp_path):
    base = [
        "run", "--objective", "jenatton", "--algorithms", "random",
        "--seeds", "0,1,2", "--iterations", "5",
    ]
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert run_cli(*base, "--out", str(out1), "--workers", "1") == 0
    assert run_cli(*base, "--out", str(out2), "--workers", "3") == 0
    for name in ("random-seed0.jsonl", "random-seed1.jsonl", "random-seed2.jsonl"):
        assert _strip_wall_time(out1 / name) == _strip_wall_time(out2 / name)


def test_compare_reports_p_values(tmp_path, capsys):
    out = tmp_path / "traces"
    assert run_cli(
        "run", "--objective", "jenatton", "--algorithms", "addtree,random",
        "--seeds", "0,1,2,3,4", "--out", str(out), *FAST,
    ) == 0
    capsys.readouterr()
    report_file = tmp_path / "report.jsonl"
    code = run_cli(
        "compare", str(out), "--iterations", "3,6", "--out", str(report_file)
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "addtree > random" in text and "random > addtree" in text
    records = [json.loads(l) for l in report_file.read_text().splitlines()]
    p_records = [r for r in records if "p_value" in r]
    assert len(p_records) == 4  # 2 ordered pairs x 2 iterations
    assert all(r["p_value"] is None or 0 <= r["p_value"] <= 1 for r in p_records)


def test_compare_directory_with_itself_reports_undefined(tmp_path, capsys):
    out = tmp_path / "traces"
    assert run_cli(
        "run", "--objective", "jenatton", "--algorithms", "random",
        "--seeds", "0,1,2,3,4", "--out", str(out), *FAST,
    ) == 0
    capsys.readouterr()
    code = run_cli("compare", str(out), str(out), "--iterations", "6")
    assert code == 0
    text = capsys.readouterr().out
    assert "undefined" in text
    assert "arg0:random" in text


def test_compare_mismatched_seeds_is_user_error(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--algorithms", "random", "--seeds", "0,1",
                   "--out", str(a), *FAST) == 0
    assert run_cli("run", "--algorithms", "addtree", "--seeds", "0,2",
                   "--out", str(b), *FAST) == 0
    capsys.readouterr()
    assert run_cli("compare", str(a), str(b), "--iterations", "3") == 1
    assert "seed sets differ" in capsys.readouterr().err


def test_compare_two_traces_of_one_run_in_a_directory_is_user_error(tmp_path, capsys):
    # a copy of a trace with another best is a second trace of the same run:
    # the error names both files instead of dropping one of them
    traces = tmp_path / "traces"
    shutil.copytree(DATA / "zero_dim_traces", traces)
    original, copy = traces / "addtree-seed0.jsonl", traces / "copy.jsonl"
    lines = [json.loads(line) for line in original.read_text().splitlines()]
    for rec in lines[1:]:
        rec["best"] = 99.0
    copy.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    assert run_cli("compare", str(traces), "--iterations", "3") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line_error(captured.err)
    assert f"{original} and {copy} are both addtree seed 0" in captured.err


def test_compare_missing_directory_is_user_error(tmp_path, capsys):
    assert run_cli("compare", str(tmp_path / "none"), "--iterations", "1") == 1


def test_compare_out_in_missing_directory_is_user_error(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert run_cli("run", "--algorithms", "addtree,random", "--seeds", "0,1,2,3,4",
                   "--out", str(traces), *FAST) == 0
    capsys.readouterr()
    report = tmp_path / "nodir" / "report.jsonl"
    assert run_cli("compare", str(traces), "--iterations", "3", "--out", str(report)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no report before the error
    assert _one_line_error(captured.err) and str(report) in captured.err


HEADER = '{"format": "treebo-trace", "version": 1, "kind": "header", '


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "iteration"}\n',
        "not json\n",
        HEADER + '"seed": 0}\n',
        HEADER + '"algorithm": 3, "seed": 0}\n',
        HEADER + '"algorithm": "addtree", "seed": "one"}\n',
        HEADER + '"algorithm": "addtree", "seed": -1}\n',
    ],
    ids=["no-header", "not-json", "no-algorithm", "algorithm-not-str", "seed-not-int",
         "negative-seed"],
)
def test_compare_bad_trace_file_is_user_error(tmp_path, capsys, text):
    out = tmp_path / "traces"
    out.mkdir()
    bad = out / "bad.jsonl"
    bad.write_text(text)
    assert run_cli("compare", str(out), "--iterations", "1") == 1
    err = capsys.readouterr().err
    assert _one_line_error(err) and str(bad) in err


def test_regression_command_round_trips(tmp_path, capsys):
    out = tmp_path / "study"
    code = run_cli(
        "regression", "--objective", "jenatton", "--train-sizes", "0,6",
        "--test-size", "5", "--seeds", "0,1", "--restarts", "1",
        "--out", str(out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "addtree" in text and "independent" in text
    lines = (out / "regression.jsonl").read_text().splitlines()
    records = [RegressionRecord(**json.loads(line)) for line in lines]
    assert {r.method for r in records} == {"addtree", "independent"}
    assert {r.n_train for r in records} == {0, 6}
    # lossless round trip
    again = tmp_path / "again.jsonl"
    cli.write_regression_records(again, records)
    assert (out / "regression.jsonl").read_text() == again.read_text()


def test_regression_single_test_point(tmp_path):
    code = run_cli(
        "regression", "--train-sizes", "4", "--test-size", "1",
        "--seeds", "0", "--restarts", "1",
    )
    assert code == 0


@pytest.mark.parametrize("sizes", ["-4,8", "-8:8:4", ","])
def test_regression_rejects_bad_train_sizes(tmp_path, capsys, sizes):
    out = tmp_path / "study"
    assert run_cli("regression", f"--train-sizes={sizes}", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--train-sizes" in err
    assert not out.exists()


def test_train_sizes_range_syntax():
    assert cli._parse_sizes("4:48:4") == list(range(4, 48, 4))
    assert cli._parse_sizes("1,2,3") == [1, 2, 3]
    with pytest.raises(cli.UserError):
        cli._parse_sizes("4:48")
    with pytest.raises(cli.UserError):
        cli._parse_sizes("a,b")


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "run" in capsys.readouterr().out


def test_python_dash_m_treebo_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "treebo", "--help"], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: treebo")
