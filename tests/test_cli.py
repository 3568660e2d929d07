import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from treebo import cli
from treebo.bench import BoConfig, RegressionRecord, read_trace

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


@pytest.mark.parametrize("command", ["run", "regression"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--gamma-g", "-0.5", "--gamma-b", "0"),
        ("--delta", "1.5"),
        ("--theta0", "0"),
        ("--b0", "-1"),
        ("--acq-starts", "0"),
        ("--acq-scan", "0"),
        ("--restarts", "0"),
        ("--noise-variance", "-1"),
        ("--noise-variance", "0", "--noise-floor", "0"),
        ("--n-init", "-3"),
    ],
    ids=[
        "rate", "delta", "theta0", "b0", "acq-starts", "acq-scan", "restarts", "noise-variance",
        "noise-floor", "n-init",
    ],
)
def test_bad_schedule_settings_are_user_errors(tmp_path, capsys, command, flags):
    out = tmp_path / "o"
    assert run_cli(command, "--out", str(out), *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()  # rejected before any run started


def test_config_flag_defaults_are_bo_config_defaults():
    parser = cli._build_parser()
    for argv in (["run", "--out", "X"], ["regression"]):
        assert cli._config_from_args(parser.parse_args(argv)) == BoConfig()


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
