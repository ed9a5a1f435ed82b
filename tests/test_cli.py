"""Command-line contract: payload on stdout, diagnostics on stderr, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from romdom import (
    CARTESIAN,
    STRONG,
    DEFAULT_SUITE_BUDGET,
    SuiteSpec,
    cycle,
    domination_number,
    exhaustive_corpus,
    from_edges,
    parse_graph6,
    path,
    roman_domination_number,
    run_suite,
    sweep_items,
    sweep_records,
)
from romdom import cli
from romdom.cli import build_parser, main
from romdom.solvers import _optimal_ties
from test_bounds import _failing


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_path_gamma_r(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "path:4", "--invariant", "gamma-r")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3
    assert payload["graph"] == "P4"
    assert len(payload["witness"]) == 4
    assert payload["node_count"] >= 1


def test_readme_solve_examples_print_their_output(capsys):
    # each `romdom solve` line of README that a `# {...}` line follows
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8").splitlines()
    examples = [
        (cmd, out[2:]) for cmd, out in zip(lines, lines[1:])
        if cmd.startswith("romdom solve ") and out.startswith("# {")
    ]
    assert examples
    for cmd, want in examples:
        code, out, _ = run_cli(capsys, *shlex.split(cmd)[1:])
        assert (code, out.strip()) == (0, want), cmd


def test_solve_star_gamma_r(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "star:5", "--invariant", "gamma-r")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_solve_trivial_graph6(capsys):
    code, out, _ = run_cli(capsys, "solve", "--g6", "@", "--invariant", "gamma")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_solve_enumerate(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "path:4", "--invariant", "enumerate-rdfs")
    payload = json.loads(out)
    assert payload["value"] == 2
    assert sorted(map(tuple, payload["witness"])) == [(0, 2, 0, 1), (1, 0, 2, 0)]
    # the gamma_R solve and the search that collects its ties
    gamma_r = roman_domination_number(path(4))
    assert payload["node_count"] == gamma_r.node_count + _optimal_ties(path(4), 3)[1]


def test_solve_roman_flag(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "cycle:6", "--invariant", "roman")
    payload = json.loads(out)
    assert payload["value"] is True
    # both searches, value-only: gamma and gamma_R
    gamma = domination_number(cycle(6), first=False)
    nodes = gamma.node_count + roman_domination_number(cycle(6), first=False).node_count
    assert payload["node_count"] == nodes


def test_solve_file_emits_jsonl(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text("A_\nBg\n")
    code, out, _ = run_cli(capsys, "solve", "--file", str(src), "--invariant", "gamma")
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(line)["value"] for line in lines] == [1, 1]


def test_solve_file_that_is_not_ascii_exits_2(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_bytes(b"A_\n\xc3\n")
    code, out, err = run_cli(capsys, "solve", "--file", str(src), "--invariant", "gamma")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(src) in err


def test_solve_requires_one_source(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--g6", "@", "--family", "path:3", "--invariant", "gamma"
    )
    assert code == 2
    assert "exactly one" in err


def test_solve_bad_graph6_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--g6", "A", "--invariant", "gamma")
    assert code == 2
    assert "error" in err


def test_product_emits_graph6(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--a", "path:3", "--b", "path:3", "--kind", "cartesian"
    )
    assert code == 0
    grid = parse_graph6(out.strip())
    assert grid.n == 9
    assert grid.edge_count() == 12


def test_product_accepts_raw_graph6(capsys):
    code, out, _ = run_cli(capsys, "product", "--a", "g6:A_", "--b", "g6:A_", "--kind", "strong")
    assert parse_graph6(out.strip()).edge_count() == 6


def test_construct_flojito(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--theorem", "flojito", "--a", "path:4", "--b", "path:5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 14
    assert set(payload) == {"labels", "weight", "claimed_bound", "selection_mode"}


def test_construct_strong_complete_pair(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--theorem", "strong", "--a", "complete:3", "--b", "complete:3"
    )
    assert json.loads(out)["weight"] == 2


def test_verify_unknown_theorem_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorems", "NO-SUCH")
    assert code == 2
    assert "NO-SUCH" in err


def test_verify_exhaustive_stdout(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--corpus", "exhaustive", "--max-n", "3", "--theorems", "L1"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["records"]) == 11
    assert report["summary"]["held"] == 11
    assert "checked=11" in err


def test_verify_report_csv_log_files(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    log_path = tmp_path / "r.jsonl"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family", "path:3",
        "--family", "cycle:3",
        "--products", "cartesian",
        "--theorems", "EQ-chino",
        "--report", str(report_path),
        "--csv", str(csv_path),
        "--log", str(log_path),
    )
    assert code == 0
    assert out == ""  # payload went to the file
    report = json.loads(report_path.read_text())
    assert len(report["records"]) == 4
    assert len(csv_path.read_text().splitlines()) == 5
    log_lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(log_lines) == 4
    assert all("ts" in line and "record" in line for line in log_lines)
    assert len({line["ts"] for line in log_lines}) == 1  # the start of the sweep
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json", "r.jsonl"]
    # append-only behavior
    run_cli(
        capsys,
        "verify",
        "--family", "path:3",
        "--products", "cartesian",
        "--theorems", "EQ-chino",
        "--report", str(report_path),
        "--log", str(log_path),
    )
    assert len(log_path.read_text().splitlines()) == 5


@pytest.mark.parametrize("corpus", ["exhaustive", "random"])
def test_verify_family_needs_the_families_corpus(capsys, corpus):
    code, out, err = run_cli(
        capsys, "verify", "--corpus", corpus, "--max-n", "3", "--family", "path:4"
    )
    assert code == 2
    assert out == ""
    assert "--family" in err and f"--corpus {corpus}" in err


@pytest.mark.parametrize(
    "flag, corpus",
    [
        ("--max-n", "families"),
        ("--max-n", "random"),
        ("--count", "families"),
        ("--count", "exhaustive"),
        ("--n-min", "families"),
        ("--n-min", "exhaustive"),
        ("--n-max", "families"),
        ("--n-max", "exhaustive"),
        ("--seed", "families"),
        ("--seed", "exhaustive"),
    ],
)
def test_verify_corpus_options_need_their_corpus(capsys, monkeypatch, flag, corpus):
    def never(*args, **kwargs):
        raise AssertionError("sweep reached")

    monkeypatch.setattr("romdom.cli.sweep_items", never)
    code, out, err = run_cli(capsys, "verify", "--corpus", corpus, flag, "3")
    assert code == 2
    assert out == ""
    assert f"{flag} needs --corpus" in err and f"not --corpus {corpus}" in err


@pytest.mark.parametrize(
    "corpus, size", [("families", 15), ("exhaustive", 75), ("random", 20)]
)
def test_verify_corpus_options_default_per_corpus(capsys, corpus, size):
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", corpus, "--theorems", "L1", "--products", "cartesian"
    )
    assert code == 0
    names = json.loads(out)["corpus"]
    assert len(names) == size
    if corpus == "random":
        # orders cycle through 4..6 from seed 0
        assert names[:4] == ["R(4,1/2,s0)", "R(5,1/2,s1)", "R(6,1/2,s2)", "R(4,1/2,s3)"]


@pytest.mark.parametrize("flag", ["--report", "--csv", "--log"])
def test_verify_bad_output_path_fails_before_the_sweep(tmp_path, capsys, monkeypatch, flag):
    def never(*args, **kwargs):
        raise AssertionError("sweep reached")

    monkeypatch.setattr("romdom.cli.sweep_items", never)
    bad = tmp_path / "missing" / "out"
    code, out, err = run_cli(
        capsys, "verify", "--corpus", "exhaustive", "--max-n", "2", flag, str(bad)
    )
    assert code == 2
    assert out == ""
    assert str(bad) in err and "sweep reached" not in err


@pytest.mark.parametrize("flag", ["--report", "--csv"])
def test_verify_output_path_that_is_a_directory_fails_before_the_sweep(
    tmp_path, capsys, monkeypatch, flag
):
    def never(*args, **kwargs):
        raise AssertionError("sweep reached")

    monkeypatch.setattr("romdom.cli.sweep_items", never)
    code, out, err = run_cli(
        capsys, "verify", "--corpus", "exhaustive", "--max-n", "2", flag, str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert str(tmp_path) in err and "sweep reached" not in err
    assert list(tmp_path.iterdir()) == []


def test_verify_report_through_a_symlink_is_written_in_place(tmp_path, capsysbinary):
    # only a regular file is replaced; a symlink (like a device or a pipe)
    # must stay what it is
    argv = ["verify", "--corpus", "exhaustive", "--max-n", "2"]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    target, link = tmp_path / "r.json", tmp_path / "link.json"
    link.symlink_to(target)
    assert main([*argv, "--report", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "r.json"]


def test_verify_failing_item_exits_2_and_leaves_no_output(tmp_path, capsys, monkeypatch):
    def broken(g, budget=None, **kwargs):
        raise ZeroDivisionError("broken solver")

    monkeypatch.setattr("romdom.bounds.roman_domination_number", broken)
    report, table = tmp_path / "r.json", tmp_path / "r.csv"
    table.write_text("an earlier table\n")
    code, out, err = run_cli(
        capsys,
        "verify", "--family", "path:3", "--family", "cycle:4",
        "--theorems", "EQ-chino", "--products", "cartesian", "--jobs", "1",
        "--report", str(report), "--csv", str(table),
    )
    assert code == 2
    assert out == ""
    assert "cartesian item g=P3 h=P3: check EQ-chino raised ZeroDivisionError" in err
    assert "Traceback" not in err
    # no partial report, and the earlier table is kept whole
    assert not report.exists()
    assert table.read_text() == "an earlier table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


def test_verify_csv_bytes_are_pinned(tmp_path, capsys):
    table = tmp_path / "r.csv"
    code, _, _ = run_cli(capsys, "verify", "--corpus", "exhaustive", "--max-n", "3", "--csv", str(table))
    assert code == 0
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    assert digest == "e3663bf42bc89e719d0226af6025d9fbcc7dd4df923ec63a737685cadbc517d5"


def test_verify_log_lines_are_the_report_records(tmp_path, capsys, monkeypatch):
    # a failing check, so that some records carry witnesses
    _failing(monkeypatch, "T-lower-ii", CARTESIAN)
    argv = ["--corpus", "exhaustive", "--max-n", "2", "--products", "cartesian"]
    log = tmp_path / "r.jsonl"
    code, _, _ = run_cli(capsys, "verify", *argv, "--report", str(tmp_path / "r.json"),
                         "--log", str(log))
    assert code == 1
    records = [json.loads(line)["record"] for line in log.read_text().splitlines()]
    spec = SuiteSpec(graphs=tuple(exhaustive_corpus(2)), products=(CARTESIAN,))
    assert records == run_suite(spec)["records"]
    assert any("witnesses" in rec for rec in records)


def test_log_lines_are_json_dumps_of_each_record(monkeypatch):
    # a failing check, so that some records carry witnesses, and labelings
    # under names that JSON escapes, which reuse the first labeling's rows
    _failing(monkeypatch, "T-lower-ii", CARTESIAN)
    graphs = (
        from_edges(3, [(0, 1), (1, 2)]),
        from_edges(3, [(1, 0), (0, 2)], 'a"b\\c'),
        from_edges(3, [(0, 2), (2, 1)], "\u00e9\x00"),
        cycle(3),
    )
    spec = SuiteSpec(graphs=graphs)
    ts = "2000-01-01T00:00:00+00:00"
    log = io.StringIO()
    items = list(cli._also_written(sweep_items(spec), None, log, ts))
    assert items == list(sweep_items(spec))
    lines = [
        json.dumps({"ts": ts, "record": rec.to_dict()}, sort_keys=True) + "\n"
        for rec in sweep_records(spec)
    ]
    assert log.getvalue().splitlines(keepends=True) == lines
    assert any("witnesses" in line and 'a\\"b' in line for line in lines)


def test_verify_products_are_normalized(tmp_path, capsys):
    texts = {}
    for products in ("strong,cartesian", "cartesian,strong", "strong,cartesian,strong"):
        report = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "verify", "--family", "path:2", "--theorems", "EQ-chino,T-strong-sandwich",
            "--products", products, "--report", str(report),
        )
        assert code == 0
        texts[products] = report.read_text()
    assert len(set(texts.values())) == 1
    assert json.loads(texts["strong,cartesian"])["suite"]["products"] == [CARTESIAN, STRONG]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--corpus", "exhaustive", "--max-n", "4", "--jobs", "1"),
            "f896d45cc7f4c711514d7c4c1945319f67e44d3c7f7329e1a30898a509bd097a",
        ),
        (
            ("--corpus", "exhaustive", "--max-n", "4", "--jobs", "2"),
            "f896d45cc7f4c711514d7c4c1945319f67e44d3c7f7329e1a30898a509bd097a",
        ),
        (
            ("--corpus", "families", "--max-product", "48", "--jobs", "2"),
            "73a77d204034d6b692a93bcdaf7de0af7d40609cb8e77091c9a6574bf5bba2b5",
        ),
        # the widest sweep: every pair of the family corpus, no --max-product
        (
            ("--corpus", "families", "--jobs", "1"),
            "db242695cce395a338ae15b8daa0ae9d70492f573781556edb366827374ef399",
        ),
        (
            ("--corpus", "families", "--jobs", "2"),
            "db242695cce395a338ae15b8daa0ae9d70492f573781556edb366827374ef399",
        ),
    ],
    ids=["exhaustive-jobs1", "exhaustive-jobs2", "families-jobs2", "families-all-jobs1",
         "families-all-jobs2"],
)
def test_verify_report_bytes_are_pinned(tmp_path, capsys, argv, digest):
    # the digests the in-process pins in test_bounds.py hold, through the
    # CLI, and the widest sweep's
    report = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", *argv, "--budget", "2000000", "--report", str(report))
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_verify_stdout_bytes_equal_report_file_bytes(tmp_path, capsysbinary):
    argv = ["verify", "--corpus", "exhaustive", "--max-n", "3"]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    report_path = tmp_path / "r.json"
    assert main([*argv, "--report", str(report_path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert report_path.read_bytes() == stdout


def test_verify_random_corpus(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--corpus", "random", "--count", "4", "--n-min", "4", "--n-max", "5",
        "--seed", "7", "--theorems", "L1", "--products", "cartesian",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["records"]) == 4
    assert [rec["g"] for rec in report["records"]] == [
        "R(4,1/2,s7)", "R(5,1/2,s8)", "R(4,1/2,s9)", "R(5,1/2,s10)",
    ]


def test_families_range(capsys):
    code, out, _ = run_cli(capsys, "families", "--kind", "path", "--start", "2", "--end", "4")
    assert code == 0
    assert out.splitlines() == ["A_", "Bg", "Ch"]


def test_families_bad_range(capsys):
    code, _, err = run_cli(capsys, "families", "--kind", "path", "--start", "4", "--end", "2")
    assert code == 2


def test_premise_check_c5(capsys):
    code, out, _ = run_cli(capsys, "premise-check", "--n", "5", "--kind", "cycle")
    assert code == 0
    payload = json.loads(out)
    assert payload["premise_holds"] is False
    assert payload["inequality_holds"] is True
    assert payload["b2_sizes"] == [1, 2]


def test_premise_check_bad_n(capsys):
    code, _, _ = run_cli(capsys, "premise-check", "--n", "1", "--kind", "path")
    assert code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "romdom.cli", "solve", "--family", "path:4", "--invariant", "gamma"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 2


def test_usage_error_exits_2(capsys):
    assert main(["nonsense-command"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


BUDGETED_COMMANDS = {
    "solve": ("solve", "--family", "cycle:9", "--invariant", "gamma-r"),
    "construct": ("construct", "--theorem", "flojito", "--a", "path:4", "--b", "path:5"),
    "verify": ("verify", "--corpus", "exhaustive", "--max-n", "3", "--theorems", "L1"),
}


@pytest.mark.parametrize("command", sorted(BUDGETED_COMMANDS))
def test_negative_budget_exits_2(capsys, command):
    code, out, err = run_cli(capsys, *BUDGETED_COMMANDS[command], "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize("command", sorted(BUDGETED_COMMANDS))
def test_zero_budget_is_unlimited(capsys, command):
    code, out, err = run_cli(capsys, *BUDGETED_COMMANDS[command], "--budget", "0")
    assert (code, bool(out)) == (0, True)
    assert "budget_skipped=" not in err or "budget_skipped=0" in err


@pytest.mark.parametrize("command", sorted(BUDGETED_COMMANDS))
def test_budget_default_is_the_suite_budget(command):
    args = build_parser().parse_args(BUDGETED_COMMANDS[command])
    assert args.budget == DEFAULT_SUITE_BUDGET


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_2(capsys, jobs):
    code, out, err = run_cli(capsys, *BUDGETED_COMMANDS["verify"], "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_verify_jobs_give_identical_bytes(tmp_path, capsys):
    texts = []
    for jobs in ("1", "2"):
        report = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run_cli(
            capsys, "verify", "--corpus", "exhaustive", "--max-n", "3",
            "--jobs", jobs, "--report", str(report),
        )
        assert code == 0
        texts.append(report.read_bytes())
    assert texts[0] == texts[1]


SPAWNED_CLI = """
import multiprocessing, sys
from romdom.cli import main
multiprocessing.set_start_method("spawn")
sys.exit(main(sys.argv[1:]))
"""


def test_verify_jobs_without_fork(tmp_path, capsys):
    # workers started by spawn, which inherit nothing, give the serial bytes
    sweep = ("verify", "--corpus", "exhaustive", "--max-n", "3")
    spawned, serial = tmp_path / "spawned.json", tmp_path / "serial.json"
    proc = subprocess.run(
        [sys.executable, "-c", SPAWNED_CLI, *sweep, "--jobs", "2", "--report", str(spawned)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, _, _ = run_cli(capsys, *sweep, "--jobs", "1", "--report", str(serial))
    assert code == 0
    assert spawned.read_bytes() == serial.read_bytes()
