"""Command-line behavior: formats, batch mode, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permcode import Report, cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TRACE = ROOT / "tests" / "data" / "golden_trace.txt"


def run(argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    return cli.main(argv)


def test_trace_matches_golden_file_bytes():
    proc = subprocess.run(
        [sys.executable, "-m", "permcode.cli", "trace", "6 2 5 8 7 3 1 4"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TRACE.read_bytes()


def console_script_target(name):
    """The `module:function` that pyproject.toml installs as script `name`."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table by hand
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        scripts = {}
        for line in table.splitlines():
            key, sep, value = line.partition("=")
            if sep:
                scripts[key.strip()] = value.strip().strip("\"'")
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    return scripts[name]


def run_from_source(argv):
    """Run a command with src/ first on the path, as an install would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env
    )


def test_imports_only_the_standard_library():
    # zero runtime dependencies: importing the package and its CLI loads
    # nothing from outside the standard library, even where sortedcontainers
    # or numpy are installed; modules a site hook loads at start-up, and
    # names aliasing __main__, are not the package's doing
    script = (
        "import sys; before = set(sys.modules); import permcode, permcode.cli; "
        "main = sys.modules['__main__']; "
        "print(*sorted({name.partition('.')[0] for name, module in "
        "sys.modules.items() if name not in before and module is not main}))"
    )
    proc = run_from_source(["-c", script])
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "permcode" in loaded and "concurrent" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"permcode"}


def test_console_script_entry_point():
    module, function = console_script_target("permcode").split(":")
    # what the installed `permcode` script runs
    script = (
        f"import sys; from {module} import {function}; "
        f"sys.argv[0] = 'permcode'; sys.exit({function}())"
    )
    proc = run_from_source(["-c", script, "encode", "6 2 5 8 7 3 1 4"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 1 1 0 2 3 6 3"


def test_python_dash_m_permcode():
    proc = run_from_source(["-m", "permcode", "decode", "0 1 1 0 2 3 6 3"])
    assert proc.returncode == 0
    assert proc.stdout == "6 2 5 8 7 3 1 4\n"


def test_encode_decode(capsys):
    assert run(["encode", "6 2 5 8 7 3 1 4"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 1 0 2 3 6 3"
    assert run(["decode", "0 1 1 0 2 3 6 3"]) == 0
    assert capsys.readouterr().out.strip() == "6 2 5 8 7 3 1 4"


def test_lehmer_flag(capsys):
    assert run(["encode", "--code", "lehmer", "6 2 5 8 7 3 1 4"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 1 0 1 4 6 4"
    assert run(["decode", "--code", "lehmer", "0 1 1 0 1 4 6 4"]) == 0
    assert capsys.readouterr().out.strip() == "6 2 5 8 7 3 1 4"


def test_stats_perm(capsys):
    assert run(["stats", "--kind", "perm", "6 2 5 8 7 3 1 4"]) == 0
    assert capsys.readouterr().out == (
        "Des = {1 4 5 6}\n"
        "Ides = {3 5 7 8}\n"
        "LrM = {1 4}\n"
        "Lrm = {1 2 7}\n"
        "RlM = {4 5 8}\n"
        "cases = 0 0 1 1 3 2 1 3\n"
    )


def test_stats_seq(capsys):
    assert run(["stats", "--kind", "seq", "0 1 1 0 2 3 6 3"]) == 0
    assert capsys.readouterr().out == (
        "Asc = {1 4 5 6}\n"
        "Row = {3 5 7 8}\n"
        "Pos0 = {1 4}\n"
        "Max = {1 2 7}\n"
        "Rlm = {4 5 8}\n"
        "cases = 0 0 1 1 3 2 1 3\n"
    )


def test_word_error_exit_2_names_position(capsys):
    assert run(["encode", "1 2 9"]) == 2
    err = capsys.readouterr().err
    assert "entry 3" in err and "9" in err
    assert run(["decode", "0 2 1"]) == 2
    assert "entry 2" in capsys.readouterr().err


def test_batch_stdin(capsys, monkeypatch):
    code = run(
        ["encode"],
        stdin="1 2 3\n3 2 1\n\n2 1\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert capsys.readouterr().out == "0 0 0\n0 1 2\n0 1\n"


def test_batch_stdin_reports_bad_lines(capsys, monkeypatch):
    code = run(
        ["encode"],
        stdin="1 2 3\n9 9\n2 1\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "0 0 0\n0 1\n"
    assert "line 2" in err


def test_batch_stats_one_line_per_word(capsys, monkeypatch):
    code = run(
        ["stats", "--kind", "perm"],
        stdin="2 1\n1 2\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0] == "{1} {2} {1} {1 2} {1 2} | 1 1"


def test_batch_trace_blocks_blank_separated(capsys, monkeypatch):
    code = run(["trace"], stdin="1 2\n2 1\n", monkeypatch=monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert out == (
        "U_0 = ([0,2],0)\n"
        "U_1 = ([2,2],0),([0,0],1)\n"
        "P_1 = [1,1]\n"
        "\n"
        "U_0 = ([0,2],0)\n"
        "U_1 = ([0,1],1)\n"
        "P_1 = [2,2]\n"
    )


REPORTS = ROOT / "tests" / "data" / "reports"
# Report bytes of verify and table, generated by the code before the
# verifiers became one walk over S_n; they must never change.
GOLDEN_REPORTS = [
    (
        ["verify", "--theorem", "all", "--n", str(n), "--format", fmt],
        f"verify-all-n{n}.{ext}",
    )
    for n in range(1, 8)
    for fmt, ext in (("text", "txt"), ("json", "json"))
] + [
    (
        ["table", "--n", str(n), "--side", side, "--format", fmt],
        f"table-{side}-n{n}.{ext}",
    )
    for n in range(1, 9)
    for side in ("perms", "seqs")
    for fmt, ext in (("text", "txt"), ("json", "json"))
]


@pytest.mark.parametrize(
    "argv, name", GOLDEN_REPORTS, ids=[name for _, name in GOLDEN_REPORTS]
)
def test_report_matches_golden_bytes(capsys, argv, name):
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == (REPORTS / name).read_bytes()


def test_verify_passes(capsys):
    assert run(["verify", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_verify_single_check_json(capsys):
    assert run(["verify", "--n", "3", "--theorem", "eulerian", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "n": 3,
        "check": "eulerian",
        "pass": True,
        "table": {"0": 1, "1": 4, "2": 1},
    }


def test_verify_all_json_is_array(capsys):
    assert run(["verify", "--n", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["check"] for r in payload] == [
        "2",
        "bijection",
        "corollary2",
        "eulerian",
    ]
    assert all(r["pass"] for r in payload)


def test_verify_jobs_flag(capsys):
    assert run(["verify", "--n", "4", "--jobs", "2", "--theorem", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_counterexample_exit_1(capsys, monkeypatch):
    def failing(n, cap, jobs):
        return Report(
            n, "2", False, 1, counterexample={"perm": [2, 1]}
        )

    monkeypatch.setitem(cli._CHECKS, "2", failing)
    assert run(["verify", "--n", "2", "--theorem", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counterexample" in out


def test_verify_cap_error_exit_2(capsys):
    assert run(["verify", "--n", "12"]) == 2
    assert "cap" in capsys.readouterr().err


def test_verify_jobs_below_one_exit_2(capsys):
    for jobs in ("0", "-3"):
        assert run(["verify", "--n", "3", "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(n, cap, jobs):
        raise ValueError("internal bug")

    monkeypatch.setitem(cli._CHECKS, "2", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["verify", "--n", "2", "--theorem", "2"])


@pytest.mark.parametrize("text", ["1_0 2", "2 \u0662 1", "+1 2", "1 2.0"])
def test_non_ascii_integer_entries_exit_2(capsys, text):
    assert run(["encode", text]) == 2
    assert "is not an integer" in capsys.readouterr().err


def test_table_text(capsys):
    assert run(["table", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "total = 6" in out
    assert "u*v + 4*u^2*v^2 + u^3*v^3" in out


def test_table_json(capsys):
    assert run(["table", "--n", "3", "--side", "seqs", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"] == [[1, 0, 0], [0, 4, 0], [0, 0, 1]]
    assert payload["total"] == 6
    assert payload["polynomial"] == "u*v + 4*u^2*v^2 + u^3*v^3"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["encode", "--code", "gray", "1 2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
