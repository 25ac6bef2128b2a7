"""CLI behavior: grammar, exit codes, JSON report shape and determinism."""

import json
import subprocess
import sys

import pytest

from monoclose.cli import build_parser, main, parse_ideal, parse_vector, run_command
from monoclose.ideals import MonomialIdeal

IDEAL_457 = "4,0,0;0,5,0;0,0,7"


def invoke(*argv):
    return subprocess.run(
        [sys.executable, "-m", "monoclose.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_parse_vector():
    assert parse_vector(" 1, 2 ,3 ") == (1, 2, 3)
    for bad in ("", "1,,2", "1,-2", "1,x", "1.5"):
        with pytest.raises(ValueError):
            parse_vector(bad)


def test_parse_ideal():
    I = parse_ideal("2,0; 0,3 ;2,0;")
    assert I == MonomialIdeal(2, ((2, 0), (0, 3)))
    with pytest.raises(ValueError):
        parse_ideal("1,2;1,2,3")
    with pytest.raises(ValueError):
        parse_ideal(" ; ")


def test_run_command_returns_report_without_printing(capsys):
    code, run = run_command(["closure", "-i", IDEAL_457])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = run.report()
    assert report["command"] == "closure"
    assert report["verdict"]["count"] == 19


def test_closure_text_output():
    out = invoke("closure", "-i", IDEAL_457)
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "19 minimal generators"
    assert "0,3,3" in lines


def test_member_exit_codes():
    assert invoke("member", "-i", IDEAL_457, "-v", "0,3,3").returncode == 0
    assert invoke("member", "-i", IDEAL_457, "-v", "0,3,2").returncode == 1


def test_member_witness_json():
    out = invoke("member", "-i", IDEAL_457, "-v", "0,3,3", "--witness", "--json")
    report = json.loads(out.stdout)
    assert report["schema_version"] == 1
    assert report["verdict"] == "inside"
    assert report["witnesses"][0]["power"] == 5
    assert report["certificates"][0]["type"] == "inside_weights"
    # weights are exact rationals rendered as strings
    for _, w in report["certificates"][0]["weights"]:
        num, _, den = w.partition("/")
        assert num.isdigit() and (den == "" or den.isdigit())


def test_member_outside_has_separator():
    out = invoke("member", "-i", IDEAL_457, "-v", "0,3,2", "--json")
    report = json.loads(out.stdout)
    assert report["verdict"] == "outside"
    assert report["certificates"][0]["separator"] == ["1/4", "1/5", "1/7"]


def test_json_report_key_order_and_determinism():
    a = invoke("is-normal", "--alpha", "4,5,7", "--json").stdout
    b = invoke("is-normal", "--alpha", "4,5,7", "--json").stdout
    ra, rb = json.loads(a), json.loads(b)
    assert list(ra) == [
        "schema_version",
        "command",
        "inputs",
        "verdict",
        "certificates",
        "witnesses",
        "checks",
        "timing_ms",
        "version",
    ]
    ra.pop("timing_ms")
    rb.pop("timing_ms")
    assert ra == rb


GOLDEN_IS_NORMAL = {
    "schema_version": 1,
    "command": "is-normal",
    "inputs": {"alpha": "4,5,7", "direct": False, "max_gens": 100000},
    "verdict": "not_normal",
    "certificates": [],
    "witnesses": [
        {"type": "closure_generator", "power": 2, "vector": [2, 4, 5]}
    ],
    "checks": [
        {"name": "power_1_closed", "passed": True},
        {"name": "power_2_closed", "passed": False},
    ],
    "version": "0.1.0",
}


def test_golden_is_normal_report():
    out = invoke("is-normal", "--alpha", "4,5,7", "--json")
    assert out.returncode == 1
    report = json.loads(out.stdout)
    report.pop("timing_ms")
    assert report == GOLDEN_IS_NORMAL


def test_is_normal_shortcut_text():
    out = invoke("is-normal", "--alpha", "2,3,13")
    assert out.returncode == 1
    assert "shortcuts: lcm_shift" in out.stdout
    assert "representative: 2,3,7" in out.stdout


def test_is_closed_exit_codes():
    assert invoke("is-closed", "-i", IDEAL_457).returncode == 1
    closed = "0,3;3,0;1,2;2,1"
    assert invoke("is-closed", "-i", closed).returncode == 0


def test_quasinormal_exit_codes():
    assert invoke("quasinormal", "--alpha", "2,3").returncode == 0
    out = invoke("quasinormal", "--alpha", "4,5,7", "--bound", "20")
    assert out.returncode == 1
    assert "281/140" in out.stdout


def test_two_exp_verify():
    out = invoke("two-exp", "verify", "-m", "1", "-n", "1", "-s", "2", "-l", "7", "-k", "3")
    assert out.returncode == 0
    assert "all checks passed" in out.stdout


def test_two_exp_block_swap():
    out = invoke("two-exp", "gens", "-m", "1", "-n", "2", "-s", "5", "-l", "3", "--json")
    report = json.loads(out.stdout)
    assert report["inputs"]["block_swapped"] is True
    assert report["command"] == "two-exp gens"


def test_colon_and_intersect_and_power():
    out = invoke("colon", "-i", "2,0;0,2", "--maximal")
    assert out.stdout.splitlines()[1:] == ["0,2", "1,1", "2,0"]
    out = invoke("intersect", "-i", "2,0", "-j", "0,3")
    assert out.stdout.splitlines()[1:] == ["2,3"]
    out = invoke("power", "-i", "1,0;0,1", "-k", "3")
    assert out.stdout.splitlines()[0] == "4 minimal generators"


def test_usage_errors_exit_two():
    assert invoke("closure", "-i", "1,2;1,2,3").returncode == 2
    assert invoke("is-normal").returncode == 2
    assert invoke("is-normal", "-i", "1,0", "--alpha", "1,1").returncode == 2
    assert invoke("member", "-i", IDEAL_457).returncode == 2
    assert invoke("nonsense").returncode == 2
    assert invoke("power", "-i", "1,0", "-k", "0").returncode == 2
    # degenerate inputs are input errors, not crashes
    assert invoke("closure", "-i", "0,0").returncode == 2


def test_error_messages_go_to_stderr():
    out = invoke("closure", "-i", "1,2;1,2,3")
    assert out.stdout == ""
    assert "ragged" in out.stderr


def test_version_flag():
    out = invoke("--version")
    assert out.returncode == 0
    assert out.stdout.startswith("monoclose ")


def test_repro_corpus_passes():
    out = invoke("repro")
    assert out.returncode == 0
    assert "118/118 checks passed" in out.stdout


def test_parser_covers_documented_subcommands():
    parser = build_parser()
    subactions = [
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    ]
    names = set(subactions[0].choices)
    assert names == {
        "closure",
        "member",
        "power",
        "colon",
        "intersect",
        "is-closed",
        "is-normal",
        "quasinormal",
        "two-exp",
        "repro",
    }


def test_main_in_process(capsys):
    code = main(["member", "-i", IDEAL_457, "-v", "0,3,3"])
    assert code == 0
    assert capsys.readouterr().out.startswith("inside")


def test_repeated_run_command_in_one_process_gives_same_outputs():
    # the parser is built once per process; reuse must not carry state over
    argvs = [
        ["closure", "-i", IDEAL_457],
        ["is-normal", "--alpha", "4,5,7", "--json"],
        ["is-normal", "-i", "2,0;0,3"],
        ["member", "-i", IDEAL_457, "-v", "0,3,3", "--witness"],
        ["power", "-i", "2,0;0,3", "-k", "2", "--json"],
        ["closure"],
    ]

    def outputs():
        out = []
        for argv in argvs:
            code, run = run_command(argv)
            report = None
            if run is not None:
                report = run.report()
                report.pop("timing_ms")
                report["lines"] = run.lines
            out.append((code, report))
        return out

    first = outputs()
    assert outputs() == first
    assert [code for code, _ in first] == [0, 1, 1, 0, 0, 2]
    assert "alpha" not in first[2][1]["inputs"]


def test_closed_pipe_exits_quietly_with_141():
    proc = subprocess.Popen(
        [sys.executable, "-m", "monoclose.cli", "closure", "-i", "300,0;0,301"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before any output arrives
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
