"""CLI behavior: grammar, exit codes, JSON report shape and determinism."""

import json
import subprocess
import sys

import pytest

from monoclose import cli, kernels, newton, normality
from monoclose.cli import build_parser, main, parse_ideal, parse_vector, run_command
from monoclose.ideals import MonomialIdeal
from monoclose.newton import closure

IDEAL_457 = "4,0,0;0,5,0;0,0,7"


def invoke(*argv):
    return subprocess.run(
        [sys.executable, "-m", "monoclose.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_parse_vector():
    assert parse_vector(" 1, 2 ,3 ") == (1, 2, 3)
    # int() reads every decimal digit, the Arabic-Indic three among them
    assert parse_vector("2,\u0663") == (2, 3)
    for bad in ("", "1,,2", "1,-2", "1,x", "1.5"):
        with pytest.raises(ValueError):
            parse_vector(bad)
    # a superscript two is a digit to isdigit() but not to int()
    with pytest.raises(ValueError, match="nonnegative integers, got '\u00b2'"):
        parse_vector("0,\u00b2")


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


def test_json_runs_format_no_generator_lines():
    # emit drops text lines in --json mode, so none are formatted at all
    for argv in (
        ["closure", "-i", IDEAL_457],
        ["power", "-i", "2,0;0,3", "-k", "3"],
        ["two-exp", "gens", "-m", "1", "-n", "1", "-s", "2", "-l", "7", "-k", "3"],
    ):
        code, run = run_command(argv + ["--json"])
        assert code == 0
        assert run.lines == []
        assert run.report()["verdict"]["count"] > 0


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


def test_member_witness_solves_the_lp_once(monkeypatch):
    lp, solves = newton.max_weight_lp, []

    def counted(*args):
        solves.append(args)
        return lp(*args)

    monkeypatch.setattr(newton, "max_weight_lp", counted)
    newton._np_verdict.cache_clear()  # count from an empty memo
    argv = ["member", "-i", "0,1,3;1,3,0;2,0,1", "-v", "1,2,2", "--witness"]
    code, run = run_command(argv)
    assert code == 0
    assert run.lines[-1] == "dependence: power 2, factors g0 g1, slack 1,0,1"
    assert len(solves) == 1


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


def test_quasinormal_oversized_scan_is_a_usage_error(monkeypatch, capsys):
    def refuse(gens, limit):
        raise AssertionError("the bitmasks were built")

    monkeypatch.setattr(normality, "_semigroup_bits", refuse)
    code = main(["quasinormal", "--alpha", "97,101,103", "--bound", "1000"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: quasinormality scan needs")


@pytest.mark.parametrize("argv, err", [
    pytest.param(["power", "-i", "2,0;0,3", "-k", "0"],
                 "error: k must be at least 1, got 0\n", id="power"),
    pytest.param(["quasinormal", "--alpha", "4,5,7", "--bound", "0"],
                 "error: bound must be at least 1, got 0\n", id="quasinormal"),
    pytest.param(["two-exp", "gens", "-m", "1", "-n", "1", "-s", "2", "-l", "7", "-k", "0"],
                 "error: k must be at least 1, got 0\n", id="two-exp"),
    pytest.param(["closure", "-i", "4,0,0;0,5,0;0,0,7", "--max-gens", "0"],
                 "error: max_generators must be at least 1, got 0\n", id="closure"),
    pytest.param(["is-normal", "-i", "4,0;1,1;0,6", "--max-gens", "0"],
                 "error: max_generators must be at least 1, got 0\n", id="is-normal"),
])
def test_counts_below_one_are_usage_errors(argv, err, capsys):
    # the library refuses each count; the CLI passes it through
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


def test_oversized_box_scan_is_a_usage_error(capsys):
    # the slab for this box would hold 5001 * 5001 cells
    code = main(["closure", "-i", "1,0,0,0;0,5000,0,0;0,0,5000,0;0,0,0,1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_max_gens_bounds_the_powers_of_a_normality_check(capsys):
    # the direct pure-power route forms no power: the budget bounds the
    # minimal generators of each J^k that its walk meets, 2,420 at k = 2
    # for this normal tuple, and more at k = 3
    argv = ["is-normal", "--alpha", "4,4,5,5,5,5", "--direct", "--max-gens"]
    for budget, k in (("2000", 2), ("2419", 2), ("2420", 3)):
        assert main(argv + [budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: power {k} has more than {budget} generators\n"


def test_max_gens_counts_the_minimal_generators_of_a_power(capsys):
    # J^2 of (3,4,4,5) has 141 minimal generators among the 143 sums that
    # is_normal keeps unminimalized: a budget of 142 passes, 140 does not
    J = closure(normality._diag_ideal((3, 4, 4, 5))).generators
    sums = kernels.pair_sums_antichain(J, J)
    assert len(sums) == 143
    assert len(kernels.minimal_antichain(sums)) == 141
    argv = ["is-normal", "-i", ";".join(",".join(map(str, g)) for g in J)]
    assert main(argv) == 1
    unbounded = capsys.readouterr().out
    assert unbounded.endswith("witness: 2,0,3,3\n")
    assert main(argv + ["--max-gens", "142"]) == 1
    assert capsys.readouterr().out == unbounded
    assert main(argv + ["--max-gens", "140"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: power 2 has 141 generators, over the budget 140\n"


def test_oversized_power_walk_is_a_usage_error(capsys):
    # lcm(alpha) is about 1.06e15: the walk's bitsets are refused unbuilt
    code = main(["is-normal", "--alpha", "997,1009,1013,1019,1021", "--direct"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: power walk needs 1062321098284965-bit sets, over the cap\n")


def test_two_exp_verify():
    out = invoke("two-exp", "verify", "-m", "1", "-n", "1", "-s", "2", "-l", "7", "-k", "3")
    assert out.returncode == 0
    assert "all checks passed" in out.stdout


def test_two_exp_max_gens_bounds_the_same_count_in_gens_and_verify(capsys):
    # F_3 of (s, l) = (2, 7) has 7 vectors: 7 passes, 6 does not
    family = ["-m", "1", "-n", "1", "-s", "2", "-l", "7", "-k", "3"]
    for sub in ("gens", "verify"):
        assert main(["two-exp", sub, *family, "--max-gens", "7"]) == 0
        capsys.readouterr()
        assert main(["two-exp", sub, *family, "--max-gens", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: spec would enumerate 7 generators, over the budget 6\n"
        )


def test_two_exp_gens_socle_honors_max_gens(capsys):
    # the figure spec has 6 socle vectors
    argv = ["two-exp", "gens", "-m", "1", "-n", "1", "-s", "2", "-l", "7", "-k", "3", "--socle"]
    assert main(argv + ["--max-gens", "6"]) == 0
    capsys.readouterr()
    assert main(argv + ["--max-gens", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spec would enumerate 6 generators, over the budget 2\n"


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
    # is-normal takes one of -i and --alpha, and --direct only with --alpha
    for argv, text in [
        ((), "error: one of the arguments -i/--ideal --alpha is required"),
        (("-i", "1,0", "--alpha", "1,1"), "not allowed with argument -i/--ideal"),
    ]:
        out = invoke("is-normal", *argv)
        assert out.returncode == 2
        assert out.stdout == ""
        assert text in out.stderr
    out = invoke("is-normal", "-i", "4,0;0,5", "--direct")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: --direct applies to --alpha only\n"
    assert invoke("member", "-i", IDEAL_457).returncode == 2
    assert invoke("nonsense").returncode == 2
    assert invoke("power", "-i", "1,0", "-k", "0").returncode == 2
    # degenerate inputs are input errors, not crashes
    assert invoke("closure", "-i", "0,0").returncode == 2
    # a generator budget below 1 is refused by every command that takes one
    family = ("-m", "1", "-n", "1", "-s", "2", "-l", "3")
    for argv, budget in [
        (("closure", "-i", "4,0;1,1;0,6"), "-1"),
        (("is-normal", "--alpha", "4,5,7", "--direct"), "-3"),
        (("is-normal", "-i", "4,0;1,1;0,6"), "0"),
        (("two-exp", "gens", *family), "0"),
        (("two-exp", "verify", *family), "0"),
    ]:
        out = invoke(*argv, "--max-gens", budget)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"error: max_generators must be at least 1, got {budget}\n"
    # a budget that is no int is still argparse's usage error
    out = invoke("closure", "-i", "4,0;1,1;0,6", "--max-gens", "1.5")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "argument --max-gens: invalid int value: '1.5'" in out.stderr


def test_closure_above_the_bitset_cap_in_four_variables():
    # 2141 generators: more than the 2048 points a side the bitsets take,
    # so the generators of I that no find divides go through the split
    out = invoke("closure", "-i", "20,0,0,0;0,21,0,0;0,0,22,0;0,0,0,23")
    assert out.returncode == 0
    assert out.stderr == ""
    lines = out.stdout.splitlines()
    assert lines[0] == "2141 minimal generators"
    assert len(lines) == 2142


def test_internal_errors_exit_70_with_a_traceback(monkeypatch, capsys):
    # a bug must not exit 1, which reads as a false verdict
    def broken(I, max_generators=None):
        raise TypeError("broken closure")

    monkeypatch.setattr(cli, "closure", broken)
    assert run_command(["closure", "-i", IDEAL_457]) == (70, None)
    assert main(["closure", "-i", IDEAL_457]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("TypeError: broken closure\n")


def test_error_messages_go_to_stderr():
    out = invoke("closure", "-i", "1,2;1,2,3")
    assert out.stdout == ""
    assert out.stderr == "error: expected a vector of length 2, got 3\n"
    out = invoke("closure", "-i", "2,0;0,\u00b2")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: exponents must be nonnegative integers, got '\u00b2'\n"


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
