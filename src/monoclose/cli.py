"""Command-line surface.

Ideals are written as generator lists: exponent rows separated by ';', each
row a comma-separated list of nonnegative integers, e.g. "4,0,0;0,5,0;0,0,7"
for (x^4, y^5, z^7).  Whitespace around tokens is ignored.  Output is plain
text by default; ``--json`` switches to a versioned report with a fixed key
order so identical invocations are byte-identical (timing lives in its own
field, excluded from golden comparisons).

Exit codes:

* 0: success or true verdict;
* 1: false verdict or failing check;
* 2: usage or input error;
* 70: internal error (sysexits' EX_SOFTWARE), with the traceback on
  standard error, so that a bug never passes for a false verdict;
* 141: standard output was closed by its reader before the output was
  written (as in ``monoclose closure ... | head -1``); 141 is
  128 + SIGPIPE, what a shell reports for a process that signal ended.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from dataclasses import replace

from . import __version__
from .errors import GeneratorBudgetError
from .ideals import (
    MonomialIdeal,
    _length_mismatch,
    colon_by_maximal,
    colon_by_monomial,
    intersect,
    power,
)
from .kernels import minimal_antichain
from .newton import closure, dependence_witness, np_member
from .normality import (
    NORMAL,
    QUASINORMAL_UP_TO_BOUND,
    is_integrally_closed,
    is_normal,
    pure_power_normality,
    quasinormality_check,
)
from .two_exponent import (
    TwoExponentSpec,
    generators_F,
    ideal_I,
    ideal_J,
    socle_generators,
    verify_all,
)

SCHEMA_VERSION = 1
DEFAULT_MAX_GENS = 10**5
EXIT_INTERNAL_ERROR = 70  # EX_SOFTWARE in sysexits.h
EXIT_BROKEN_PIPE = 128 + 13  # 13 = SIGPIPE


def parse_vector(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty exponent vector")
    for p in parts:
        if not p.isdecimal():
            raise ValueError(f"exponents must be nonnegative integers, got {p!r}")
    return tuple(map(int, parts))


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the generator-list grammar into a minimalized ideal."""
    rows = [r for r in (chunk.strip() for chunk in text.split(";")) if r]
    if not rows:
        raise ValueError("empty ideal text: expected 'a,b,...;c,d,...'")
    vectors = [parse_vector(r) for r in rows]
    # parse_vector yields nonnegative ints, so only the lengths need a check
    dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise _length_mismatch(dim, len(v))
    return MonomialIdeal._from_antichain(dim, minimal_antichain(vectors))


def format_vector(v) -> str:
    return ",".join(str(c) for c in v)


class _Run:
    """Collects one invocation's report fields and renders them."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.verdict = None
        self.certificates = []
        self.witnesses = []
        self.checks = []
        self.lines = []
        self.as_json = False
        self.started = time.monotonic()

    def text(self, line: str):
        self.lines.append(line)

    def report(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "certificates": self.certificates,
            "witnesses": self.witnesses,
            "checks": self.checks,
            "timing_ms": int((time.monotonic() - self.started) * 1000),
            "version": __version__,
        }

    def emit(self):
        if self.as_json:
            print(json.dumps(self.report()))
        else:
            for line in self.lines:
                print(line)


def _membership_certificate(verdict) -> dict:
    if verdict.is_inside:
        return {
            "type": "inside_weights",
            "weights": [[j, str(w)] for j, w in verdict.inside_weights],
        }
    return {
        "type": "outside_separator",
        "separator": [str(c) for c in verdict.outside_separator],
    }


def _list_vectors(run: _Run, heading: str, vectors):
    if run.as_json:
        return  # emit shows only the report
    run.text(f"{len(vectors)} {heading}")
    for v in vectors:
        run.text(format_vector(v))


def _list_generators(run: _Run, gens):
    run.verdict = {"count": len(gens), "generators": gens}
    _list_vectors(run, "minimal generators", gens)


def _cmd_closure(args, run: _Run) -> int:
    I = parse_ideal(args.ideal)
    _list_generators(run, closure(I, args.max_gens).generators)
    return 0


def _cmd_member(args, run: _Run) -> int:
    I = parse_ideal(args.ideal)
    v = parse_vector(args.vector)
    verdict = np_member(I, v)
    run.verdict = verdict.decision
    run.certificates.append(_membership_certificate(verdict))
    run.text(verdict.decision)
    if verdict.is_inside:
        pairs = ", ".join(f"g{j} -> {w}" for j, w in verdict.inside_weights)
        run.text(f"weights: {pairs}")
        if args.witness:
            wit = dependence_witness(I, v)
            run.witnesses.append(
                {
                    "type": "dependence",
                    "power": wit.power,
                    "factors": list(wit.factors),
                    "slack": list(wit.slack),
                }
            )
            run.text(
                f"dependence: power {wit.power}, factors "
                + " ".join(f"g{j}" for j in wit.factors)
                + f", slack {format_vector(wit.slack)}"
            )
        return 0
    sep = " ".join(map(str, verdict.outside_separator))
    run.text(f"separator: {sep}")
    return 1


def _cmd_power(args, run: _Run) -> int:
    I = parse_ideal(args.ideal)
    _list_generators(run, power(I, args.k).generators)
    return 0


def _cmd_colon(args, run: _Run) -> int:
    I = parse_ideal(args.ideal)
    if args.maximal:
        Q = colon_by_maximal(I)
    else:
        Q = colon_by_monomial(I, parse_vector(args.by))
    _list_generators(run, Q.generators)
    return 0


def _cmd_intersect(args, run: _Run) -> int:
    I = parse_ideal(args.ideal)
    J = parse_ideal(args.other)
    _list_generators(run, intersect(I, J).generators)
    return 0


def _cmd_is_closed(args, run: _Run) -> int:
    I = parse_ideal(args.ideal)
    closed, witness = is_integrally_closed(I)
    run.verdict = bool(closed)
    if closed:
        run.text("integrally closed")
        return 0
    run.witnesses.append({"type": "closure_generator", "vector": list(witness)})
    run.text("not integrally closed")
    run.text(f"witness: {format_vector(witness)}")
    return 1


def _normality_output(report, run: _Run) -> int:
    run.verdict = report.verdict
    run.checks = [
        {"name": f"power_{k}_closed", "passed": ok} for k, ok in report.checked_powers
    ]
    run.text(report.verdict)
    run.text("shortcuts: " + ", ".join(report.shortcuts))
    if report.representative is not None:
        run.inputs["representative"] = list(report.representative)
        run.text(f"representative: {format_vector(report.representative)}")
    for k, ok in report.checked_powers:
        run.text(f"power {k}: {'closed' if ok else 'not closed'}")
    if report.verdict == NORMAL:
        return 0
    run.witnesses.append(
        {
            "type": "closure_generator",
            "power": report.failing_power,
            "vector": list(report.failing_witness),
        }
    )
    run.text(f"failing power: {report.failing_power}")
    run.text(f"witness: {format_vector(report.failing_witness)}")
    return 1


def _cmd_is_normal(args, run: _Run) -> int:
    if args.alpha is not None:
        alpha = parse_vector(args.alpha)
        report = pure_power_normality(
            alpha, use_shortcuts=not args.direct, max_generators=args.max_gens
        )
    else:
        if args.direct:
            raise ValueError("--direct applies to --alpha only")
        report = is_normal(parse_ideal(args.ideal), args.max_gens)
    return _normality_output(report, run)


def _cmd_quasinormal(args, run: _Run) -> int:
    alpha = parse_vector(args.alpha)
    verdict = quasinormality_check(alpha, args.bound)
    run.verdict = verdict.verdict
    run.text(verdict.verdict)
    if verdict.verdict == QUASINORMAL_UP_TO_BOUND:
        return 0
    x, p = verdict.witness
    run.witnesses.append({"type": "quasinormality", "x": str(x), "p": p})
    run.text(f"witness: x = {x}, p = {p}")
    return 1


def _two_exp_spec(args, run: _Run) -> TwoExponentSpec:
    m, n, s, l = args.m, args.n, args.s, args.l
    if s > l:
        # The construction fixes l >= s; with s > l the two variable blocks
        # simply trade places.
        m, n, s, l = n, m, l, s
        run.inputs["block_swapped"] = True
        run.text(f"note: blocks swapped to keep l >= s (m={m}, n={n}, s={s}, l={l})")
    return TwoExponentSpec(m=m, n=n, s=s, l=l, k=args.k)


def _cmd_two_exp_gens(args, run: _Run) -> int:
    spec = _two_exp_spec(args, run)
    if args.socle:
        vectors, kind = socle_generators(spec, args.max_gens), "socle vectors"
    else:
        vectors, kind = generators_F(spec, args.max_gens), "F_k vectors"
    run.verdict = {"kind": kind.split()[0], "count": len(vectors), "vectors": vectors}
    _list_vectors(run, kind, vectors)
    return 0


def _cmd_two_exp_verify(args, run: _Run) -> int:
    spec = _two_exp_spec(args, run)
    report = verify_all(spec, max_generators=args.max_gens)
    run.verdict = "pass" if report.all_passed else "fail"
    for c in report.checks:
        entry = {"name": c.name, "passed": c.passed, "detail": c.detail}
        if c.offender is not None:
            entry["offender"] = list(c.offender)
        run.checks.append(entry)
        line = f"{c.name}: {'pass' if c.passed else 'FAIL'}"
        if c.offender is not None:
            line += f" (offender {format_vector(c.offender)})"
        run.text(line)
    run.text("all checks passed" if report.all_passed else "some checks failed")
    return 0 if report.all_passed else 1


def _repro_cases():
    """The reproduction corpus: named instances with pinned expected values."""

    def counterexample():
        report = pure_power_normality((4, 5, 7), use_shortcuts=False)
        yield "alpha(4,5,7) not normal", report.verdict == "not_normal"
        yield "failing power is 2", report.failing_power == 2
        yield "witness is (2,4,5)", report.failing_witness == (2, 4, 5)
        I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
        gens = closure(I).generators
        yield "(0,3,3) generates the closure", (0, 3, 3) in gens
        wit = dependence_witness(I, (0, 3, 3))
        yield "dependence power is 5", wit.power == 5

    def figure():
        spec = TwoExponentSpec(1, 1, 2, 7, 3)
        expected = [(0, 21), (1, 18), (2, 14), (3, 11), (4, 7), (5, 4), (6, 0)]
        yield "F_3 matches the staircase", generators_F(spec) == expected
        yield "I_3 is (x^6, z^21)", set(ideal_I(spec).generators) == {(6, 0), (0, 21)}
        report = verify_all(spec)
        for c in report.checks:
            yield f"{c.name}", c.passed

    def triple_identity():
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for s, l in ((2, 3), (2, 7), (3, 5)):
                for k in (1, 2, 3):
                    spec = TwoExponentSpec(m, n, s, l, k)
                    J = ideal_J(spec)
                    ok = (
                        power(ideal_J(replace(spec, k=1)), k).generators
                        == J.generators
                        == closure(ideal_I(spec)).generators
                    )
                    yield f"m={m} n={n} s={s} l={l} k={k}", ok

    def normal_grid():
        for s in range(1, 5):
            for l in range(s + 1, 6):
                for n in (2, 3):
                    for count_l in range(n + 1):
                        alpha = (s,) * (n - count_l) + (l,) * count_l
                        report = pure_power_normality(alpha, use_shortcuts=False)
                        yield f"alpha={format_vector(alpha)} direct", report.is_normal

    return (
        ("counterexample", counterexample),
        ("figure", figure),
        ("triple_identity", triple_identity),
        ("normal_grid", normal_grid),
    )


def _cmd_repro(args, run: _Run) -> int:
    failures = 0
    total = 0
    for group, case in _repro_cases():
        for name, passed in case():
            total += 1
            failures += not passed
            run.checks.append({"name": f"{group}: {name}", "passed": bool(passed)})
            run.text(f"{group}: {name}: {'pass' if passed else 'FAIL'}")
    run.verdict = "pass" if not failures else "fail"
    run.text(f"{total - failures}/{total} checks passed")
    return 0 if not failures else 1


def _add_ideal_arg(p):
    p.add_argument(
        "-i",
        "--ideal",
        required=True,
        help="generator list, e.g. '4,0,0;0,5,0;0,0,7'",
    )


def _add_max_gens(p):
    p.add_argument(
        "--max-gens",
        type=int,
        default=DEFAULT_MAX_GENS,
        help="abort if an enumeration exceeds this many generators",
    )


def _add_two_exp_params(p):
    p.add_argument("-m", type=int, required=True, help="number of s-exponent variables")
    p.add_argument("-n", type=int, required=True, help="number of l-exponent variables")
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-k", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="monoclose",
        description="exact integral closure and normality of monomial ideals",
    )
    parser.add_argument(
        "--version", action="version", version=f"monoclose {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "closure", parents=[common], help="minimal generators of the integral closure"
    )
    _add_ideal_arg(p)
    _add_max_gens(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser(
        "member", parents=[common], help="Newton-polyhedron membership with certificate"
    )
    _add_ideal_arg(p)
    p.add_argument("-v", "--vector", required=True, help="query exponent vector")
    p.add_argument(
        "--witness", action="store_true", help="also compute a dependence witness"
    )
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("power", parents=[common], help="minimal generators of an ideal power")
    _add_ideal_arg(p)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser(
        "colon", parents=[common], help="colon ideal by a monomial or all variables"
    )
    _add_ideal_arg(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("-f", "--by", help="monomial exponent vector to colon by")
    g.add_argument("--maximal", action="store_true", help="colon by (x_1, ..., x_n)")
    p.set_defaults(func=_cmd_colon)

    p = sub.add_parser("intersect", parents=[common], help="intersection of two ideals")
    _add_ideal_arg(p)
    p.add_argument("-j", "--other", required=True, help="second ideal")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("is-closed", parents=[common], help="decide integral closedness")
    _add_ideal_arg(p)
    p.set_defaults(func=_cmd_is_closed)

    p = sub.add_parser("is-normal", parents=[common], help="decide normality")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("-i", "--ideal", help="generator list, e.g. '4,0,0;0,5,0;0,0,7'")
    g.add_argument(
        "--alpha",
        help="pure-power exponents; decides the closure of (x_1^a1, ..., x_n^an)",
    )
    p.add_argument(
        "--direct",
        action="store_true",
        help="with --alpha: skip shortcut criteria, always run the first n-1 powers",
    )
    _add_max_gens(p)
    p.set_defaults(func=_cmd_is_normal)

    p = sub.add_parser("quasinormal", parents=[common], help="bounded quasinormality scan")
    p.add_argument("--alpha", required=True, help="pairwise coprime exponents")
    p.add_argument("--bound", type=int, default=10)
    p.set_defaults(func=_cmd_quasinormal)

    p = sub.add_parser(
        "two-exp", help="two-exponent family construction and checks"
    )
    two = p.add_subparsers(dest="subcommand", required=True)

    g = two.add_parser("gens", parents=[common], help="list F_k (or the socle formula vectors)")
    _add_two_exp_params(g)
    g.add_argument("--socle", action="store_true")
    _add_max_gens(g)
    g.set_defaults(func=_cmd_two_exp_gens)

    g = two.add_parser("verify", parents=[common], help="machine-check the family's five identities")
    _add_two_exp_params(g)
    _add_max_gens(g)
    g.set_defaults(func=_cmd_two_exp_verify)

    p = sub.add_parser(
        "repro", parents=[common], help="run the bundled verification corpus"
    )
    p.set_defaults(func=_cmd_repro)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Building costs far more than parsing, and parsing leaves the parser
    # unchanged, so one per process serves every invocation.
    return build_parser()


def run_command(argv=None):
    """Parse and execute an invocation; returns (exit code, report or None).

    Nothing is printed on success paths; ``main`` does the rendering.  Usage
    errors print through argparse and return code 2; any other exception is
    a bug, printed with its traceback, and returns code 70.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), None

    inputs = {}
    skip = {"func", "command", "subcommand", "json"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is not None:
            inputs[key] = value
    subcommand = getattr(args, "subcommand", None)
    name = args.command if subcommand is None else f"{args.command} {subcommand}"
    run = _Run(name, inputs)
    run.as_json = bool(getattr(args, "json", False))
    try:
        code = args.func(args, run)
    except (ValueError, GeneratorBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR, None
    return code, run


def main(argv=None) -> int:
    code, run = run_command(argv)
    if run is not None:
        try:
            run.emit()
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone, so nothing more can be shown.  Point
            # stdout at devnull so the flush at exit cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
