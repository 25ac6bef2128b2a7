"""The three seeded workloads: inputs, the task each input drives, and checks.

Every workload is a fixed list of tasks generated from the seed.  A task is
one library or CLI call; the program sees only the generated inputs.  Each
workload provides

* ``inputs(rng)``: the task list, a list of plain tuples;
* ``run(spec)``: the task itself, the only part that is timed;
* ``canonical(spec, out)``: a JSON-able form of the answer, hashed into the
  workload digest so that answers must stay byte-identical;
* ``gate(spec, out)``: an independent correctness check, run outside the
  timed region; it returns a failure message or None.

Library functions are looked up as module attributes at call time, so the
tracer's wrappers see every call the benchmark makes.

Sizes are drawn inside fixed strata (ranges of a proxy for a task's cost)
and spread evenly over each stratum, so different seeds give different
inputs with nearly the same spread of costs, and no task takes more than a
few hundred milliseconds on the pure-Python backend.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from typing import Callable, NamedTuple

from monoclose import cli, ideals, newton, normality


class Workload(NamedTuple):
    inputs: Callable
    run: Callable
    canonical: Callable
    gate: Callable


def _diag(alpha):
    n = len(alpha)
    return ideals.MonomialIdeal(n, tuple(
        tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(alpha)))


def _spread(rng, candidates, key, count):
    """`count` candidates, one drawn from each of `count` equal slices of the
    candidates sorted by `key` (a cost proxy).  Every seed then gets a
    different task list with nearly the same spread of costs."""
    ranked = sorted(candidates, key=key)
    return [ranked[int((i + rng.random()) * len(ranked) / count)] for i in range(count)]


def _closure_gate(I, gens):
    """Every closure generator is inside NP(I) and every g - e_i is outside,
    both with certificates that validate.

    An outside certificate is a separating functional, so one found for an
    earlier point is tried first and the LP runs only when none of them
    validates for the new point.
    """
    seps = []
    for g in gens:
        v = newton.np_member(I, g)
        if not v.is_inside or not newton.validate_certificate(I, g, v):
            return f"closure generator {g} not certified inside"
        for i, c in enumerate(g):
            if not c:
                continue
            h = tuple(x - (j == i) for j, x in enumerate(g))
            if any(newton.validate_certificate(I, h, w) for w in seps):
                continue
            w = newton.np_member(I, h)
            if w.is_inside or not newton.validate_certificate(I, h, w):
                return f"closure generator {g} not minimal at {h}"
            seps.insert(0, w)
    return None


# -- scan, first half: the paper's direct normality route on pure powers ----

# (variables, lowest and highest product of the exponents, largest entry,
#  two-exponent pattern?, count).  The product sets the box scanned at each
# power.  Two-exponent patterns are the shapes of the paper's criterion 2
# and are always normal.
_DIRECT_STRATA = (
    (3, 80, 250, 13, False, 27),
    (4, 20, 50, 7, False, 14),
    (3, 80, 250, 13, True, 6),
    (4, 20, 50, 7, True, 3),
)


def _direct_inputs(rng):
    specs = []
    for n, lo, hi, top, two_exp, count in _DIRECT_STRATA:
        tuples = itertools.product(range(2, top + 1), repeat=n)
        candidates = [a for a in tuples if lo <= math.prod(a) <= hi
                      and (len(set(a)) == 2) == two_exp]
        specs += _spread(rng, candidates, math.prod, count)
    return specs


def _direct_run(alpha):
    return normality.pure_power_normality(alpha, use_shortcuts=False)


def _direct_canonical(alpha, report):
    return [alpha, report.verdict, report.checked_powers,
            report.failing_witness, report.shortcuts, report.representative]


def _direct_gate(alpha, report):
    if len(set(alpha)) <= 2 and report.verdict != normality.NORMAL:
        return f"two-exponent pattern {alpha} reported {report.verdict}"
    if report.verdict == normality.NOT_NORMAL:
        k, w = report.failing_power, report.failing_witness
        if not newton.pure_power_member(tuple(k * a for a in alpha), w):
            return f"{alpha}: witness {w} outside {k}*NP"
        J = newton.closure(_diag(alpha))
        if ideals.contains_monomial(ideals.power(J, k), w):
            return f"{alpha}: witness {w} lies in the power {k}"
    elif report.verdict != normality.NORMAL:
        return f"{alpha}: unknown verdict {report.verdict}"
    shortcut = normality.pure_power_normality(alpha)
    if shortcut.shortcuts != ("none",) and shortcut.verdict != report.verdict:
        return (f"{alpha}: shortcuts {shortcut.shortcuts} say "
                f"{shortcut.verdict}, direct route says {report.verdict}")
    return None


# -- scan, second half: CLI closure of pure powers, then a power of it ------

# (variables, lowest and highest exponent, power k, count): the 2-variable
# ideals are (x^a, y^(a+1)), whose closure has a+1 generators.
_STAIR_STRATA = (
    (2, 16, 32, 3, 10),
    (2, 32, 64, 2, 20),
    (3, 4, 6, 3, 10),
    (3, 5, 8, 2, 10),
)


def _stair_inputs(rng):
    specs = []
    for n, lo, hi, k, count in _STAIR_STRATA:
        if n == 2:
            for a in _spread(rng, range(lo, hi + 1), int, count):
                specs.append((f"{a},0;0,{a + 1}", k))
        else:
            exps = itertools.product(range(lo, hi + 1), repeat=3)
            for a, b, c in _spread(rng, exps, math.prod, count):
                specs.append((f"{a},0,0;0,{b},0;0,0,{c}", k))
    return specs


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _stair_run(spec):
    ideal, k = spec
    code, text = _cli_json(["closure", "-i", ideal, "--json"])
    gens = json.loads(text)["verdict"]["generators"]
    closed = ";".join(",".join(map(str, g)) for g in gens)
    code2, text2 = _cli_json(["power", "-i", closed, "-k", str(k), "--json"])
    return (code, text), (code2, text2)


def _report_without_timing(text):
    report = json.loads(text)
    report.pop("timing_ms")
    return report


def _stair_canonical(spec, out):
    return [[code, _report_without_timing(text)] for code, text in out]


def _stair_gate(spec, out):
    (code, text), (code2, text2) = out
    if code or code2:
        return f"{spec}: exit codes {code}, {code2}"
    I = cli.parse_ideal(spec[0])
    gens = [tuple(g) for g in json.loads(text)["verdict"]["generators"]]
    return _closure_gate(I, gens)


# -- scan: both halves in one shuffled task list -----------------------------

_SCAN_PARTS = {
    "direct": Workload(_direct_inputs, _direct_run, _direct_canonical, _direct_gate),
    "staircase": Workload(_stair_inputs, _stair_run, _stair_canonical, _stair_gate),
}


def _scan_inputs(rng):
    specs = [(kind, spec) for kind, part in _SCAN_PARTS.items() for spec in part.inputs(rng)]
    rng.shuffle(specs)
    return specs


def _scan_run(spec):
    return _SCAN_PARTS[spec[0]].run(spec[1])


def _scan_canonical(spec, out):
    return [spec[0], _SCAN_PARTS[spec[0]].canonical(spec[1], out)]


def _scan_gate(spec, out):
    return _SCAN_PARTS[spec[0]].gate(spec[1], out)


# -- lp_closure: closures that need the exact LP ----------------------------

# (variables, largest coordinate, random generators drawn, most minimal
#  generators, lowest and highest volume of the generators' bounding box,
#  count).  The box volume bounds the points scanned and the generator count
#  sizes each LP; four times `count` ideals are drawn and spread by the
#  product of the two.  The ideals are small (a few milliseconds each) and
#  many, which keeps the LP calls per pass within about 2% across seeds and
#  leaves time for many passes.  Ideals in 5 variables are left out: their cost
#  varies too much for these proxies to predict.
_LP_STRATA = ((4, 4, 7, 5, 100, 400, 300),)


def _lp_inputs(rng):
    specs = []
    for n, top, draws, most, lo, hi, count in _LP_STRATA:
        candidates = []
        while len(candidates) < 4 * count:
            vecs = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(draws)]
            # A generator on one axis could make NP(I) a halfspace, which
            # the closed form answers without the LP.
            if any(sum(1 for c in v if c) <= 1 for v in vecs):
                continue
            gens = ideals.minimalize(vecs, n).generators
            volume = math.prod(max(g[i] for g in gens) + 1 for i in range(n))
            if len(gens) <= most and lo <= volume <= hi:
                candidates.append((volume * len(gens), gens))
        specs += [gens for _, gens in _spread(rng, candidates, lambda c: c[0], count)]
    rng.shuffle(specs)
    return specs


def _lp_run(gens):
    return newton.closure(ideals.MonomialIdeal(len(gens[0]), gens))


def _lp_canonical(gens, out):
    return [gens, out.generators]


def _lp_gate(gens, out):
    return _closure_gate(ideals.MonomialIdeal(len(gens[0]), gens), out.generators)


# -- certify: single cold membership queries with certificates --------------

# Every (variables, generators drawn, kind of point) cell gets the same
# number of queries, so the mix is the same for every seed.
_CERTIFY_PER_CELL = 63


def _certify_inputs(rng):
    specs = []
    for n, m, combination in itertools.product(range(2, 6), range(2, 6), (False, True)):
        count = _CERTIFY_PER_CELL
        while count:
            gens = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(m)]
            I = ideals.minimalize(gens, n)
            if I.is_zero or I.is_unit:
                continue
            G = I.generators
            if combination:
                picks = rng.sample(G, min(len(G), rng.randint(2, 3)))
                ws = [rng.randint(1, 9) for _ in picks]
                v = tuple(-(-sum(w * g[i] for w, g in zip(ws, picks)) // sum(ws))
                          for i in range(n))
            else:
                v = tuple(rng.randint(0, max(g[i] for g in G)) for i in range(n))
            specs.append((G, v))
            count -= 1
    rng.shuffle(specs)
    return specs


def _certify_run(spec):
    gens, v = spec
    I = ideals.MonomialIdeal(len(v), gens)
    verdict = newton.np_member(I, v)
    valid = newton.validate_certificate(I, v, verdict)
    witness = newton.dependence_witness(I, v) if verdict.is_inside else None
    return verdict, valid, witness


def _certify_canonical(spec, out):
    verdict, valid, witness = out
    return [spec, verdict.decision,
            [[j, str(w)] for j, w in verdict.inside_weights or ()],
            [str(c) for c in verdict.outside_separator or ()], valid,
            None if witness is None else
            [witness.power, witness.factors, witness.slack]]


def _certify_gate(spec, out):
    gens, v = spec
    verdict, valid, witness = out
    if not valid:
        return f"{spec}: certificate does not validate"
    if verdict.is_inside:
        total = [0] * len(v)
        for j in witness.factors:
            total = [t + x for t, x in zip(total, gens[j])]
        if len(witness.factors) != witness.power or any(
                t + s != witness.power * x or s < 0
                for t, s, x in zip(total, witness.slack, v)):
            return f"{spec}: witness {witness} is not a dependence equation"
    return None


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "scan": Workload(_scan_inputs, _scan_run, _scan_canonical, _scan_gate),
    "lp_closure": Workload(_lp_inputs, _lp_run, _lp_canonical, _lp_gate),
    "certify": Workload(_certify_inputs, _certify_run, _certify_canonical, _certify_gate),
}
