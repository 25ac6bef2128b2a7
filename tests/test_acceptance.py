"""End-to-end acceptance checks.

Each test prints one pass/fail summary line (kept visible under pytest's
capture) and enforces its runtime budget where one applies.  Numbers here
are binding: exact witnesses, exhaustive grids, oracle equivalence.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from monoclose.cli import run_command
from monoclose.ideals import MonomialIdeal, power
from monoclose.newton import (
    closure,
    dependence_witness,
    np_member,
    validate_certificate,
)
from monoclose.normality import (
    COUNTEREXAMPLE_FOUND,
    NORMAL,
    QUASINORMAL_UP_TO_BOUND,
    is_integrally_closed,
    pure_power_normality,
    quasinormality_check,
)
from monoclose.two_exponent import (
    TwoExponentSpec,
    check_lambda_inequality,
    generators_F,
    ideal_I,
    ideal_J,
    lambda_ceil,
)
from test_normality import socle_criterion_check


def announce(capsys, number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {status} ({detail}; {elapsed:.1f}s)")


def diag_ideal(alpha):
    n = len(alpha)
    return MonomialIdeal(
        n, tuple(tuple(a if i == j else 0 for j in range(n)) for i, a in enumerate(alpha))
    )


def test_criterion_1_counterexample(capsys):
    t0 = time.monotonic()
    failures = []

    code, run = run_command(["is-normal", "--alpha", "4,5,7"])
    report = run.report()
    if code != 1:
        failures.append(f"exit code {code}")
    if report["verdict"] != "not_normal":
        failures.append(f"verdict {report['verdict']}")
    wit = report["witnesses"][0] if report["witnesses"] else {}
    if wit.get("power") != 2 or wit.get("vector") != [2, 4, 5]:
        failures.append(f"witness {wit}")

    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    C = closure(I)
    if (0, 3, 3) not in C.generators:
        failures.append("(0,3,3) missing from closure generators")
    dep = dependence_witness(I, (0, 3, 3))
    if dep.power != 5:
        failures.append(f"dependence power {dep.power}")
    picked = sorted(I.generators[j] for j in dep.factors)
    if picked != [(0, 0, 7), (0, 0, 7), (0, 5, 0), (0, 5, 0), (0, 5, 0)]:
        failures.append(f"dependence factors {picked}")
    if dep.slack != (0, 0, 1):
        failures.append(f"dependence slack {dep.slack}")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10
    announce(capsys, 1, ok, f"witness (2,4,5) at power 2, dependence k=5", elapsed)
    assert not failures, failures
    assert elapsed < 10


def test_criterion_2_two_exponent_grid(capsys):
    t0 = time.monotonic()
    failures = []
    checked = 0
    for s in range(1, 7):
        for l in range(s + 1, 8):
            for n in (2, 3, 4):
                for count_l in range(n + 1):
                    alpha = (s,) * (n - count_l) + (l,) * count_l
                    report = pure_power_normality(alpha, use_shortcuts=False)
                    checked += 1
                    if report.verdict != NORMAL:
                        failures.append(alpha)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 900
    announce(capsys, 2, ok, f"{checked} patterns, all normal via direct route", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 900


def test_criterion_3_triple_identity(capsys):
    t0 = time.monotonic()
    failures = []
    checked = 0
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for s, l in ((2, 3), (2, 7), (3, 5)):
            base = ideal_J(TwoExponentSpec(m, n, s, l, 1))
            for k in (1, 2, 3):
                spec = TwoExponentSpec(m, n, s, l, k)
                J_k = ideal_J(spec)
                lhs = power(base, k)
                rhs = closure(ideal_I(spec))
                checked += 1
                if not (lhs.generators == J_k.generators == rhs.generators):
                    failures.append((m, n, s, l, k))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    announce(capsys, 3, ok, f"{checked} specs, power = family = closure", elapsed)
    assert not failures, failures
    assert elapsed < 300


def test_criterion_4_figure(capsys):
    t0 = time.monotonic()
    failures = []

    fig = TwoExponentSpec(1, 1, 2, 7, 3)
    expected = {(6, 0), (5, 4), (4, 7), (3, 11), (2, 14), (1, 18), (0, 21)}
    F3 = generators_F(fig)
    if set(F3) != expected:
        failures.append(f"F_3 = {F3}")
    I3 = ideal_I(fig)
    if set(I3.generators) != {(6, 0), (0, 21)}:
        failures.append(f"I_3 = {I3.generators}")
    if closure(I3).generators != tuple(F3):
        failures.append("F_3 does not minimally generate the closure")
    wide = ideal_I(TwoExponentSpec(2, 1, 2, 7, 3))
    if set(wide.generators) != {(6, 0, 0), (0, 6, 0), (0, 0, 21)}:
        failures.append(f"m=2 block form {wide.generators}")

    elapsed = time.monotonic() - t0
    ok = not failures
    announce(capsys, 4, ok, "F_3 staircase and closure match exactly", elapsed)
    assert not failures, failures


def test_criterion_5_lambda_inequality(capsys):
    t0 = time.monotonic()
    failures = []
    evaluated = 0
    for s in range(1, 7):
        for l in range(s, 13):
            for k in range(1, 5):
                try:
                    evaluated += len(check_lambda_inequality(s, l, k))
                except AssertionError as exc:
                    failures.append(str(exc))
            # shift with both endpoints r = 0 and r = s
            for k in range(1, 5):
                for r in range(s + 1):
                    if lambda_ceil(k * s + r, s, l) != k * l + lambda_ceil(r, s, l):
                        failures.append(f"shift s={s} l={l} k={k} r={r}")
            for a in range(25):
                for b in range(25):
                    if lambda_ceil(a + b, s, l) > lambda_ceil(a, s, l) + lambda_ceil(b, s, l):
                        failures.append(f"subadditivity s={s} l={l} a={a} b={b}")
    elapsed = time.monotonic() - t0
    ok = not failures
    announce(capsys, 5, ok, f"{evaluated} inequality rows, shift and subadditivity", elapsed)
    assert not failures, failures[:5]


def _solve_square(rows, rhs):
    """Solve the square integer system exactly; None when it is singular.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): each step
    scales a row by the pivot and divides exactly by the previous pivot, so
    every entry stays an int and the last pivot is the determinant d up to
    sign.  By Cramer's rule d * x is integral, so back-substitution finds
    it with exact int divisions too.
    """
    m = len(rows)
    M = [list(rows[i]) + [rhs[i]] for i in range(m)]
    prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        p = M[col][col]
        for r in range(col + 1, m):
            f = M[r][col]
            M[r] = [(p * a - f * b) // prev for a, b in zip(M[r], M[col])]
        prev = p
    dx = [0] * m
    for r in range(m - 1, -1, -1):
        s = prev * M[r][m] - sum(M[r][j] * dx[j] for j in range(r + 1, m))
        dx[r] = s // M[r][r]
    return [Fraction(y, prev) for y in dx]


def rational_feasible(gens, v):
    """Exact test for a convex generator combination below v.

    Enumerates every candidate basis of the standard-form system
    (mu >= 0, slacks >= 0, sum mu = 1, A mu + s = v); the polytope is
    pointed, so it is nonempty exactly when some basis solves to a
    nonnegative point.  Complete, independent of the simplex code.
    """
    c, n = len(gens), len(v)
    cols = [[*g, 1] for g in gens]
    cols += [[int(r == i) for r in range(n)] + [0] for i in range(n)]
    rhs = [*v, 1]
    for basis in itertools.combinations(range(c + n), n + 1):
        rows = [[cols[j][r] for j in basis] for r in range(n + 1)]
        sol = _solve_square(rows, rhs)
        if sol is not None and all(x >= 0 for x in sol):
            return True
    return False


def power_membership(gens, v, k):
    """Whether k generators (with repetition) can sum below k*v."""
    dim = len(v)
    c = len(gens)
    min_unit = [[0] * dim for _ in range(c)] + [[None] * dim]
    for j in range(c - 1, -1, -1):
        for i in range(dim):
            below = min_unit[j + 1][i]
            g = gens[j][i]
            min_unit[j][i] = g if below is None else min(g, below)

    def rec(j, remaining, budget):
        if remaining == 0:
            return True
        if j == c:
            return False
        for i in range(dim):
            if min_unit[j][i] * remaining > budget[i]:
                return False
        g = gens[j]
        cap = remaining
        for i in range(dim):
            if g[i]:
                q = budget[i] // g[i]
                if q < cap:
                    cap = q
        for cnt in range(cap, -1, -1):
            if rec(j + 1, remaining - cnt, [b - cnt * x for b, x in zip(budget, g)]):
                return True
        return False

    return rec(0, k, [k * x for x in v])


def test_criterion_6_oracle_equivalence(capsys):
    t0 = time.monotonic()
    failures = []
    rng = random.Random(20260815)
    inside = outside = 0
    for trial in range(1000):
        n = rng.randint(1, 4)
        count = rng.randint(1, 6)
        gens = []
        for _ in range(count):
            while True:
                g = tuple(rng.randint(0, 10) for _ in range(n))
                if any(g):
                    break
            gens.append(g)
        I = MonomialIdeal(n, tuple(gens))
        box = [max(g[i] for g in I.generators) for i in range(n)]
        v = tuple(rng.randint(0, b) for b in box)

        verdict = np_member(I, v)
        if not validate_certificate(I, v, verdict):
            failures.append(("certificate", I.generators, v))
            continue

        feasible = rational_feasible(I.generators, v)
        if feasible != verdict.is_inside:
            failures.append(("feasibility", I.generators, v))
            continue

        if verdict.is_inside:
            inside += 1
            bound = lcm(*(w.denominator for _, w in verdict.inside_weights))
            hit = next(
                (k for k in range(1, bound + 1) if power_membership(I.generators, v, k)),
                None,
            )
            if hit is None:
                failures.append(("no integral witness", I.generators, v, bound))
        else:
            outside += 1
            # the polytope is empty, so no power k can produce a witness;
            # sweeping k to the separator bound must stay empty-handed
            bound = lcm(*(c.denominator for c in verdict.outside_separator))
            probe = [1, 2, 3, bound] if bound > 3 else range(1, bound + 1)
            if any(power_membership(I.generators, v, k) for k in probe):
                failures.append(("unexpected witness", I.generators, v))

    elapsed = time.monotonic() - t0
    ok = not failures
    announce(
        capsys, 6, ok, f"1000 ideals agree ({inside} inside, {outside} outside)", elapsed
    )
    assert not failures, failures[:3]


def _criterion_corpus():
    seen = set()
    out = []

    def push(I):
        key = (I.dim, I.generators)
        if key not in seen:
            seen.add(key)
            out.append(I)

    I457 = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    J457 = closure(I457)
    push(I457)
    push(J457)
    push(power(J457, 2))
    for s in range(1, 7):
        for l in range(s + 1, 8):
            for n in (2, 3, 4):
                for count_l in range(n + 1):
                    D = diag_ideal((s,) * (n - count_l) + (l,) * count_l)
                    push(D)
                    push(closure(D))
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for s, l in ((2, 3), (2, 7), (3, 5)):
            for k in (1, 2, 3):
                spec = TwoExponentSpec(m, n, s, l, k)
                push(ideal_I(spec))
                push(ideal_J(spec))
    fig = TwoExponentSpec(1, 1, 2, 7, 3)
    push(ideal_I(fig))
    push(ideal_J(fig))
    return out


def test_criterion_7_route_agreement(capsys):
    t0 = time.monotonic()
    failures = []
    corpus = _criterion_corpus()
    for I in corpus:
        socle = socle_criterion_check(I)
        direct = is_integrally_closed(I)[0]
        if socle != direct:
            failures.append((I.dim, I.generators[:4], socle, direct))
    elapsed = time.monotonic() - t0
    ok = not failures
    announce(capsys, 7, ok, f"{len(corpus)} m-primary ideals, both routes agree", elapsed)
    assert not failures, failures[:3]


def test_criterion_8_shortcut_soundness(capsys):
    t0 = time.monotonic()
    failures = []
    gcd_hits = shift_hits = 0
    for alpha in itertools.combinations_with_replacement(range(1, 10), 3):
        direct = pure_power_normality(alpha, use_shortcuts=False)
        if gcd(*alpha) > 1:
            gcd_hits += 1
            if direct.verdict != NORMAL:
                failures.append(("gcd", alpha))
        c = lcm(alpha[0], alpha[1])
        if alpha[2] >= 2 * c:
            shift_hits += 1
            beta = (alpha[0], alpha[1], c + alpha[2] % c)
            reduced = pure_power_normality(beta, use_shortcuts=False)
            if reduced.verdict != direct.verdict:
                failures.append(("lcm_shift", alpha, beta))
        chained = pure_power_normality(alpha)
        if chained.verdict != direct.verdict:
            failures.append(("chain", alpha))

    big = pure_power_normality((2, 3, 13), use_shortcuts=False)
    rep = pure_power_normality((2, 3, 7), use_shortcuts=False)
    if big.verdict != rep.verdict:
        failures.append(("named pair", big.verdict, rep.verdict))

    elapsed = time.monotonic() - t0
    ok = not failures
    announce(
        capsys,
        8,
        ok,
        f"165 exponent triples ({gcd_hits} gcd, {shift_hits} shift reductions)",
        elapsed,
    )
    assert not failures, failures[:5]


def test_criterion_9_quasinormality(capsys):
    t0 = time.monotonic()
    failures = []

    found = quasinormality_check((4, 5, 7), 20)
    if found.verdict != COUNTEREXAMPLE_FOUND or found.witness is None:
        failures.append(f"(4,5,7) gave {found.verdict}")
    clean = quasinormality_check((2, 3), 10)
    if clean.verdict != QUASINORMAL_UP_TO_BOUND or clean.witness is not None:
        failures.append(f"(2,3) gave {clean.verdict}")

    elapsed = time.monotonic() - t0
    ok = not failures
    if found.witness:
        x, parts = found.witness
        witness = f"{x} in {parts} parts"
    else:
        witness = "-"
    announce(capsys, 9, ok, f"witness {witness}, (2,3) clean at bound 10", elapsed)
    assert not failures, failures


def test_criterion_10_theorem_at_five_variables(capsys):
    # the paper's theorem at n = 5: every alpha with entries in {s, l} is
    # normal, decided by scanning J^1..J^4
    t0 = time.monotonic()
    failures = []
    checked = 0
    for s in range(1, 6):
        for l in range(s + 1, 6):
            for count_l in range(6):
                alpha = (s,) * (5 - count_l) + (l,) * count_l
                report = pure_power_normality(alpha, use_shortcuts=False)
                checked += 1
                if report.verdict != NORMAL or len(report.checked_powers) != 4:
                    failures.append(alpha)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60
    announce(capsys, 10, ok, f"{checked} patterns at n = 5, all normal via direct route", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 60


def test_criterion_11_theorem_at_six_variables(capsys):
    # the paper's theorem at n = 6: every alpha with both entries s < l <= 5
    # is normal, decided by the direct route's walk over J^2..J^5
    t0 = time.monotonic()
    failures = []
    checked = 0
    for s in range(1, 6):
        for l in range(s + 1, 6):
            for count_l in range(1, 6):
                alpha = (s,) * (6 - count_l) + (l,) * count_l
                report = pure_power_normality(alpha, use_shortcuts=False)
                checked += 1
                if report.verdict != NORMAL or len(report.checked_powers) != 5:
                    failures.append(alpha)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60
    announce(capsys, 11, ok, f"{checked} patterns at n = 6, all normal via direct route", elapsed)
    assert not failures, failures[:5]
    assert checked == 50
    assert elapsed < 60


def test_criterion_12_shortcut_soundness_at_four_variables(capsys):
    # every sorted 4-tuple with entries up to 12: the shortcut route, the
    # lcm-shift representative and the reversed tuple (the direct route's
    # walk differs most on descending tuples) all reach the direct verdict
    t0 = time.monotonic()
    failures = []
    counts = Counter()
    for alpha in itertools.combinations_with_replacement(range(1, 13), 4):
        direct = pure_power_normality(alpha, use_shortcuts=False)
        short = pure_power_normality(alpha)
        counts.update(short.shortcuts)
        if short.verdict != direct.verdict:
            failures.append(("shortcut", alpha))
        if short.representative is not None:
            rep = pure_power_normality(short.representative, use_shortcuts=False)
            if rep.verdict != direct.verdict:
                failures.append(("lcm_shift", alpha))
        if pure_power_normality(alpha[::-1], use_shortcuts=False).verdict != direct.verdict:
            failures.append(("permutation", alpha))
        if direct.verdict != NORMAL:
            counts["not_normal"] += 1
            counts[f"fails_at_{direct.failing_power}"] += 1
        elif short.shortcuts[-1] == "none":
            counts["normal_by_direct_route"] += 1
    elapsed = time.monotonic() - t0
    ok = not failures
    announce(
        capsys,
        12,
        ok,
        f"1365 exponent 4-tuples ({counts['not_normal']} not normal, "
        f"{counts['lcm_shift']} shift reductions)",
        elapsed,
    )
    assert not failures, failures[:5]
    assert counts["not_normal"] == counts["fails_at_2"] == 289
    settled = {k: counts[k] for k in ("two_exponent", "divisibility_chain", "gcd")}
    assert settled == {"two_exponent": 210, "divisibility_chain": 30, "gcd": 16}
    assert counts["lcm_shift"] == 43
    assert counts["normal_by_direct_route"] == 820
