"""Acceptance sweep: one test per criterion, each at its stated bounds.

Every check is exact (symbolic equality, no tolerances).  Each test prints a
single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to
see them as they complete.
"""
import json
import math
import random

from akchar.cli import main
from akchar.rings import (
    CycloElem,
    MultiPoly,
    cyclotomic_degree,
    cyclotomic_polynomial,
    expand_at_q1,
    specialize_to_group,
)
from akchar.verify import run_suite


def _report(number, name, cases, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {number:>2} {status}: {name} ({cases} cases, "
          f"{len(failures)} failures)")
    assert not failures, failures[:3]


def test_criterion_01_oracle_equivalence():
    result = run_suite("oracle")
    _report(1, "closed form equals brute-force trace "
               "(m<=3, entries<=2, dim 1..4, n<=4)", result.cases, result.failures)


def test_criterion_02_presentations():
    ak = run_suite("ak-relations")
    shoji = run_suite("shoji-relations")
    _report(2, "generator presentations hold on every basis word "
               "(n<=3, m<=3, dim<=3)", ak.cases + shoji.cases,
            ak.failures + shoji.failures)


def test_criterion_03_group_specialization():
    result = run_suite("specialization")
    _report(3, "specialized oracle equals group formula (m<=4, n<=4)",
            result.cases, result.failures)


def test_criterion_04_closed_forms_and_coef():
    slices = run_suite("theta-closed-forms")
    coefs = run_suite("coef")
    _report(4, "single-hook slice closed forms and coefficient expansions "
               "(i<=3, a<=8)", slices.cases + coefs.cases,
            slices.failures + coefs.failures)


def test_criterion_05_hook_sum_mod_t2():
    result = run_suite("hook-sum")
    _report(5, "hook-sum identity mod t^2 plus exact single-row values "
               "(m<=3, n<=4)", result.cases, result.failures)


def test_criterion_06_wreath_values():
    result = run_suite("wreath")
    _report(6, "wreath hook values at the group specialization (m<=3, n<=5)",
            result.cases, result.failures)


def test_criterion_07_tableau_combinatorics():
    result = run_suite("dimension-identity")
    _report(7, "hook support, power-of-two counts, dimension identity "
               "(n<=5)", result.cases, result.failures)


def test_criterion_08_ring_suite():
    failures = []
    cases = 0

    # cyclotomic polynomials divide x^m - 1 with the right degree
    for m in range(1, 25):
        cases += 1
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        euler = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        if prod != [-1] + [0] * (m - 1) + [1] or cyclotomic_degree(m) != euler:
            failures.append({"check": "cyclotomic", "m": m})

    # root-of-unity sums vanish
    for m in range(2, 13):
        for t in range(1, m):
            cases += 1
            total = CycloElem.from_int(m, 0)
            for i in range(1, m + 1):
                total = total + CycloElem.x_power(m, t * (i - 1))
            if not total.is_zero():
                failures.append({"check": "root-sum", "m": m, "t": t})

    # homomorphism laws on seeded random small polynomials
    rng = random.Random(74300211)

    def random_poly(m):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            key = (rng.randint(-3, 3),) + tuple(
                rng.randint(0, 3) for _ in range(m)
            )
            terms[key] = rng.randint(-9, 9)
        return MultiPoly(m, {k: v for k, v in terms.items() if v})

    for _ in range(200):
        m = rng.randint(1, 4)
        p, r = random_poly(m), random_poly(m)
        cases += 1
        lhs = specialize_to_group(p * r, m)
        rhs = specialize_to_group(p, m) * specialize_to_group(r, m)
        if lhs != rhs or specialize_to_group(p + r, m) != (
            specialize_to_group(p, m) + specialize_to_group(r, m)
        ):
            failures.append({"check": "group-map", "p": p.to_text(), "r": r.to_text()})
        order = rng.randint(1, 3)
        if expand_at_q1(p * r, order) != expand_at_q1(p, order) * expand_at_q1(
            r, order
        ) or expand_at_q1(p + r, order) != expand_at_q1(p, order) + expand_at_q1(
            r, order
        ):
            failures.append({"check": "q1-map", "p": p.to_text(), "r": r.to_text()})

    _report(8, "ring suite: cyclotomic facts, vanishing root sums, "
               "specialization homomorphism laws", cases, failures)


def test_criterion_09_two_component_case(capsys):
    hook = run_suite("hook-sum", m_only=2)
    wreath = run_suite("wreath", m_only=2)
    failures = list(hook.failures) + list(wreath.failures)
    cases = hook.cases + wreath.cases

    code = main(["compare-pair-regev", "--max-n", "4"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    expected_rows = 2 + 5 + 10 + 20  # pairs of partitions of 1..4
    cases += 1
    if code != 0 or len(doc["rows"]) != expected_rows:
        failures.append({"check": "compare-report", "exit": code,
                         "rows": len(doc["rows"])})
    with capsys.disabled():
        _report(9, "two-component case: hook sum and wreath checks at m=2 "
                   "plus the literal-comparison report", cases, failures)


def test_criterion_10_cli_determinism(capsys):
    commands = [
        ["chars", "--k", "1,1", "--l", "1,1", "--n", "2"],
        ["chars", "--k", "1", "--l", "1", "--n", "3", "--format", "csv"],
        ["chars", "--k", "1,1", "--l", "1,1", "--n", "1", "--spec", "group"],
        ["hooks", "--k", "1,1", "--l", "1,1", "--n", "2"],
        ["verify", "--suite", "coef", "--max-n", "5"],
        ["compare-pair-regev", "--max-n", "3"],
    ]
    failures = []
    for command in commands:
        outputs = []
        for jobs in ("1", "8"):
            code = main([*command, "--jobs", jobs])
            captured = capsys.readouterr()
            if code != 0:
                failures.append({"command": command, "jobs": jobs, "exit": code})
            outputs.append(captured.out.encode())
        if outputs[0] != outputs[1]:
            failures.append({"command": command, "check": "jobs-differ"})
    with capsys.disabled():
        _report(10, "byte-identical CLI output across --jobs 1 and --jobs 8",
                len(commands), failures)
