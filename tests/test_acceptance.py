"""Acceptance gate.

One test per numbered criterion; the terminal summary prints one PASS or
FAIL line for each. Criteria 1, 2 and 4 compare against reference tables
whose figures are partly inconsistent with the stated construction rules
applied to the very same input data, so those tests assert the reference
figures as given and are marked as strict expected failures: the FAIL is
the honest outcome, and an unexpected pass would flag a behavior change.
"""

import json
import time
from fractions import Fraction

import pytest

from pnsoft import (
    DegenerateRowError,
    PnsSet,
    and_product,
    complement,
    decide,
    equals,
    intersection,
    load_pns,
    loads_pns,
    null_set,
    or_product,
    save_pns,
    select_by_similarity,
    similarity,
    to_pns_set,
    union,
    universal_set,
)
from pnsoft.algebra import (
    NeutrosophicTriple,
    ONE,
    ZERO,
    n_conorm,
    n_norm,
    negate_triple,
    tconorm_lukasiewicz,
    tconorm_max,
    tconorm_probsum,
    tnorm_lukasiewicz,
    tnorm_min,
    tnorm_product,
    triple_leq,
)
from pnsoft.cli import main

import random

from _reference import brute_decide, brute_similarity
from conftest import ACCEPTANCE, load_fixture, random_degree, random_set


def _record(name, ok, detail):
    ACCEPTANCE.append(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def _cells(grid):
    out = []
    for r, row in enumerate(grid):
        out.append([(Fraction(t), Fraction(i), Fraction(f), Fraction(m))
                    for t, i, f, m in row])
    return out


def _quad(c):
    return (c.triple.truth, c.triple.indeterminacy, c.triple.falsity, c.mu)


# ---------------------------------------------------------------------------
# criterion 1: set operator reference tables (exact, tolerance 0)

REF_UNION = _cells([
    [("0.6", "0.2", "0.6", "0.8"), ("0.7", "0.3", "0.5", "0.7"), ("0.4", "0.5", "0.4", "0.8")],
    [("0.8", "0.4", "0.3", "0.6"), ("0.5", "0.6", "0.2", "0.8"), ("0.7", "0.2", "0.5", "0.8")],
    # (e3,u1) lists indeterminacy 0.3, but min(0.7, 0.5) over the inputs is 0.5
    [("0.7", "0.3", "0.3", "0.8"), ("0.5", "0.3", "0.6", "0.6"), ("0.8", "0.5", "0.3", "0.6")],
])
REF_INTERSECTION = _cells([
    [("0.5", "0.3", "0.8", "0.4"), ("0.6", "0.5", "0.5", "0.4"), ("0.2", "0.6", "0.8", "0.7")],
    [("0.5", "0.4", "0.5", "0.3"), ("0.4", "0.7", "0.5", "0.6"), ("0.7", "0.3", "0.9", "0.4")],
    # (e3,u2) lists indeterminacy 0.5, but max(0.3, 0.4) over the inputs is 0.4
    [("0.6", "0.7", "0.5", "0.2"), ("0.4", "0.5", "0.7", "0.5"), ("0.6", "0.5", "0.4", "0.5")],
])
REF_COMPLEMENT = _cells([
    [("0.6", "0.8", "0.5", "0.2"), ("0.5", "0.7", "0.7", "0.6"), ("0.8", "0.5", "0.4", "0.3")],
    [("0.5", "0.6", "0.8", "0.4"), ("0.2", "0.3", "0.5", "0.2"), ("0.9", "0.7", "0.7", "0.6")],
    [("0.5", "0.3", "0.6", "0.8"), ("0.7", "0.7", "0.5", "0.4"), ("0.4", "0.5", "0.6", "0.5")],
])

COMPONENTS = ("truth", "indeterminacy", "falsity", "mu")


def _compare_set(tag, got, ref, sink):
    for p, row in zip(got.parameters, got.cells):
        for u, cell in zip(got.universe, row):
            i = got.parameters.index(p)
            j = got.universe.index(u)
            for name, a, b in zip(COMPONENTS, _quad(cell), ref[i][j]):
                if a != b:
                    sink.append(f"{tag} ({p},{u}) {name}: computed "
                                f"{float(a):g}, reference {float(b):g}")


@pytest.mark.xfail(strict=True, reason="one union and one intersection "
                   "indeterminacy entry in the reference tables contradict the "
                   "min/max rules applied to the same input data")
def test_criterion_1_set_operator_tables():
    start = time.perf_counter()
    f = load_fixture("cars_assessment_a.json")
    g = load_fixture("cars_assessment_b.json")
    mismatches = []
    _compare_set("union", union(f, g), REF_UNION, mismatches)
    _compare_set("intersection", intersection(f, g), REF_INTERSECTION, mismatches)
    _compare_set("complement", complement(f), REF_COMPLEMENT, mismatches)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    detail = (f"27 cells per operator, exact comparison, {elapsed:.3f}s"
              if ok else "; ".join(mismatches) + " (expected failure)")
    _record(1, ok, detail)
    assert elapsed < 1.0
    assert not mismatches, mismatches


# ---------------------------------------------------------------------------
# criterion 2: decision pipeline reference figures

REF_PRODUCT = _cells([
    [("0.3", "0.4", "0.7", "0.2"), ("0.6", "0.3", "0.5", "0.2"), ("0.4", "0.6", "0.5", "0.3")],
    [("0.4", "0.6", "0.7", "0.3"), ("0.2", "0.5", "0.5", "0.2"), ("0.4", "0.6", "0.5", "0.4")],
    [("0.2", "0.3", "0.7", "0.6"), ("0.6", "0.4", "0.5", "0.2"), ("0.6", "0.6", "0.5", "0.4")],
    [("0.3", "0.4", "0.6", "0.2"), ("0.7", "0.8", "0.4", "0.5"), ("0.2", "0.5", "0.5", "0.3")],
    [("0.35", "0.6", "0.6", "0.3"), ("0.2", "0.8", "0.3", "0.5"), ("0.2", "0.6", "0.5", "0.6")],
    [("0.2", "0.2", "0.6", "0.4"), ("0.7", "0.8", "0.5", "0.4"), ("0.2", "0.4", "0.5", "0.4")],
    [("0.3", "0.4", "0.5", "0.2"), ("0.4", "0.5", "0.4", "0.3"), ("0.4", "0.5", "0.6", "0.2")],
    [("0.4", "0.6", "0.5", "0.3"), ("0.2", "0.5", "0.3", "0.3"), ("0.4", "0.6", "0.6", "0.2")],
    [("0.2", "0.2", "0.6", "0.5"), ("0.4", "0.5", "0.5", "0.3"), ("0.5", "0.4", "0.6", "0.2")],
])

REF_WEIGHTED_TRUTH = [
    ["0.44", "0.64", "0.58"], ["0.58", "0.36", "0.64"], ["0.68", "0.68", "0.76"],
    ["0.44", "0.85", "0.44"], ["0.55", "0.60", "0.68"], ["0.52", "0.82", "0.48"],
    ["0.44", "0.58", "0.52"], ["0.58", "0.44", "0.52"], ["0.60", "0.58", "0.60"],
]
REF_WEIGHTED_INDET = [
    ["0.08", "0.16", "0.18"], ["0.18", "0.10", "0.24"], ["0.18", "0.08", "0.24"],
    ["0.08", "0.40", "0.15"], ["0.18", "0.40", "0.36"], ["0.08", "0.32", "0.16"],
    ["0.08", "0.15", "0.10"], ["0.18", "0.15", "0.12"], ["0.10", "0.15", "0.08"],
]
REF_WEIGHTED_FALSITY = [
    ["0.14", "0.10", "0.15"], ["0.21", "0.10", "0.20"], ["0.42", "0.10", "0.20"],
    ["0.12", "0.20", "0.15"], ["0.18", "0.15", "0.30"], ["0.24", "0.20", "0.20"],
    ["0.10", "0.12", "0.12"], ["0.15", "0.09", "0.12"], ["0.30", "0.15", "0.12"],
]

REF_TRUTH_SCORES = (Fraction("1.18"), Fraction("2.89"), Fraction("2.68"))
REF_INDET_SCORES = (Fraction("0.18"), Fraction("1.42"), Fraction("0.66"))
REF_FALSITY_SCORES = (Fraction("1.32"), Fraction("0.32"), Fraction("0.57"))
REF_DECISION_SCORES = (Fraction("-0.32"), Fraction("0.90"), Fraction("1.45"))


@pytest.mark.xfail(strict=True, reason="three weighted entries and the u2 "
                   "scores in the reference figures disagree with the stated "
                   "formulas applied to the reference product table; the u2 "
                   "decision score is unreachable even from the reference "
                   "scores themselves (2.89 - 1.42 - 0.32 = 1.15, not 0.90)")
def test_criterion_2_decision_pipeline():
    start = time.perf_counter()
    f = load_fixture("houses_expert_a.json")
    g = load_fixture("houses_expert_b.json")
    report = decide(f, g)
    failures = []

    pairs = [f"e{k}*e{l}" for k in (1, 2, 3) for l in (1, 2, 3)]
    for r, row in enumerate(report.product.cells):
        for c, cell in enumerate(row):
            for name, a, b in zip(COMPONENTS, _quad(cell), REF_PRODUCT[r][c]):
                if a != b:
                    failures.append(
                        f"product ({pairs[r]},u{c + 1}) {name}: "
                        f"computed {float(a):g}, reference {float(b):g}")

    tol = Fraction("0.005")  # reference matrices round to two decimals
    for tag, matrix, ref in (
            ("weighted truth", report.weighted_truth, REF_WEIGHTED_TRUTH),
            ("weighted indeterminacy", report.weighted_indeterminacy, REF_WEIGHTED_INDET),
            ("weighted falsity", report.weighted_falsity, REF_WEIGHTED_FALSITY)):
        for r, row in enumerate(matrix):
            for c, value in enumerate(row):
                if abs(value - Fraction(ref[r][c])) > tol:
                    failures.append(
                        f"{tag} ({pairs[r]},u{c + 1}): computed "
                        f"{float(value):g}, reference {ref[r][c]}")

    score_tol = Fraction("0.01")
    for tag, got, ref in (
            ("truth score", report.truth_scores, REF_TRUTH_SCORES),
            ("indeterminacy score", report.indeterminacy_scores, REF_INDET_SCORES),
            ("falsity score", report.falsity_scores, REF_FALSITY_SCORES),
            ("decision score", report.decision_scores, REF_DECISION_SCORES)):
        for u, a, b in zip(report.universe, got, ref):
            if abs(a - b) > score_tol:
                failures.append(f"{tag} {u}: computed {float(a):g}, "
                                f"reference {float(b):g}")

    if report.winners != ("u3",):
        failures.append(f"winner: computed {report.winners}, reference ('u3',)")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    detail = (f"27 product cells, 81 weighted entries, scores and winner, {elapsed:.3f}s"
              if ok else "; ".join(failures) + " (expected failure)")
    _record(2, ok, detail)
    assert elapsed < 1.0
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 3: similarity components on the first worked pair

def test_criterion_3_similarity_components():
    f = load_fixture("cars_assessment_a.json")
    g = load_fixture("cars_assessment_b.json")
    report = similarity(f, g, p=2)
    oracle = brute_similarity(f, g, p=2)
    failures = []

    for u, got, ref in zip(("e1", "e2", "e3"),
                           report.possibility_components,
                           (Fraction("0.79"), Fraction("0.74"), Fraction("0.75"))):
        if abs(got - ref) > Fraction("0.01"):
            failures.append(f"possibility component {u}: {float(got):g} vs {float(ref):g}")
    if abs(report.possibility_similarity - Fraction("0.76")) > Fraction("0.01"):
        failures.append(f"possibility mean: {float(report.possibility_similarity):g}")

    if abs(report.value_components[1] - 0.86) > 0.01:
        failures.append(f"value component e2: {report.value_components[1]:g}")
    if abs(report.value_components[2] - 0.94) > 0.01:
        failures.append(f"value component e3: {report.value_components[2]:g}")

    # the e1 component and the overall figure answer to the longhand oracle
    if abs(report.value_components[0] - oracle["value_parts"][0]) > 1e-9:
        failures.append("value component e1 drifts from the oracle")
    if abs(report.value_components[0] - 0.875) > 0.001:
        failures.append(f"value component e1: {report.value_components[0]:g} not near 0.875")
    if abs(report.overall - oracle["overall"]) > 1e-9:
        failures.append("overall similarity drifts from the oracle")
    if abs(report.overall - 0.68) > 0.005:
        failures.append(f"overall similarity: {report.overall:g} not near 0.68")

    _record(3, not failures,
            "; ".join(failures) if failures else
            f"possibility (0.789, 0.743, 0.750) mean 0.761; value components "
            f"(0.875, 0.863, 0.936); overall {report.overall:.4f}, all on target")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 4: selection over the candidate corpus

REF_SELECTION_S = {
    "applicant_1": 0.49, "applicant_2": 0.47, "applicant_3": 0.51,
    "applicant_4": 0.54, "applicant_5": 0.57,
}


@pytest.mark.xfail(strict=True, reason="on this data the definitions score "
                   "applicant_4 highest (0.4734 vs 0.4716) and leave every "
                   "candidate below the one half significance line, so the "
                   "reference conclusion (applicant_5 selected, applicants "
                   "3-5 significant) cannot be reproduced")
def test_criterion_4_candidate_selection():
    model = load_fixture("ideal_candidate.json")
    candidates = [(f"applicant_{k}", load_fixture(f"applicants/applicant_{k}.json"))
                  for k in range(1, 6)]
    report = select_by_similarity(model, candidates, p=2, threshold=Fraction(1, 2))

    numeric = []
    for c in report.candidates:
        diff = abs(c.overall - REF_SELECTION_S[c.label])
        flag = "" if diff <= 0.05 else " (outside 0.05)"
        numeric.append(f"{c.label} {c.overall:.4f} vs {REF_SELECTION_S[c.label]}{flag}")

    failures = []
    if report.selected != ("applicant_5",):
        failures.append(f"selected {report.selected}, reference ('applicant_5',)")
    if set(report.significant) != {"applicant_3", "applicant_4", "applicant_5"}:
        failures.append(f"significant {report.significant}, "
                        "reference (applicant_3, applicant_4, applicant_5)")

    ok = not failures
    _record(4, ok, ("; ".join(failures) + "; scores: " + ", ".join(numeric)
                    + " (expected failure)") if failures else ", ".join(numeric))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 5: randomized property suites, fixed seeds, >= 1000 cases each

def _random_triple(rng):
    return NeutrosophicTriple(random_degree(rng), random_degree(rng), random_degree(rng))


def _same_shape(rng, s):
    return random_set(rng, len(s.parameters), len(s.universe))


def _degenerate(a, b):
    return any(
        all(c.mu == 0 for c in ra) and all(c.mu == 0 for c in rb)
        for ra, rb in zip(a.cells, b.cells))


def _suite_triple_order(rng, n):
    for _ in range(n):
        a, r1, r2 = (_random_triple(rng) for _ in range(3))
        assert triple_leq(a, a)
        assert triple_leq(ZERO, a) and triple_leq(a, ONE)
        b = n_conorm(a, r1)
        c = n_conorm(b, r2)
        assert triple_leq(a, b) and triple_leq(b, c) and triple_leq(a, c)
        if triple_leq(a, b) and triple_leq(b, a):
            assert a == b
    return n


def _suite_scalar_axioms(rng, n):
    families = ((tnorm_min, tconorm_max),
                (tnorm_product, tconorm_probsum),
                (tnorm_lukasiewicz, tconorm_lukasiewicz))
    for _ in range(n):
        x, y, z = (random_degree(rng) for _ in range(3))
        for t, s in families:
            assert t(x, Fraction(1)) == x and s(x, Fraction(0)) == x
            assert t(x, y) == t(y, x) and s(x, y) == s(y, x)
            assert t(t(x, y), z) == t(x, t(y, z))
            assert s(s(x, y), z) == s(x, s(y, z))
            lo, hi = min(y, z), max(y, z)
            assert t(x, lo) <= t(x, hi) and s(x, lo) <= s(x, hi)
            assert t(x, y) <= min(x, y) and s(x, y) >= max(x, y)
    return n


def _suite_set_algebra(rng, n):
    for _ in range(n):
        a = random_set(rng)
        b, c = _same_shape(rng, a), _same_shape(rng, a)
        assert equals(union(a, a), a) and equals(intersection(a, a), a)
        assert equals(union(a, b), union(b, a))
        assert equals(intersection(a, b), intersection(b, a))
        assert equals(union(union(a, b), c), union(a, union(b, c)))
        assert equals(intersection(intersection(a, b), c),
                      intersection(a, intersection(b, c)))
        assert equals(intersection(a, union(b, c)),
                      union(intersection(a, b), intersection(a, c)))
        assert equals(union(a, intersection(b, c)),
                      intersection(union(a, b), union(a, c)))
    return n


def _suite_absorption(rng, n):
    for _ in range(n):
        a = random_set(rng)
        bottom = null_set(a.parameters, a.universe)
        top = universal_set(a.parameters, a.universe)
        assert equals(union(a, bottom), a)
        assert equals(intersection(a, top), a)
        assert equals(union(a, top), top)
        assert equals(intersection(a, bottom), bottom)
        assert equals(union(a, intersection(a, _same_shape(rng, a))), a)
        assert equals(intersection(a, union(a, _same_shape(rng, a))), a)
    return n


def _suite_de_morgan(rng, n):
    for _ in range(n):
        a = random_set(rng, 2, 2)
        b = _same_shape(rng, a)
        assert equals(complement(union(a, b)),
                      intersection(complement(a), complement(b)))
        assert equals(complement(intersection(a, b)),
                      union(complement(a), complement(b)))
        assert equals(to_pns_set(or_product(a, b)),
                      complement(to_pns_set(and_product(complement(a), complement(b)))))
        assert equals(to_pns_set(and_product(a, b)),
                      complement(to_pns_set(or_product(complement(a), complement(b)))))
    return n


def _suite_double_complement(rng, n):
    for _ in range(n):
        a = random_set(rng)
        assert equals(complement(complement(a)), a)
    return n


def _suite_similarity_laws(rng, n):
    done = 0
    ps = (1, 2, 3)
    while done < n:
        a = random_set(rng, 2, 2)
        b = _same_shape(rng, a)
        if _degenerate(a, b) or _degenerate(a, a):
            continue
        p = ps[done % 3]
        r1 = similarity(a, b, p=p)
        r2 = similarity(b, a, p=p)
        assert r1.overall == r2.overall
        assert 0 <= r1.overall <= 1
        twin = PnsSet.from_rows(a.parameters, a.universe,
                                [list(row) for row in a.cells])
        assert equals(a, twin)
        assert similarity(a, twin, p=p).overall == 1
        done += 1
    return done


def _suite_decide_oracle(rng, n):
    for _ in range(n):
        a = random_set(rng, 2, 3)
        b = _same_shape(rng, a)
        report = decide(a, b)
        oracle = brute_decide(a, b)
        for j, u in enumerate(report.universe):
            assert report.truth_scores[j] == oracle["st"][u]
            assert report.indeterminacy_scores[j] == oracle["si"][u]
            assert report.falsity_scores[j] == oracle["sf"][u]
            assert report.decision_scores[j] == oracle["ds"][u]
        assert list(report.winners) == oracle["winners"]
    return n


def _suite_similarity_oracle(rng, n):
    done = 0
    ps = (1, 2, 3)
    while done < n:
        a = random_set(rng, 2, 2)
        b = _same_shape(rng, a)
        if _degenerate(a, b):
            continue
        p = ps[done % 3]
        report = similarity(a, b, p=p)
        oracle = brute_similarity(a, b, p=p)
        if p == 1:
            assert report.overall == oracle["overall"]
        else:
            assert abs(report.overall - oracle["overall"]) < 1e-12
        done += 1
    return done


def test_criterion_5_property_suites():
    start = time.perf_counter()
    suites = (
        ("triple order", _suite_triple_order, 11),
        ("scalar norm axioms", _suite_scalar_axioms, 13),
        ("set algebra", _suite_set_algebra, 17),
        ("absorption", _suite_absorption, 19),
        ("de morgan", _suite_de_morgan, 23),
        ("double complement", _suite_double_complement, 29),
        ("similarity laws", _suite_similarity_laws, 31),
        ("decide vs oracle", _suite_decide_oracle, 37),
        ("similarity vs oracle", _suite_similarity_oracle, 41),
    )
    counts = []
    for name, suite, seed in suites:
        counts.append((name, suite(random.Random(seed), 1000)))
    elapsed = time.perf_counter() - start
    ok = all(n >= 1000 for _, n in counts) and elapsed < 60.0
    _record(5, ok, f"{len(counts)} suites x 1000 seeded cases, {elapsed:.1f}s")
    assert ok, (counts, elapsed)


# ---------------------------------------------------------------------------
# criterion 6: round trips and diagnostics

def test_criterion_6_round_trip_and_diagnostics(tmp_path, capsys):
    rng = random.Random(43)
    path = tmp_path / "set.json"
    for k in range(100):
        s = random_set(rng)
        save_pns(s, path)
        assert load_pns(path) == s, f"round trip {k} not identical"

    # JSON emitted by the CLI re-parses against the document schema
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_pns(load_fixture("cars_assessment_a.json"), a)
    save_pns(load_fixture("cars_assessment_b.json"), b)
    for argv in (["union", str(a), str(b), "--format", "json"],
                 ["intersect", str(a), str(b), "--format", "json"],
                 ["complement", str(a), "--format", "json"],
                 ["and-product", str(a), str(b), "--format", "json"]):
        assert main(argv) == 0
        loads_pns(capsys.readouterr().out)
    assert main(["decide", str(a), str(b), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["similarity", str(a), str(b), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)

    # malformed inputs: nonzero exit, diagnostics carry coordinates
    bad = tmp_path / "bad.json"
    bad.write_text('{"parameters": ["e1"], "universe": ["u1"],'
                   ' "cells": [[{"t": 0.5, "i": 0.2, "f": 0.6, "mu": 1.3}]]}')
    assert main(["union", str(a), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "cell (e1, u1)" in err and "mu" in err
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "cell (e1, u1)" in out

    broken = tmp_path / "broken.json"
    broken.write_text('{"parameters": ["e1"]')
    assert main(["validate", str(broken)]) == 1
    assert "line 1" in capsys.readouterr().out
    assert main(["union", str(a), str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err

    badcsv = tmp_path / "bad.csv"
    badcsv.write_text("parameter,element,t,i,f,mu\ne1,u1,0.5,x,0.6,0.8\n")
    assert main(["union", str(a), str(badcsv)]) == 1
    assert "line 2" in capsys.readouterr().err

    _record(6, True, "100 save/load round trips identical; CLI JSON re-parses; "
            "malformed inputs exit 1 with coordinate diagnostics")
