"""Brute-force reference results and output checks.

The oracle restates the definitions from the pnsoft paper longhand and
shares no code with the package. A set is {"parameters", "universe",
"cells", "scale"} whose cells are (t, i, f, mu) integer numerators over the
integer `scale`, so every operation below is integer arithmetic spelled out
per cell. Every check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

THRESHOLD = Fraction(1, 2)


# ---------------------------------------------------------------------------
# reading inputs and what the program printed

def decimal(text: str) -> tuple:
    """Exact (numerator, denominator) of a number as printed."""
    whole, _, frac = text.partition(".")
    if whole.lstrip("-").isdigit() and (frac.isdigit() or not frac):
        return int(whole + frac), 10 ** len(frac)
    value = Fraction(text)
    return value.numerator, value.denominator


def parse_set_json(text: str) -> dict:
    """A set file in the canonical JSON layout, over its smallest common scale."""
    doc = json.loads(text, parse_float=decimal, parse_int=decimal)
    cells = [[(c["t"], c["i"], c["f"], c["mu"]) for c in row] for row in doc["cells"]]
    scale = lcm(*{den for row in cells for cell in row for _, den in cell})
    return {
        "parameters": doc["parameters"],
        "universe": doc["universe"],
        "cells": [[tuple(num * (scale // den) for num, den in cell) for cell in row]
                  for row in cells],
        "scale": scale,
    }


def rescale(s: dict, scale: int) -> dict:
    k = scale // s["scale"]
    if k * s["scale"] != scale:
        raise ValueError(f"scale {scale} is not a multiple of {s['scale']}")
    return {**s, "cells": [[tuple(v * k for v in cell) for cell in row]
                           for row in s["cells"]], "scale": scale}


def close(text: str, num: int, den: int, places: int) -> bool:
    """`text` shows num/den rounded to `places` decimals, or exactly.

    Allows half a unit in the last place plus 10**-(places + 4) for the
    program's rounding through binary floats.
    """
    shown, shown_den = decimal(text)
    gap = abs(shown * den - num * shown_den)
    return gap * 2 * 10 ** (places + 4) <= den * shown_den * (10 ** 4 + 2)


def table_rows(text: str) -> dict:
    """First column -> remaining whitespace separated columns, header skipped."""
    lines = [line.split() for line in text.splitlines()]
    return {cols[0]: cols[1:] for cols in lines[1:] if cols}


def denominator_bits(s: dict) -> int:
    """Bits of the largest reduced denominator among the set's degrees."""
    scale = s["scale"]
    return max(scale // gcd(v, scale)
               for row in s["cells"] for cell in row for v in cell).bit_length()


# ---------------------------------------------------------------------------
# decide: AND product -> weighted matrices -> row-max scores

def decide(f: dict, g: dict) -> dict:
    """Scores, ranking and winners of two observations of one universe.

    Weighted entries are integers over scale**2, so each row maximum is an
    exact integer comparison.
    """
    scale = lcm(f["scale"], g["scale"])
    f, g = rescale(f, scale), rescale(g, scale)
    universe = f["universe"]
    n = len(universe)
    totals = {"t": [0] * n, "i": [0] * n, "f": [0] * n}
    tied_rows = 0
    for frow in f["cells"]:
        for grow in g["cells"]:
            wt, wi, wf = [], [], []
            for (t1, i1, f1, m1), (t2, i2, f2, m2) in zip(frow, grow):
                t, i, fv, m = min(t1, t2), max(i1, i2), max(f1, f2), min(m1, m2)
                wt.append(t * scale + m * scale - t * m)   # t + m - t*m
                wi.append(i * m)
                wf.append(fv * m)
            for key, row in (("t", wt), ("i", wi), ("f", wf)):
                best = max(row)
                hits = [j for j, v in enumerate(row) if v == best]
                tied_rows += len(hits) > 1
                for j in hits:
                    totals[key][j] += best
    den = scale * scale
    ds = [t - i - fv for t, i, fv in zip(totals["t"], totals["i"], totals["f"])]
    order = sorted(range(n), key=lambda j: (-ds[j], j))
    best = max(ds)
    return {
        "den": den,
        "truth_scores": totals["t"], "indeterminacy_scores": totals["i"],
        "falsity_scores": totals["f"], "decision_scores": ds,
        "ranking": [universe[j] for j in order],
        "winners": [u for u, d in zip(universe, ds) if d == best],
        "row_ties": tied_rows,
        "pair_rows": len(f["cells"]) * len(g["cells"]),
        "cells": len(f["cells"]) * len(g["cells"]) * n,
        "score_denominator_bits": max(
            den // gcd(v, den) for k in ("t", "i", "f") for v in totals[k]).bit_length(),
    }


def check_decide(expected: dict, fmt: str, status: int, out: str) -> list:
    if status != 0:
        return [f"exit status {status}, expected 0"]
    problems = []
    if fmt == "json":
        doc = json.loads(out, parse_float=str)
        den = expected["den"]
        for key in ("truth_scores", "indeterminacy_scores", "falsity_scores",
                    "decision_scores"):
            got, want = doc[key], expected[key]
            if len(got) != len(want):
                problems.append(f"{key}: {len(got)} values, expected {len(want)}")
                continue
            problems += [f"{key}[{j}] = {a}, expected {b / den:.6f}"
                         for j, (a, b) in enumerate(zip(got, want))
                         if not close(a, b, den, 6)]
        for key in ("ranking", "winners"):
            if doc[key] != expected[key]:
                problems.append(f"{key} differs from the oracle")
    else:
        lines = out.splitlines()
        for key, label, sep in (("winners", "winner: ", ", "),
                                ("ranking", "ranking: ", " > ")):
            want = label + sep.join(expected[key])
            if want not in lines:
                problems.append(f"no line {want[:60]!r}")
    return problems


# ---------------------------------------------------------------------------
# similarity and select: value factor times possibility factor

def similarity(f: dict, g: dict, p: int = 2) -> float:
    """Minkowski similarity of phi = (t + i + f)/3, times the mu ratio factor."""
    scale = lcm(f["scale"], g["scale"])
    f, g = rescale(f, scale), rescale(g, scale)
    n = len(f["universe"])
    value_parts, poss_parts = [], []
    for frow, grow in zip(f["cells"], g["cells"]):
        dsum = sum(abs(sum(a[:3]) - sum(b[:3])) ** p for a, b in zip(frow, grow))
        value_parts.append(1 - float(Fraction(dsum, (3 * scale) ** p)) ** (1 / p)
                           / n ** (1 / p))
        num = sum(abs(a[3] - b[3]) for a, b in zip(frow, grow))
        den = sum(a[3] + b[3] for a, b in zip(frow, grow))
        poss_parts.append(1 - Fraction(num, den))
    return (sum(value_parts) / len(value_parts)) * (sum(poss_parts) / len(poss_parts))


def select(model: dict, candidates) -> dict:
    """Per candidate similarity, or None when its labels differ from the model."""
    scores = {}
    for label, c in candidates:
        same = (c["parameters"] == model["parameters"]
                and c["universe"] == model["universe"])
        scores[label] = similarity(model, c) if same else None
    best = max(v for v in scores.values() if v is not None)
    return {
        "scores": scores,
        "best": best,
        "rejected": sorted(k for k, v in scores.items() if v is None),
        "cells": len(model["cells"]) * len(model["universe"]) * (1 + len(candidates)),
    }


def check_select(expected: dict, fmt: str, status: int, out: str) -> list:
    if status != 0:
        return [f"exit status {status}, expected 0"]
    problems = []
    scores = expected["scores"]
    if fmt == "json":
        doc = json.loads(out)
        if [c["label"] for c in doc["candidates"]] != list(scores):
            return ["candidate labels differ from the inputs"]
        shown = {c["label"]: c["overall"] for c in doc["candidates"]}
        rejected = sorted(c["label"] for c in doc["candidates"] if c["error"] is not None)
        for c in doc["candidates"]:
            want = scores[c["label"]]
            if want is not None and c["significant"] != (want >= THRESHOLD) \
                    and abs(want - THRESHOLD) > 1e-9:
                problems.append(f"{c['label']}: significance differs from the oracle")
        selected, tolerance = doc["selected"], 0.5e-6 + 1e-9
    else:
        rows = table_rows(out.split("\n\n")[0])
        if sorted(rows) != sorted(scores):
            return ["candidate rows differ from the inputs"]
        shown = {k: None if cols[0] == "-" else float(cols[0]) for k, cols in rows.items()}
        rejected = sorted(k for k, v in shown.items() if v is None)
        tail = [line for line in out.splitlines() if line.startswith("selected: ")]
        selected = tail[0][len("selected: "):].split(", ") if tail else []
        tolerance = 0.5e-4 + 1e-9
    for label, want in scores.items():
        if want is not None and (shown[label] is None or abs(shown[label] - want) > tolerance):
            problems.append(f"{label}: similarity {shown[label]}, expected {want:.6f}")
    if rejected != expected["rejected"]:
        problems.append(f"rejected {rejected}, expected {expected['rejected']}")
    # float rounding may reorder scores closer than this; the check then
    # accepts any of the near-best candidates
    near = [k for k, v in scores.items() if v is not None and v >= expected["best"] - 1e-9]
    if not selected or not set(selected) <= set(near) or \
            (len(near) == 1 and selected != near):
        problems.append(f"selected {selected}, expected {near}")
    return problems


def check_similarity(f: dict, g: dict, status: int, out: str) -> list:
    """`pnsoft similarity --format json` output against the oracle."""
    if status != 0:
        return [f"exit status {status}, expected 0"]
    want = similarity(f, g)
    got = json.loads(out)["overall"]
    return [] if abs(got - want) <= 0.5e-6 + 1e-9 else [f"overall {got}, expected {want:.6f}"]


# ---------------------------------------------------------------------------
# setops: norm-parameterised union, intersection and complement

def setop(op: str, family: str, f: dict, g: dict | None = None) -> dict:
    """Cellwise result of `op` under the norm family named by its t-norm.

    min/max and lukasiewicz keep the operands' scale; product/probsum
    multiply degrees, so the result is over scale**2.
    """
    if g is not None:
        scale = lcm(f["scale"], g["scale"])
        f, g = rescale(f, scale), rescale(g, scale)
    one = f["scale"]
    if op == "complement":
        cells = [[(fv, one - i, t, one - m) for t, i, fv, m in row] for row in f["cells"]]
        return {**f, "cells": cells}
    if family == "product":
        T = lambda a, b: a * b                        # noqa: E731
        S = lambda a, b: (a + b) * one - a * b        # noqa: E731
        scale = one * one
    elif family == "lukasiewicz":
        T = lambda a, b: max(a + b - one, 0)          # noqa: E731
        S = lambda a, b: min(a + b, one)              # noqa: E731
        scale = one
    else:
        T, S, scale = min, max, one
    if op == "intersect":
        T, S = S, T
    cells = [[(S(a[0], b[0]), T(a[1], b[1]), T(a[2], b[2]), S(a[3], b[3]))
              for a, b in zip(frow, grow)] for frow, grow in zip(f["cells"], g["cells"])]
    return {**f, "cells": cells, "scale": scale}


def check_setop(expected: dict, fmt: str, status: int, out: str) -> list:
    if status != 0:
        return [f"exit status {status}, expected 0"]
    if fmt == "json":
        doc = json.loads(out, parse_float=str, parse_int=str)
        if doc["parameters"] != expected["parameters"] or \
                doc["universe"] != expected["universe"]:
            return ["labels differ from the operands"]
        cells = [[(c["t"], c["i"], c["f"], c["mu"]) for c in row] for row in doc["cells"]]
        places = 6
    else:
        rows = table_rows(out)
        try:
            cells = [[tuple(cell.replace("(", "").replace(")", "")
                            .replace("|", ",").split(","))
                      for cell in rows[p]] for p in expected["parameters"]]
        except KeyError as exc:
            return [f"no table row for parameter {exc}"]
        places = 4
    problems = []
    den = expected["scale"]
    for p, got_row, want_row in zip(expected["parameters"], cells, expected["cells"]):
        if len(got_row) != len(want_row):
            problems.append(f"row {p}: {len(got_row)} cells, expected {len(want_row)}")
            continue
        for u, got, want in zip(expected["universe"], got_row, want_row):
            if len(got) != 4 or not all(close(a, b, den, places) for a, b in zip(got, want)):
                problems.append(f"cell ({p}, {u}): {got}, expected "
                                + ", ".join(f"{v / den:.6f}" for v in want))
    return problems
