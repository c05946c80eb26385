"""Each distinct number crosses the text boundary once, with the same result.

The parser and the renderers are checked against plain `Fraction(str)` and
against longhand copies of the renderers that converted every occurrence.
The counting tests at the end fail if a memo is dropped.
"""

import collections
import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import pnsoft.cli
import pnsoft.jsonio
from pnsoft import decimal_string, loads_csv, loads_pns
from pnsoft.algebra import parse_decimal
from pnsoft.cli import _json, _num, main
from pnsoft.jsonio import MEMO_CAP, _memoized, _to_jsonable

# ---------------------------------------------------------------------------
# parsing

JSON_NUMBER = r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,20})?([eE][-+]?[0-9]{1,4})?"


@given(st.from_regex(JSON_NUMBER, fullmatch=True))
@example("-0")
@example("0.10")
@example("1E5")
@example("2.5e-3")
@example("1e+2")
@example("-0.0")
def test_parser_agrees_with_fraction_on_json_literals(literal):
    value = parse_decimal(literal)
    assert type(value) is Fraction
    assert value == Fraction(literal)
    assert (value.numerator, value.denominator) == (
        Fraction(literal).numerator, Fraction(literal).denominator)


@pytest.mark.parametrize("text", [
    " 0.5", "0.5 ", "+0.5", ".5", "5.", "-.25", "1/3", " 7/20 ", "1_000.5",
    "0.000_1", "٣.٥", "3e-0", "1E-5",
])
def test_parser_agrees_with_fraction_on_other_text(text):
    assert parse_decimal(text) == Fraction(text)


@pytest.mark.parametrize("text", [
    "", "x", "0.5.5", "1e", "e5", "².5", "0x10", "1/0", "nan", "inf",
])
def test_parser_rejects_what_fraction_rejects(text):
    with pytest.raises((ValueError, ZeroDivisionError)) as expected:
        Fraction(text)
    with pytest.raises(expected.type):
        parse_decimal(text)


def number_text(s):
    """A document as JSON text with every degree written as a bare literal."""
    rows = ",".join(
        "[" + ",".join("{" + ",".join(f'"{k}": {v}' for k, v in cell.items()) + "}"
                       for cell in row) + "]"
        for row in s["cells"])
    return ('{"parameters": %s, "universe": %s, "cells": [%s]}'
            % (json.dumps(s["parameters"]), json.dumps(s["universe"]), rows))


def test_equal_literals_in_one_document_are_one_object():
    cell = {"t": "0.10", "i": "0.25", "f": "0.10", "mu": "0.25"}
    s = loads_pns(number_text({"parameters": ["e1", "e2"],
                               "universe": ["u1", "u2", "u3"],
                               "cells": [[cell] * 3] * 2}))
    degrees = [x for row in s.cells for c in row for x in (*c.triple, c.mu)]
    assert len({id(x) for x in degrees}) == 2
    assert set(degrees) == {Fraction(1, 10), Fraction(1, 4)}


# ---------------------------------------------------------------------------
# rendering: longhand copies of the renderers that formatted every
# occurrence, tested against the memoized ones

def longhand_to_jsonable(obj, number):
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (float, Fraction)):
        return number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {longhand_to_jsonable(v, number)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(longhand_to_jsonable(v, number) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def longhand_json(doc):
    return longhand_to_jsonable(doc, lambda x: "%.6f" % float(x))


def longhand_num(x):
    if isinstance(x, Fraction):
        text = decimal_string(x)
        return text if len(text) <= 8 else "%.4f" % float(x)
    return "%.4f" % float(x)


class Half(Fraction):
    """A Fraction subclass: rendered, never memoized."""


class Tag(str):
    pass


class Row(list):
    pass


def mixed_values(rng):
    # more distinct Fractions than a memo holds, each repeated, with the
    # values that compare equal across types next to them
    distinct = [Fraction(k, 7919) for k in range(MEMO_CAP + 300)]
    values = distinct + rng.sample(distinct, 2000) + [
        Fraction(1), 1, 1.0, True, False, Fraction(0), 0, 0.0, None,
        Fraction(1, 2), 0.5, Half(1, 2), Fraction(1, 3), 1 / 3, -0.0,
        Fraction(7, 20), Fraction(1, 10**12), "0.5", "", "é", Tag("t"),
    ]
    rng.shuffle(values)
    return values


def mixed_document(rng):
    values = mixed_values(rng)
    return {
        "flat": values,
        "nested": [values[:50], tuple(values[50:90]), Row(values[90:120]),
                   {"t": values[0], "i": (values[1], [values[2]]), 3: None}],
        "cells": [[{"t": v, "i": w, "f": Fraction(1, 2), "mu": 1}
                   for v, w in zip(values[:400], values[400:800])]],
        Tag("x"): Fraction(1),
        "empty": [[], {}, ()],
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_renderer_matches_the_longhand_one(seed):
    doc = mixed_document(random.Random(seed))

    def tagged(x):
        return f'"{type(x).__name__}:{x!r}"'

    assert _to_jsonable(doc, tagged) == longhand_to_jsonable(doc, tagged)
    assert _json(doc) == longhand_json(doc)
    assert (_to_jsonable(doc, decimal_string)
            == longhand_to_jsonable(doc, decimal_string))


@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_table_numbers_match_the_longhand_ones(seed):
    values = [v for v in mixed_values(random.Random(seed))
              if v is not None and not isinstance(v, str)]
    num = _memoized(_num)
    assert [num(v) for v in values] == [longhand_num(v) for v in values]
    assert num(1) == "1.0000" and num(Fraction(1)) == "1"


def test_unrenderable_objects_still_raise():
    with pytest.raises(TypeError, match="cannot render set"):
        _json({"x": [Fraction(1), {1, 2}]})


# ---------------------------------------------------------------------------
# structural guard: conversions per distinct value, counted

def two_decimal_set(rng, n_params, n_elems):
    return {
        "parameters": [f"e{k + 1}" for k in range(n_params)],
        "universe": [f"u{k + 1}" for k in range(n_elems)],
        "cells": [[{field: "%d.%02d" % divmod(rng.randint(0, 100), 100)
                    for field in ("t", "i", "f", "mu")}
                   for _ in range(n_elems)] for _ in range(n_params)],
    }


def csv_text(s):
    lines = ["parameter,element,t,i,f,mu"]
    for p, row in zip(s["parameters"], s["cells"]):
        for u, cell in zip(s["universe"], row):
            lines.append(",".join([p, u, cell["t"], cell["i"], cell["f"], cell["mu"]]))
    return "\n".join(lines) + "\n"


@pytest.fixture
def seeded_pair(tmp_path):
    rng = random.Random(20141)
    pair = [two_decimal_set(rng, 4, 12) for _ in range(2)]
    paths = []
    for k, s in enumerate(pair):
        path = tmp_path / f"pair_{k}.json"
        path.write_text(number_text(s))
        paths.append(str(path))
    return pair, paths


def counting(monkeypatch, module, name, key):
    calls = collections.Counter()
    real = getattr(module, name)

    def counted(x):
        calls[key(x)] += 1
        return real(x)

    monkeypatch.setattr(module, name, counted)
    return calls


def exact(x):
    return (type(x).__name__, x.numerator, x.denominator)


@pytest.mark.parametrize("fmt,formatter", [("table", "_num"),
                                           ("json", "_six_decimals")])
def test_decide_formats_each_distinct_value_once(seeded_pair, monkeypatch,
                                                 fmt, formatter):
    _, paths = seeded_pair
    calls = counting(monkeypatch, pnsoft.cli, formatter, exact)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["decide", *paths, "--format", fmt]) == 0
    assert len(calls) > 100  # product values, matrix entries and scores
    assert max(calls.values()) == 1, calls.most_common(3)


@pytest.mark.parametrize("load", [
    lambda s: loads_pns(number_text(s)),
    lambda s: loads_csv(csv_text(s)),
], ids=["json", "csv"])
def test_a_load_builds_one_fraction_per_distinct_literal(seeded_pair, monkeypatch,
                                                         load):
    pair, _ = seeded_pair
    calls = counting(monkeypatch, pnsoft.jsonio, "parse_decimal", str)
    s = load(pair[0])
    literals = [v for row in pair[0]["cells"] for cell in row for v in cell.values()]
    assert len(literals) > len(set(literals))
    assert sorted(calls) == sorted(set(literals))
    assert max(calls.values()) == 1
    degrees = [x for row in s.cells for c in row for x in (*c.triple, c.mu)]
    assert len({id(x) for x in degrees}) == len(set(literals))
    assert [x for x in degrees] == [Fraction(v) for v in literals]


def test_dumps_formats_each_distinct_value_once(seeded_pair, monkeypatch,
                                                tmp_path):
    pair, _ = seeded_pair
    s = loads_pns(number_text(pair[0]))
    doc = pnsoft.jsonio.to_document(s)
    values = {exact(x) for row in doc["cells"] for cell in row for x in cell.values()}
    calls = collections.Counter()

    def counted(x):
        calls[exact(x)] += 1
        return decimal_string(x)

    text = pnsoft.jsonio.dumps_pns(doc, counted)
    assert text == pnsoft.jsonio.dumps_pns(doc)
    assert len(doc["cells"]) > 1 and sorted(calls) == sorted(values)
    assert max(calls.values()) == 1, calls.most_common(3)
    # save_pns renders through decimal_string, one scale lookup per call
    scales = counting(monkeypatch, pnsoft.jsonio, "_decimal_scale", int)
    pnsoft.jsonio.save_pns(s, tmp_path / "saved.json")
    assert sum(scales.values()) == len(values)
    assert (tmp_path / "saved.json").read_text() == text
