"""Each distinct number crosses the text boundary once, with the same result.

The parser and the renderers are checked against plain `Fraction(str)` and
against longhand copies of the renderers that converted every occurrence.
The counting tests at the end fail if a memo is dropped.
"""

import argparse
import collections
import contextlib
import gc
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import pnsoft.cli
import pnsoft.jsonio
from pnsoft import (PnsSet, complement, decimal_string, loads_csv, loads_pns,
                    make_profile, union)
from pnsoft.algebra import _Memo, parse_decimal
from pnsoft.cli import _num, _six_decimals, main
from pnsoft.jsonio import MEMO_CAP, _chunks, _memoized

from conftest import mixed_pairs

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


def cli_json(doc):
    """The JSON text the CLI writes for `doc`, its parts joined."""
    return "".join(_chunks(doc, _memoized(_six_decimals)))


def longhand_json(doc):
    return longhand_to_jsonable(doc, lambda x: "%.6f" % float(x))


def longhand_num(x):
    if isinstance(x, Fraction):
        text = decimal_string(x)
        return text if len(text) <= 8 else "%.4f" % float(x)
    return "%.4f" % float(x)


def longhand_to_document(s):
    """A set as one dict per cell, the copy the renderers used to walk."""
    return {
        "parameters": list(s.parameters),
        "universe": list(s.universe),
        "cells": [
            [{"t": c.triple.truth, "i": c.triple.indeterminacy,
              "f": c.triple.falsity, "mu": c.mu} for c in row]
            for row in s.cells
        ],
    }


def longhand_dumps(doc, number=decimal_string):
    last = len(doc["cells"]) - 1
    return "\n".join([
        "{",
        '  "parameters": ' + longhand_to_jsonable(doc["parameters"], number) + ",",
        '  "universe": ' + longhand_to_jsonable(doc["universe"], number) + ",",
        '  "cells": [',
        *("    " + longhand_to_jsonable(row, number) + ("," if r < last else "")
          for r, row in enumerate(doc["cells"])),
        "  ]",
        "}",
    ]) + "\n"


def mixed_values(rng):
    # more distinct Fractions than a memo holds, each repeated, with the
    # values that compare equal across types next to them
    distinct = [Fraction(k, 7919) for k in range(MEMO_CAP + 300)]
    values = distinct + rng.sample(distinct, 2000) + [
        Fraction(1), 1, 1.0, True, False, Fraction(0), 0, 0.0, None,
        Fraction(1, 2), 0.5, Fraction(1, 3), 1 / 3, -0.0,
        Fraction(7, 20), Fraction(1, 10**12), "0.5", "", "é",
    ]
    rng.shuffle(values)
    return values


def mixed_document(rng):
    values = mixed_values(rng)
    return {
        "flat": values,
        "nested": [values[:50], tuple(values[50:90]), list(values[90:120]),
                   {"t": values[0], "i": (values[1], [values[2]]), "3": None}],
        "cells": [[{"t": v, "i": w, "f": Fraction(1, 2), "mu": 1}
                   for v, w in zip(values[:400], values[400:800])]],
        "x": Fraction(1),
        "empty": [[], {}, ()],
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_renderer_matches_the_longhand_one(seed):
    doc = mixed_document(random.Random(seed))

    def tagged(x):
        return f'"{type(x).__name__}:{x!r}"'

    assert "".join(_chunks(doc, tagged)) == longhand_to_jsonable(doc, tagged)
    assert cli_json(doc) == longhand_json(doc)
    assert ("".join(_chunks(doc, decimal_string))
            == longhand_to_jsonable(doc, decimal_string))


@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_table_numbers_match_the_longhand_ones(seed):
    values = [v for v in mixed_values(random.Random(seed))
              if v is not None and not isinstance(v, str)]
    num = _memoized(_num)
    assert [num(v) for v in values] == [longhand_num(v) for v in values]
    assert num(1) == "1.0000" and num(Fraction(1)) == "1"


def test_table_numbers_of_hostile_values_match_the_longhand_ones():
    tiny = Fraction(1, 10**100000)
    values = [tiny, 1 - tiny, Fraction(7, 10**20000), Fraction(1, 3 * 10**100000),
              Fraction(1, 10) + Fraction(1, 3 * 10**20), Fraction(1, 2**60),
              Fraction(1, 10**7), Fraction(-1, 2**7), Fraction(1234567, 10**7),
              Fraction(12345678), Fraction(123456789), Fraction(-1234567, 10**6),
              Fraction(-5, 4), Fraction(1, 3), Fraction(1, 2**61 - 1)]
    values += [v + Fraction(k, 10**j) for v in (Fraction(1, 8), Fraction(99, 100))
               for j in (6, 7, 30) for k in (-1, 1)]
    assert [_num(v) for v in values] == [longhand_num(v) for v in values]


def test_table_numbers_never_build_a_long_exact_decimal(monkeypatch):
    built = []
    monkeypatch.setattr(pnsoft.cli, "decimal_string", lambda x: built.append(x) or "")
    for v in (1 - Fraction(1, 10**100000), Fraction(1, 2**60), Fraction(3, 10**7)):
        assert _num(v) == "%.4f" % float(v)
    assert built == []


def test_the_identity_memo_renders_reused_ids_right():
    # each number is made and dropped between two calls, so its id is free
    # for the next one unless the memo holds on to the number
    num = pnsoft.cli._by_identity(_num)
    six = pnsoft.cli._by_identity(_six_decimals)
    rng = random.Random(12)
    got, want = [], []
    for _ in range(3000):
        d = rng.choice([3, 7, 100, 10**6])
        x = rng.choice([Fraction(rng.randint(0, d), d), rng.randint(0, 1),
                        rng.randint(0, d) / d])
        got.append((num(x), six(x)))
        want.append((longhand_num(x), "%.6f" % float(x)))
        del x
    assert got == want
    assert len(set(got)) > 500


def test_unrenderable_objects_still_raise():
    with pytest.raises(TypeError, match="cannot render set"):
        cli_json({"x": [Fraction(1), {1, 2}]})


class Half(Fraction):
    pass


class Tag(str):
    pass


class Row(list):
    pass


@pytest.mark.parametrize("obj", [
    Half(1, 2), Tag("t"), Row(), collections.OrderedDict(), {1: "int key"},
], ids=["fraction", "str", "list", "dict", "int-key"])
def test_subclasses_are_not_rendered(obj):
    with pytest.raises(TypeError):
        cli_json([obj])


@st.composite
def two_decimal_sets(draw):
    degree = st.integers(0, 100).map(lambda k: Fraction(k, 100))
    params = [f"e{k + 1}" for k in range(draw(st.integers(1, 4)))]
    universe = [f"u{j + 1}" for j in range(draw(st.integers(1, 6)))]
    rows = [[tuple(draw(degree) for _ in range(4)) for _ in universe]
            for _ in params]
    return PnsSet.from_rows(params, universe, rows)


@given(st.one_of(mixed_pairs().map(lambda pair: pair[0]), two_decimal_sets()))
def test_sets_render_as_their_documents_did(s):
    doc = longhand_to_document(s)
    assert cli_json(s) == longhand_json(doc)
    assert (cli_json({"product": s, "n": 1})
            == longhand_json({"product": doc, "n": 1}))
    assert pnsoft.jsonio.dumps_pns(s) == longhand_dumps(doc)


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


def written(tmp_path, pair, stem):
    """`pair`, two documents, and the paths of the JSON files they were
    written to."""
    paths = []
    for k, s in enumerate(pair):
        path = tmp_path / f"{stem}_{k}.json"
        path.write_text(number_text(s))
        paths.append(str(path))
    return pair, paths


@pytest.fixture
def seeded_pair(tmp_path):
    rng = random.Random(20141)
    return written(tmp_path, [two_decimal_set(rng, 4, 12) for _ in range(2)], "pair")


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


@pytest.fixture
def six_decimal_pair(tmp_path):
    """Two 4x1100 six-decimal sets: more distinct values than a value memo
    holds, so past its cap a value memo formats a number each time it
    occurs."""
    rng = random.Random(1100)
    return written(tmp_path, [decimal_set(rng, 4, 1100, 6) for _ in range(2)], "six")


@pytest.mark.parametrize("fmt,formatter", [("table", "_num"),
                                           ("json", "_six_decimals")])
@pytest.mark.parametrize("command", ["decide", "and-product", "or-product"])
@pytest.mark.parametrize("pair", ["seeded_pair", "six_decimal_pair"])
def test_decide_and_products_format_each_object_once(request, monkeypatch, pair,
                                                     command, fmt, formatter):
    # the identity memo holds every object it formats, so no id recurs
    _, paths = request.getfixturevalue(pair)
    calls = counting(monkeypatch, pnsoft.cli, formatter, id)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, *paths, "--format", fmt]) == 0
    assert len(calls) > 50  # the product's degrees, and decide's entries and scores
    assert max(calls.values()) == 1, calls.most_common(3)


def test_six_decimal_loads_and_set_operators_skip_the_fraction_constructor(
        monkeypatch):
    # parse_decimal, the product/probsum kernels and negation_standard build
    # their results through algebra._exact, never through Fraction.__new__
    rng = random.Random(33)
    docs = [decimal_set(rng, 3, 40, 6) for _ in range(2)]
    made = collections.Counter()
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[step] += 1
        return real(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    step = "loads_pns"
    f, g = (loads_pns(number_text(doc)) for doc in docs)
    step = "union under product/probsum"
    u = union(f, g, make_profile("product", "probsum"))
    step = "complement"
    c = complement(f)
    step = "a Fraction(1, 3) under the same wrapper"
    Fraction(1, 3)
    assert made == {step: 1}, made
    monkeypatch.undo()
    # the steps did their work: six-decimal degrees, products and negations
    a, b, x, y = f.cells[0][0], g.cells[0][0], u.cells[0][0], c.cells[0][0]
    assert a.truth == Fraction(docs[0]["cells"][0][0]["t"])
    assert x.truth == a.truth + b.truth - a.truth * b.truth
    assert x.indeterminacy == a.indeterminacy * b.indeterminacy
    assert (y.indeterminacy, y.mu) == (1 - a.indeterminacy, 1 - a.mu)


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
    values = {exact(x) for row in s.cells for c in row for x in (*c.triple, c.mu)}
    text = pnsoft.jsonio.dumps_pns(s)
    calls = counting(monkeypatch, pnsoft.jsonio, "decimal_string", exact)
    assert pnsoft.jsonio.dumps_pns(s) == text
    assert len(s.cells) > 1 and sorted(calls) == sorted(values)
    assert max(calls.values()) == 1, calls.most_common(3)
    # save_pns renders through decimal_string, one scale lookup per call
    scales = counting(monkeypatch, pnsoft.jsonio, "_decimal_scale", int)
    pnsoft.jsonio.save_pns(s, tmp_path / "saved.json")
    assert sum(scales.values()) == len(values)
    assert (tmp_path / "saved.json").read_text() == text


# ---------------------------------------------------------------------------
# six decimals from ints, and a literal memo bounded by MEMO_CAP

def refusing_float(monkeypatch):
    def refuse(x):
        raise AssertionError(f"float({x!r}) in a renderer")
    for module in (pnsoft.cli, pnsoft.jsonio):
        monkeypatch.setattr(module, "float", refuse, raising=False)


def counting_float(monkeypatch):
    calls = []
    monkeypatch.setattr(pnsoft.cli, "float", lambda x: calls.append(x) or float(x),
                        raising=False)
    return calls


#: every denominator of a value with at most six decimals
DIVISORS_OF_A_MILLION = sorted(2**i * 5**j for i in range(7) for j in range(7))


def micro_sample():
    """k/10**6 for every k near 0 and 1 and every 97th k between."""
    ks = [*range(0, 2001), *range(2001, 10**6 - 2000, 97), *range(10**6 - 2000, 10**6 + 1)]
    return [Fraction(k, 10**6) for k in ks]


def divisor_sample():
    """k/d for each d dividing 10**6: every k up to d, or about 1000 of them
    and the two next to each end."""
    values = []
    for d in DIVISORS_OF_A_MILLION:
        values += [Fraction(k, d) for k in range(0, d, max(1, d // 1000))]
        values += [Fraction(1, d), Fraction(d - 1, d), Fraction(d, d)]
    return values


@pytest.mark.parametrize("sample", [micro_sample, divisor_sample])
def test_six_decimals_from_ints_match_the_float_text(monkeypatch, sample):
    values = sample()
    assert {Fraction(0), Fraction(1), Fraction(1, 10**6)} <= set(values)
    want = ["%.6f" % float(x) for x in values]
    refusing_float(monkeypatch)
    assert [_six_decimals(x) for x in values] == want


@pytest.mark.parametrize("x", [
    Fraction(3, 2), Fraction(10**6 + 1, 10**6), Fraction(2 * 10**20 + 1, 2),
    Fraction(-1, 2), Fraction(-1, 10**6), Fraction(1, 10**12),
    Fraction(123456789012, 10**12), Fraction(1, 3), Fraction(1, 2**61 - 1),
    0, 1, 7, 10**20 + 1, 0.5, 1 / 3,
], ids=repr)
def test_other_numbers_take_the_float_path(monkeypatch, x):
    # the text of the double, and a Fraction's double from its int slots
    want = "%.6f" % float(x)
    calls = counting_float(monkeypatch)
    assert _six_decimals(x) == want
    assert not [c for c in calls if isinstance(c, Fraction)]


def test_renderers_divide_a_fractions_ints_without_float(monkeypatch):
    tiny = Fraction(1, 10**100000)
    values = [*divisor_sample(), Fraction(1, 3), Fraction(1, 2**61 - 1),
              Fraction(2, 3), Fraction(10**6 + 1, 10**6), Fraction(-5, 4),
              tiny, 1 - tiny, Fraction(7, 10**20000), Fraction(1, 3 * 10**100000),
              Fraction(-1, 3 * 10**100000), Fraction(1, 10) + Fraction(1, 3 * 10**20)]
    rng = random.Random(12)
    values += [Fraction(rng.randint(0, 10**12), 10**12) for _ in range(1000)]
    values += [Fraction(rng.randint(-10**7, 10**7), rng.randint(1, 10**6))
               for _ in range(1000)]
    values += [-x for x in values[::7]] + [x + 1 for x in values[::11]]

    def decimal_text(x):  # exact, else the repr of the double
        exact = pnsoft.jsonio._decimal_scale(x.denominator) is not None
        return decimal_string(x) if exact else repr(float(x))
    want = [("%.6f" % float(x), longhand_num(x), decimal_text(x)) for x in values]
    refusing_float(monkeypatch)
    assert [(_six_decimals(x), _num(x), decimal_string(x)) for x in values] == want


def decimal_set(rng, n_params, n_elems, decimals):
    """A document of n_params x n_elems cells, each degree a literal with
    `decimals` digits after the point."""
    scale = 10 ** decimals

    def literal(k):
        return "%d.%0*d" % (k // scale, decimals, k % scale)
    return {
        "parameters": [f"e{k + 1}" for k in range(n_params)],
        "universe": [f"u{k + 1}" for k in range(n_elems)],
        "cells": [[{field: literal(rng.randint(0, scale))
                    for field in ("t", "i", "f", "mu")}
                   for _ in range(n_elems)] for _ in range(n_params)],
    }


def degrees(s):
    return [exact(x) for row in s.cells for c in row for x in (c.truth, c.indeterminacy,
                                                               c.falsity, c.mu)]


LOADERS = pytest.mark.parametrize(
    "load,text", [(loads_pns, number_text), (loads_csv, csv_text)], ids=["json", "csv"])


def loaded_twice(monkeypatch, load, text, doc):
    """`doc` loaded with the literal memo, the parse_decimal calls that
    load made, and `doc` loaded with a memo that keeps nothing, so that
    every literal goes through a plain parse_decimal."""
    calls = counting(monkeypatch, pnsoft.jsonio, "parse_decimal", str)
    memoized = load(text(doc))
    monkeypatch.undo()
    monkeypatch.setattr(pnsoft.jsonio, "MEMO_CAP", 0)
    return memoized, calls, load(text(doc))


@pytest.mark.parametrize("decimals", [2, 6])
@LOADERS
def test_the_literal_memo_gives_the_unmemoized_set(monkeypatch, decimals, load, text):
    doc = decimal_set(random.Random(decimals), 10, 100, decimals)
    literals = [v for row in doc["cells"] for cell in row for v in cell.values()]
    assert len(set(literals)) <= MEMO_CAP
    memoized, calls, plain = loaded_twice(monkeypatch, load, text, doc)
    assert calls == collections.Counter(set(literals))  # each distinct literal once
    assert memoized == plain and degrees(memoized) == degrees(plain)


@LOADERS
def test_the_literal_memo_parses_each_of_1001_literals_once(monkeypatch, load, text):
    # every three-decimal literal in [0, 1] once per row, as all four
    # degrees of one cell: 32 occurrences each
    rng = random.Random(1001)
    literals = ["%d.%03d" % divmod(k, 1000) for k in range(1001)]
    doc = {"parameters": [f"e{k + 1}" for k in range(8)],
           "universe": [f"u{k + 1}" for k in range(1001)],
           "cells": [[dict.fromkeys(("t", "i", "f", "mu"), t)
                      for t in rng.sample(literals, len(literals))] for _ in range(8)]}
    memoized, calls, plain = loaded_twice(monkeypatch, load, text, doc)
    assert len(calls) == 1001 and set(calls.values()) == {1}
    assert memoized == plain and degrees(memoized) == degrees(plain)


def literal_memo():
    """The literal memo that `loads_pns` and `loads_csv` make for one load."""
    return _Memo(pnsoft.jsonio.parse_decimal, pnsoft.jsonio.MEMO_CAP).__getitem__


@pytest.mark.parametrize("hits", [0, 511, 512])
def test_the_literal_memo_keeps_literals_up_to_its_cap(monkeypatch, hits):
    # how often the first literal recurred changes nothing
    calls = counting(monkeypatch, pnsoft.jsonio, "parse_decimal", str)
    parse = literal_memo()
    first = parse("0.5")
    for _ in range(hits):
        assert parse("0.5") is first
    distinct = ["0.%06d" % k for k in range(MEMO_CAP + 10)]  # "0.5" is the first distinct
    values = [parse(t) for t in distinct]
    again = [parse(t) for t in distinct]
    assert again == values == [Fraction(t) for t in distinct]
    assert calls["0.5"] == 1
    kept = MEMO_CAP - 1  # literals of `distinct` that fit beside "0.5"
    assert all(calls[t] == 1 for t in distinct[:kept])
    assert all(a is b for a, b in zip(again[:kept], values))
    # past the cap, a new literal is parsed each time it occurs
    assert all(calls[t] == 2 for t in distinct[kept:])
    assert all(a is not b for a, b in zip(again[kept:], values[kept:]))


@LOADERS
def test_a_load_keeps_the_first_memo_cap_literals(monkeypatch, load, text):
    # each load reads MEMO_CAP when it starts, and its cap holds across cells
    monkeypatch.setattr(pnsoft.jsonio, "MEMO_CAP", 3)
    calls = counting(monkeypatch, pnsoft.jsonio, "parse_decimal", str)
    literals = ["0.1", "0.2", "0.3", "0.4", "0.5"]
    doc = {"parameters": ["e1", "e2"], "universe": ["u1", "u2"],
           "cells": [[dict(zip(("t", "i", "f", "mu"), literals[k:k + 4]))
                      for k in (0, 1)]] * 2}
    s = load(text(doc))
    assert dict(calls) == {"0.1": 1, "0.2": 1, "0.3": 1, "0.4": 4, "0.5": 2}
    assert s.cells[0][0].truth is s.cells[1][0].truth
    assert s.cells[0][1].falsity is not s.cells[1][1].falsity


def test_the_literal_memo_keeps_no_error():
    parse = literal_memo()
    for _ in range(2):
        with pytest.raises(ValueError):
            parse("0.5.5")
    assert parse.__self__ == {}


def test_a_render_leaves_no_reference_cycle():
    s = loads_pns(number_text(decimal_set(random.Random(7), 20, 200, 6)))
    args = argparse.Namespace(format="json")
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        pnsoft.jsonio.dumps_pns(s)
        assert gc.collect() == 0
        with contextlib.redirect_stdout(io.StringIO()):
            pnsoft.cli._emit(args, s, None)
            pnsoft.cli._emit(args, {"product": s, "rows": [[Fraction(1, 3)], ["x"]]}, None)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()
