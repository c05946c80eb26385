"""The input boundary: every entry point runs the same single-pass check.

Each test is parametrized over entry point x field, so a check that one
path dropped shows up as a failing (entry point, field) pair.
"""

import io
import json
import re
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pnsoft.algebra
import pnsoft.sets
from pnsoft import (
    NeutrosophicTriple,
    PnsSet,
    PossValue,
    SchemaError,
    decimal_string,
    from_document,
    load_pns,
    loads_csv,
    loads_pns,
    union,
)
from pnsoft.cli import main
from pnsoft.errors import _plain

from conftest import fixture

FIELDS = ("t", "i", "f", "mu")
UNIVERSE = ["u1", "u2"]
GOOD = {"t": 0.5, "i": 0.2, "f": 0.6, "mu": 0.8}


def flat(cell):
    return tuple(cell[k] for k in FIELDS)


def from_rows_flat(cells):
    return PnsSet.from_rows(["e1"], UNIVERSE, [[flat(c) for c in cells]])


def from_rows_dict(cells):
    return PnsSet.from_rows(["e1"], UNIVERSE, [[dict(c) for c in cells]])


def document(cells):
    return {"parameters": ["e1"], "universe": UNIVERSE, "cells": [list(cells)]}


def via_loads_pns(cells):
    return loads_pns(json.dumps(document(cells)))


def via_loads_csv(cells):
    lines = ["parameter,element,t,i,f,mu"]
    lines += [",".join(["e1", u] + [str(v) for v in flat(c)])
              for u, c in zip(UNIVERSE, cells)]
    return loads_csv("\n".join(lines) + "\n")


def validate_dict(cells):
    # the audit of a parsed document: its one check, from_document
    return from_document(document(cells))


def validate_set(cells):
    # the audit of a hand-built instance, whose cells are still raw tuples:
    # from_rows on its fields
    s = PnsSet(parameters=("e1",), universe=tuple(UNIVERSE),
               cells=(tuple(flat(c) for c in cells),))
    return PnsSet.from_rows(s.parameters, s.universe, s.cells)


BUILDERS = [from_rows_flat, from_rows_dict, via_loads_pns, via_loads_csv]
ENTRY_POINTS = BUILDERS + [validate_dict, validate_set]


def violations_of(entry, cells):
    try:
        entry(cells)
    except SchemaError as exc:
        return exc.violations
    return []


def named(violation, u, field):
    # the loaders' own number check speaks of a line; both name the cell
    return (f"cell (e1, {u})" in violation
            and any(f"{field} {verb}" in violation
                    for verb in ("must lie", "is not a number", "in cell")))


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("bad", [1.5, -0.25, "x"], ids=["high", "negative", "text"])
def test_a_bad_degree_is_named_by_cell_and_field(entry, field, bad):
    cells = [dict(GOOD, **{field: bad}), GOOD]
    violations = violations_of(entry, cells)
    assert len(violations) == 1, violations
    assert named(violations[0], "u1", field), violations


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("bad", [(2, -1), ("x", "y")], ids=["range", "text"])
def test_two_bad_cells_give_two_violations(entry, field, bad):
    # one kind at a time: like a JSON syntax error, a CSV field that is no
    # number stops the load before any range is checked
    cells = [dict(GOOD, **{field: bad[0]}), dict(GOOD, **{field: bad[1]})]
    violations = violations_of(entry, cells)
    assert len(violations) == 2, violations
    assert named(violations[0], "u1", field) and named(violations[1], "u2", field)


@pytest.mark.parametrize("entry", BUILDERS, ids=lambda e: e.__name__)
def test_built_cells_match_the_checked_constructors(entry):
    cells = [GOOD, {"t": 1, "i": 0, "f": "1/3", "mu": 0.35}]
    built = entry(cells)
    for u, c in zip(UNIVERSE, cells):
        checked = PossValue(NeutrosophicTriple(c["t"], c["i"], c["f"]), c["mu"])
        assert built.cell("e1", u) == checked
        assert hash(built.cell("e1", u)) == hash(checked)
        cell = built.cell("e1", u)
        assert all(type(x) is Fraction for x in (*cell.triple, cell.mu))


@pytest.mark.parametrize("entry", [validate_dict, validate_set],
                         ids=lambda e: e.__name__)
def test_validate_agrees_on_good_cells(entry):
    # an audit that passes yields the checked set, which the operators take
    s = entry([GOOD, GOOD])
    assert s == from_rows_flat([GOOD, GOOD])
    assert union(s, s) == s


def test_from_rows_lists_every_violation():
    with pytest.raises(SchemaError) as exc:
        PnsSet.from_rows(["e1", "e1"], ["u1"], [[(2, 0, 0, 0)]])
    assert exc.value.violations == [
        "duplicate parameter labels",
        "expected 2 rows for 2 parameters, got 1",
        "cell (e1, u1): t must lie in [0, 1], got 2",
    ]


def test_message_quotes_a_bounded_number_of_violations():
    rows = [[(2, 0, 0, 0)] * 40]
    with pytest.raises(SchemaError) as exc:
        PnsSet.from_rows(["e1"], [f"u{k}" for k in range(40)], rows)
    assert len(exc.value.violations) == 40
    assert str(exc.value).endswith("; and 35 more")


def test_a_schema_error_always_lists_its_reasons():
    assert SchemaError("x").violations == ["x"]
    assert str(SchemaError("x")) == "x"
    assert SchemaError("x", violations=["a", "b"]).violations == ["a", "b"]


@pytest.mark.parametrize("count,line", [
    (1, "r0"),
    (5, "r0; r1; r2; r3; r4"),
    (40, "r0; r1; r2; r3; r4; and 35 more"),
], ids=["1", "5", "40"])
def test_a_schema_error_of_reasons_reads_as_one_bounded_line(count, line):
    reasons = [f"r{k}" for k in range(count)]
    exc = SchemaError(violations=reasons)
    assert str(exc) == line
    assert exc.violations == reasons


@pytest.mark.parametrize("load", [
    lambda: load_pns(fixture("cars_assessment_a.json")),
    lambda: loads_csv("parameter,element,t,i,f,mu\n"
                      "e1,u1,0.5,0.2,0.6,0.8\ne1,u2,1,0,0,1\n"),
], ids=["json", "csv"])
def test_each_loaded_degree_is_checked_exactly_once(load, monkeypatch):
    calls = []
    real = pnsoft.algebra.as_unit

    def counting(value, what="value"):
        calls.append(what)
        return real(value, what)

    # the constructors' checks call algebra.as_unit, the builder sets.as_unit
    monkeypatch.setattr(pnsoft.algebra, "as_unit", counting)
    monkeypatch.setattr(pnsoft.sets, "as_unit", counting)
    s = load()
    cells = len(s.parameters) * len(s.universe)
    assert len(calls) == 4 * cells
    assert sorted(set(calls)) == sorted(FIELDS)


@pytest.mark.parametrize("cell,checked,messages", [
    ({"t": 2, "i": 0.5, "f": "x", "mu": 1}, list(FIELDS),
     ["t must lie in [0, 1], got 2", "f is not a number: 'x'"]),
    ((2, 0.5, "x", True), list(FIELDS),
     ["t must lie in [0, 1], got 2", "f is not a number: 'x'",
      "mu must be a number, got a boolean"]),
    ({"i": 2, "mu": 1}, ["i", "mu"],
     ["missing 't'", "i must lie in [0, 1], got 2", "missing 'f'"]),
], ids=["mapping", "sequence", "missing"])
def test_a_failing_cell_checks_each_degree_once(cell, checked, messages, monkeypatch):
    calls = []
    real = pnsoft.algebra.as_unit

    def counting(value, what="value"):
        calls.append(what)
        return real(value, what)

    monkeypatch.setattr(pnsoft.algebra, "as_unit", counting)
    monkeypatch.setattr(pnsoft.sets, "as_unit", counting)
    with pytest.raises(SchemaError) as exc:
        PnsSet.from_rows(["e1"], ["u1"], [[cell]])
    assert calls == checked
    assert exc.value.violations == [f"cell (e1, u1): {m}" for m in messages]


def test_a_defaulting_mapping_is_not_asked_for_a_missing_degree():
    cell = defaultdict(float, {"t": 0.5, "i": 0.5})
    with pytest.raises(SchemaError) as exc:
        PnsSet.from_rows(["e1"], ["u1"], [[cell]])
    assert exc.value.violations == ["cell (e1, u1): missing 'f'", "cell (e1, u1): missing 'mu'"]
    assert cell == {"t": 0.5, "i": 0.5}


class _Degree(Fraction):
    pass


@pytest.mark.parametrize("value,message", [
    (Fraction(3, 2), "t must lie in [0, 1], got 1.5"),
    (Fraction(-1, 4), "t must lie in [0, 1], got -0.25"),
    (True, "t must be a number, got a boolean"),
    (_Degree(3, 2), "t must lie in [0, 1], got 1.5"),
], ids=["above", "below", "bool", "subclass"])
def test_a_degree_off_the_fast_path_keeps_its_message(value, message):
    with pytest.raises(ValueError) as exc:
        pnsoft.algebra.as_unit(value, "t")
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [Fraction(0), Fraction(1, 3), Fraction(1)],
                         ids=["zero", "third", "one"])
def test_a_degree_in_range_is_returned_as_it_is(value):
    assert pnsoft.algebra.as_unit(value, "t") is value


@pytest.mark.parametrize("value", [_Degree(0), _Degree(1, 2), _Degree(1)],
                         ids=["zero", "half", "one"])
def test_a_subclass_degree_becomes_an_exact_fraction(value):
    out = pnsoft.algebra.as_unit(value, "t")
    assert type(out) is Fraction and out == value


def one_row(cells):
    return '{"parameters": ["e1"], "universe": ["u1"], "cells": %s}' % cells


CELL_SHAPE = "expected {t, i, f, mu} or (t, i, f, mu)"
LAYOUTS = {
    "no-universe": ('{"parameters": ["e1"], "cells": [[]]}',
                    "invalid document: missing key 'universe'"),
    "cells-number": (one_row("3"),
                     "invalid document: 'cells' must be a list of rows"),
    "row-number": (one_row("[3]"), "row 'e1' is not a list"),
    "row-object": (one_row('[{"t": 0.5}]'), "row 'e1' is not a list"),
    "cell-string": (one_row('[["0.5"]]'), f"cell (e1, u1): {CELL_SHAPE}"),
    "cell-number": (one_row("[[3]]"), f"cell (e1, u1): {CELL_SHAPE}"),
    "cell-null": (one_row("[[null]]"), f"cell (e1, u1): {CELL_SHAPE}"),
    "cell-three": (one_row("[[[0.5, 0.2, 0.6]]]"), f"cell (e1, u1): {CELL_SHAPE}"),
    "cell-pair": (one_row("[[[[0.5, 0.2, 0.6], 0.8]]]"), f"cell (e1, u1): {CELL_SHAPE}"),
}


@pytest.mark.parametrize("text,message", LAYOUTS.values(), ids=LAYOUTS)
def test_a_broken_layout_gets_its_exact_message(text, message):
    with pytest.raises(SchemaError) as exc:
        loads_pns(text)
    assert str(exc.value) == message
    assert exc.value.violations == [message.removeprefix("invalid document: ")]


@pytest.mark.parametrize("text,message", LAYOUTS.values(), ids=LAYOUTS)
def test_a_broken_layout_ends_the_cli_in_one_error_line(tmp_path, capsys,
                                                        text, message):
    path = tmp_path / "broken.json"
    path.write_text(text)
    assert main(["complement", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_poss_value_takes_a_plain_tuple_triple():
    cell = PossValue((0.5, "1/5", Fraction(3, 5)), 0.8)
    assert type(cell.triple) is NeutrosophicTriple
    assert cell == PossValue(NeutrosophicTriple(0.5, 0.2, 0.6), Fraction(4, 5))
    with pytest.raises(ValueError, match=r"^truth must lie in \[0, 1\], got 1.5$"):
        PossValue((1.5, 0, 0), 0)



@pytest.mark.parametrize("field", FIELDS)
def test_an_int_too_long_to_print_is_named_by_cell_field_and_range(field):
    cells = [dict(GOOD, **{field: 10 ** 5000}), GOOD]
    assert violations_of(from_rows_flat, cells) == [
        f"cell (e1, u1): {field} must lie in [0, 1], "
        f"got an integer of more than {sys.get_int_max_str_digits()} digits"]


@pytest.mark.parametrize("what", ["parameter", "universe"])
def test_an_int_label_too_long_to_print_is_named_by_its_list(what):
    labels = {"parameter": ["e1"], "universe": ["u1"], what: [10 ** 5000]}
    with pytest.raises(SchemaError) as exc:
        PnsSet.from_rows(labels["parameter"], labels["universe"], [[flat(GOOD)]])
    assert exc.value.violations == [
        f"{what} list: cannot use an integer of more than "
        f"{sys.get_int_max_str_digits()} digits as a label"]


def test_a_repr_that_fails_on_anything_but_an_int_is_not_described():
    class Unprintable:
        def __repr__(self):
            raise ValueError("no repr")

    with pytest.raises(ValueError, match="^no repr$"):
        _plain(Unprintable())


# ---------------------------------------------------------------------------
# hostile input: fixture bytes with spliced-in trouble

CARS = fixture("cars_assessment_a.json")


def _as_csv(s):
    lines = [",".join(("parameter", "element") + FIELDS)]
    for p, row in zip(s.parameters, s.cells):
        for u, c in zip(s.universe, row):
            lines.append(",".join([p, u] + [decimal_string(x) for x in (*c.triple, c.mu)]))
    return ("\n".join(lines) + "\n").encode()


SOURCES = {"json": CARS.read_bytes(), "csv": _as_csv(load_pns(CARS))}
NUMBER = re.compile(rb"\d+(?:\.\d+)?")

DEPTHS = st.sampled_from([1, 3, 1500, 5000])
# 140000 passes csv.field_size_limit() (131072)
LENGTHS = st.sampled_from([30, 4200, 4400, 20000, 140_000])
HOSTILE = (
    st.sampled_from([
        b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff",      # byte order marks
        b",", b";", b"\t", b";,", b",;", b"0,5", b'"',     # mixed delimiters
        b"NaN", b"-NaN", b"nan", b"Infinity", b"-Infinity", b"inf", b"-inf",
        b'"NaN"', b'"Infinity"', b"1e400", b"1E-999999", b"1e+100001", b"1/0",
        b"\r",                                            # old Mac line end
        b"\n", b"\x1b", b'"e\\n1\\r\\u001b"',                # control characters
    ])
    # nesting from a stray list to beyond the recursion limit
    | DEPTHS.map(lambda n: b"[" * n + b"0.5" + b"]" * n)
    | DEPTHS.map(lambda n: b'{"t": ' * n)
    # digits on both sides of the int-to-str conversion limit (4300)
    | LENGTHS.map(lambda n: b"0." + b"1" * n)
    | LENGTHS.map(lambda n: b"9" * n)
)


@st.composite
def hostile_documents(draw):
    """(kind, bytes): a fixture with one to four hostile splices.

    A splice either replaces one number literal, so that the damage gets
    past the parser, or lands at a random offset, where it may overwrite a
    few bytes.
    """
    kind = draw(st.sampled_from(sorted(SOURCES)))
    data = SOURCES[kind]
    for _ in range(draw(st.integers(1, 4))):
        numbers = [m.span() for m in NUMBER.finditer(data)]
        if numbers and draw(st.booleans()):
            at, end = draw(st.sampled_from(numbers))
        else:
            at = draw(st.integers(0, len(data)))
            end = at + draw(st.integers(0, 8))
        data = data[:at] + draw(HOSTILE) + data[end:]
    return kind, data


#: CSV with bare carriage returns, and CSV with one field beyond the limit
CSV_CR = ("csv", SOURCES["csv"].replace(b"\n", b"\r"))
CSV_LONG_FIELD = ("csv", SOURCES["csv"].replace(b"\n", b"\n" + b"9" * 140_000, 1))


@settings(max_examples=150, deadline=2000)
@given(document=hostile_documents())
@example(document=CSV_CR)
@example(document=CSV_LONG_FIELD)
def test_hostile_text_raises_only_schema_error(document):
    kind, data = document
    loads = {"json": loads_pns, "csv": loads_csv}[kind]
    try:
        loads(data.decode("utf-8", errors="replace"))
    except SchemaError:
        pass


@settings(max_examples=60, deadline=2000)
@given(document=hostile_documents(),
       command=st.sampled_from(["validate", "complement", "union"]))
@example(document=CSV_CR, command="complement")
@example(document=CSV_LONG_FIELD, command="validate")
@example(document=CSV_LONG_FIELD, command="complement")
def test_hostile_files_end_the_cli_in_at_most_one_error_line(document, command):
    kind, data = document
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"hostile.{kind}"
        path.write_bytes(data)
        argv = [command, str(path)] + ([str(CARS)] if command == "union" else [])
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse
                status = exc.code
    errors = err.getvalue()
    assert status in (0, 1, 2), errors
    if errors:
        assert_one_error_line(errors)


def assert_one_error_line(errors):
    """Exactly one printable `error:` line of at most 2,000 characters."""
    line, end, rest = errors.partition("\n")
    assert line.startswith("error:") and end and not rest, errors[:2000]
    assert len(line) <= 2000 and line.isprintable(), line[:2000]


#: labels a terminal must not see raw, and one no message can quote whole
HOSTILE_LABELS = {"newline": "e\n1", "return": "e\r1", "escape": "e\x1b[2J1",
                  "long": "e" * 100_000}


def labelled(kind, label, truth):
    """A one-cell set with parameter `label`, as JSON or CSV text."""
    if kind == "json":
        return json.dumps({"parameters": [label], "universe": ["u1"],
                           "cells": [[{"t": truth, "i": 0, "f": 0, "mu": 1}]]})
    quoted = '"%s"' % label.replace('"', '""')
    return f"parameter,element,t,i,f,mu\n{quoted},u1,{truth},0,0,1\n"


@pytest.mark.parametrize("label", HOSTILE_LABELS.values(), ids=HOSTILE_LABELS)
@pytest.mark.parametrize("kind", ["json", "csv"])
@pytest.mark.parametrize("case", ["bad-cell", "mismatch"])
def test_a_hostile_label_ends_the_cli_in_one_bounded_line(tmp_path, capsys,
                                                          label, kind, case):
    path = tmp_path / f"labelled.{kind}"
    path.write_text(labelled(kind, label, 2 if case == "bad-cell" else 0.5), newline="")
    argv = ["complement", str(path)]
    if case == "mismatch":
        other = tmp_path / "other.json"
        other.write_text(labelled("json", "e1", 0.5))
        argv = ["union", str(path), str(other)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_error_line(err)
    # escaped as repr escapes it (a CSV file reads \r as a line end, \n)
    shown = (r"e\n1", r"e\r1", r"e\x1b[2J1", "e" * 37 + "...")
    assert any(text in err for text in shown), err
