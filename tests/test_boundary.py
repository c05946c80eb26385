"""The input boundary: every entry point runs the same single-pass check.

Each test is parametrized over entry point x field, so a check that one
path dropped shows up as a failing (entry point, field) pair.
"""

import json
from fractions import Fraction

import pytest

import pnsoft.algebra
import pnsoft.sets
from pnsoft import (
    NeutrosophicTriple,
    PnsSet,
    PossValue,
    SchemaError,
    load_pns,
    loads_csv,
    loads_pns,
    validate,
)
from pnsoft.cli import main

from conftest import fixture

FIELDS = ("t", "i", "f", "mu")
UNIVERSE = ["u1", "u2"]
GOOD = {"t": 0.5, "i": 0.2, "f": 0.6, "mu": 0.8}


def flat(cell):
    return tuple(cell[k] for k in FIELDS)


def from_rows_flat(cells):
    return PnsSet.from_rows(["e1"], UNIVERSE, [[flat(c) for c in cells]])


def from_rows_pair(cells):
    return PnsSet.from_rows(["e1"], UNIVERSE,
                            [[((c["t"], c["i"], c["f"]), c["mu"]) for c in cells]])


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
    return validate(document(cells))


def validate_set(cells):
    # a hand-built instance whose cells are still raw tuples
    return validate(PnsSet(parameters=("e1",), universe=tuple(UNIVERSE),
                           cells=(tuple(flat(c) for c in cells),)))


BUILDERS = [from_rows_flat, from_rows_pair, from_rows_dict, via_loads_pns,
            via_loads_csv]
ENTRY_POINTS = BUILDERS + [validate_dict, validate_set]


def violations_of(entry, cells):
    try:
        out = entry(cells)
    except SchemaError as exc:
        return exc.violations
    return out if isinstance(out, list) else []


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
    assert entry([GOOD, GOOD]) == []


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


def one_row(cells):
    return '{"parameters": ["e1"], "universe": ["u1"], "cells": %s}' % cells


CELL_SHAPE = "expected {t, i, f, mu}, (t, i, f, mu) or ((t, i, f), mu)"
LAYOUTS = {
    "no-universe": ('{"parameters": ["e1"], "cells": [[]]}',
                    "invalid document: missing key 'universe'"),
    "cells-number": (one_row("3"),
                     "invalid document: 'cells' must be a list of rows"),
    "row-number": (one_row("[3]"), "row 'e1' is not a list"),
    "row-object": (one_row('[{"t": 0.5}]'), "row 'e1' is not a list"),
    "cell-string": (one_row('[["0.5"]]'), f"cell (e1, u1): {CELL_SHAPE}"),
    "cell-three": (one_row("[[[0.5, 0.2, 0.6]]]"), f"cell (e1, u1): {CELL_SHAPE}"),
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
