import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pnsoft import (
    PnsSet,
    SchemaError,
    decimal_string,
    equals,
    from_document,
    load_any,
    load_csv,
    load_pns,
    loads_csv,
    loads_pns,
    save_pns,
)
from pnsoft.jsonio import _chunks, _decimal_scale, _text, dumps_pns

from conftest import FIXTURES, load_fixture

units = st.integers(0, 20).map(lambda k: Fraction(k, 20))


def longhand_decimal_string(value):
    """decimal_string spelled out without any cache, factor by factor."""
    fr = Fraction(value)
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    den = fr.denominator
    scale2 = scale5 = 0
    while den % 2 == 0:
        den //= 2
        scale2 += 1
    while den % 5 == 0:
        den //= 5
        scale5 += 1
    if den != 1:
        return repr(float(value))
    scale = max(scale2, scale5)
    scaled = fr.numerator * 10 ** scale // fr.denominator
    if scale == 0:
        return sign + str(scaled)
    digits = str(scaled).rjust(scale + 1, "0")
    whole, frac = digits[:-scale], digits[-scale:].rstrip("0")
    return sign + (whole + "." + frac if frac else whole)


@st.composite
def pns_sets(draw):
    n_params = draw(st.integers(1, 3))
    n_elems = draw(st.integers(1, 3))
    rows = [[(draw(units), draw(units), draw(units), draw(units))
             for _ in range(n_elems)] for _ in range(n_params)]
    return PnsSet.from_rows(
        [f"e{i + 1}" for i in range(n_params)],
        [f"u{j + 1}" for j in range(n_elems)],
        rows,
    )


class TestDecimalString:
    @pytest.mark.parametrize("value,expect", [
        (Fraction(4, 5), "0.8"),
        (Fraction(1), "1"),
        (Fraction(0), "0"),
        (Fraction(59, 50), "1.18"),
        (Fraction(7, 20), "0.35"),
        (Fraction(1, 8), "0.125"),
        (Fraction(1, 200), "0.005"),
        (Fraction(-1, 2), "-0.5"),
        (Fraction(3, 1), "3"),
        # twos and fives in unequal numbers
        (Fraction(1, 40), "0.025"),
        (Fraction(3, 1250), "0.0024"),
        (Fraction(1, 1024), "0.0009765625"),
        (Fraction(7, 3125), "0.00224"),
        (Fraction(1, 2**20 * 5**3), "0.00000000762939453125"),
        # negatives and integers above one
        (Fraction(-7, 40), "-0.175"),
        (Fraction(-3, 1), "-3"),
        (Fraction(12), "12"),
        (7, "7"),
        (Fraction(1001, 8), "125.125"),
        # a float is read through its shortest decimal, as as_unit reads it
        (0.1, "0.1"),
        (0.7, "0.7"),
        (1e-07, "0.0000001"),
        (0.1 + 0.2, "0.30000000000000004"),
    ])
    def test_exact_decimals(self, value, expect):
        assert decimal_string(value) == expect

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_a_float_that_is_not_finite_is_refused(self, value):
        with pytest.raises(ValueError):
            decimal_string(value)

    def test_non_decimal_falls_back_to_float_repr(self):
        assert decimal_string(Fraction(1, 3)) == "0.3333333333333333"
        assert decimal_string(Fraction(1, 7)) == repr(1 / 7)
        assert decimal_string(Fraction(-1, 3)) == "-0.3333333333333333"
        assert decimal_string(Fraction(-2, 7)) == "-0.2857142857142857"
        assert decimal_string(Fraction(22, 7)) == "3.142857142857143"

    def test_more_denominators_than_the_cache_holds(self):
        size = _decimal_scale.cache_info().maxsize
        denominators = [2**a * 5**b for a in range(40) for b in range(40)]
        denominators += [3 * d for d in denominators[:300]] + list(range(1, 500))
        assert len(set(denominators)) > size
        for _ in range(2):  # the second pass meets evicted entries
            for den in denominators:
                for num in (1, den - 1, -(den + 3)):
                    value = Fraction(num, den)
                    assert decimal_string(value) == longhand_decimal_string(value), value
        assert _decimal_scale.cache_info().currsize <= size

    @given(units)
    def test_decimal_strings_parse_back_exactly(self, x):
        assert Fraction(decimal_string(x)) == x


class TestJsonRoundTrip:
    @given(s=pns_sets())
    def test_document_round_trip(self, s):
        # rendering is a fixed point: text read back renders to the same bytes
        text = dumps_pns(s)
        assert dumps_pns(loads_pns(text)) == text

    @given(s=pns_sets())
    def test_text_round_trip_is_exact(self, s):
        text = dumps_pns(s)
        assert loads_pns(text) == s

    def test_file_round_trip(self, tmp_path):
        s = load_fixture("cars_assessment_a.json")
        out = tmp_path / "copy.json"
        save_pns(s, out)
        assert load_pns(out) == s

    @pytest.mark.parametrize("row", [
        (Fraction(1, 2), Fraction(3, 4), 0.25),
        [Fraction(1, 3), 1, Fraction(0)],
        (Fraction(1, 2), "u1", True, None, 0.5),
        (0.125,),
    ], ids=["numbers", "an-int", "labels-and-constants", "one-float"])
    def test_a_flat_row_renders_each_item_as_on_its_own(self, row):
        calls = []

        def number(x):
            calls.append(x)
            return decimal_string(x)

        expected = "[%s]" % ", ".join(_text(x, decimal_string) for x in row)
        assert "".join(_chunks(row, number)) == expected
        assert calls == [x for x in row if type(x) in (Fraction, float)]

    def test_serialization_is_deterministic(self):
        s = load_fixture("cars_assessment_b.json")
        assert dumps_pns(s) == dumps_pns(s)
        assert dumps_pns(s).endswith("\n")

    def test_decimals_load_exactly(self):
        s = loads_pns('{"parameters": ["e1"], "universe": ["u1"],'
                      ' "cells": [[{"t": 0.7, "i": 0.1, "f": 0.2, "mu": 0.3}]]}')
        c = s.cell("e1", "u1")
        assert c.triple.truth == Fraction(7, 10)
        assert c.mu == Fraction(3, 10)

    def test_all_shipped_fixtures_are_valid(self):
        paths = sorted(FIXTURES.glob("*.json")) + sorted((FIXTURES / "applicants").glob("*.json"))
        assert len(paths) == 12
        for path in paths:
            doc = json.loads(path.read_text(), parse_float=Fraction)
            assert from_document(doc) == load_pns(path), path.name


class TestJsonErrors:
    def test_parse_error_carries_position(self):
        with pytest.raises(SchemaError, match=r"line 1, column 6"):
            loads_pns('{"a":')

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError, match="top level"):
            loads_pns("[1, 2]")

    def test_non_finite_rejected(self):
        text = ('{"parameters": ["e1"], "universe": ["u1"],'
                ' "cells": [[{"t": NaN, "i": 0, "f": 0, "mu": 0}]]}')
        with pytest.raises(SchemaError, match="non-finite"):
            loads_pns(text)

    def test_out_of_range_names_the_cell(self):
        text = ('{"parameters": ["e1"], "universe": ["u1"],'
                ' "cells": [[{"t": 0.5, "i": 0.2, "f": 0.6, "mu": 1.3}]]}')
        with pytest.raises(SchemaError, match=r"cell \(e1, u1\).*mu") as exc:
            loads_pns(text)
        assert exc.value.violations and len(exc.value.violations) == 1

    def test_every_violation_is_listed(self):
        text = ('{"parameters": ["e1", "e2"], "universe": ["u1"],'
                ' "cells": [[{"t": 2, "i": 0, "f": 0, "mu": 0}]]}')
        with pytest.raises(SchemaError) as exc:
            loads_pns(text)
        assert len(exc.value.violations) == 2  # shape and range

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_pns(tmp_path / "nope.json")

    def test_file_errors_carry_the_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(SchemaError, match="bad.json"):
            load_pns(bad)


def one_cell_document(t):
    return ('{"parameters": ["e1"], "universe": ["u1"],'
            ' "cells": [[{"t": %s, "i": 0, "f": 0, "mu": 0}]]}' % t)


class TestHostileInput:
    @pytest.mark.parametrize("literal", ["1e400", "1e5000", "-1e400"])
    def test_oversized_literal_gets_a_bounded_range_message(self, literal):
        with pytest.raises(SchemaError) as exc:
            loads_pns(one_cell_document(literal))
        [violation] = exc.value.violations
        assert violation.startswith("cell (e1, u1): t must lie in [0, 1], got ")
        assert len(violation) < 80

    def test_integer_degrees_share_one_fraction_per_literal(self):
        cell = '{"t": 1, "i": 0, "f": 0, "mu": 1}'
        s = loads_pns('{"parameters": ["e1"], "universe": ["u1", "u2", "u3"],'
                      ' "cells": [[%s]]}' % ", ".join([cell] * 3))
        degrees = [x for c in s.cells[0] for x in (*c.triple, c.mu)]
        assert len(degrees) == 12 and len({id(x) for x in degrees}) == 2
        assert all(type(x) is Fraction for x in degrees)

    def test_out_of_range_integer_echoes_as_in_csv(self):
        with pytest.raises(SchemaError) as exc:
            loads_pns(one_cell_document("2"))
        assert exc.value.violations == ["cell (e1, u1): t must lie in [0, 1], got 2.0"]
        with pytest.raises(SchemaError) as from_csv:
            loads_csv("parameter,element,t,i,f,mu\ne1,u1,2,0,0,0\n")
        assert from_csv.value.violations == exc.value.violations

    def test_overlong_integer_literal(self):
        with pytest.raises(SchemaError, match="number literal too long") as exc:
            loads_pns(one_cell_document("1" + "0" * 5000))
        assert len(str(exc.value)) < 80

    def test_long_text_is_not_echoed_in_full(self):
        with pytest.raises(SchemaError) as exc:
            loads_pns(one_cell_document('"%s"' % ("x" * 5000)))
        [violation] = exc.value.violations
        assert "t is not a number" in violation and len(violation) < 100

    def test_tiny_literal_renders_exactly_and_fast(self):
        start = time.perf_counter()
        tiny = loads_pns(one_cell_document("1e-100000")).cell("e1", "u1").triple.truth
        assert decimal_string(tiny) == "0." + "0" * 99999 + "1"
        # beyond the int-to-str digit limit
        assert decimal_string(1 - Fraction(1, 10**20000)) == "0." + "9" * 20000
        # generous: counting the fives one division at a time takes ~20 s
        # on a 2-vCPU Xeon VM
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("text", ["[" * 100000,
                                      '{"parameters": ' + "[" * 100000],
                             ids=["top", "inside"])
    def test_deep_nesting(self, text):
        with pytest.raises(SchemaError, match="nested too deeply"):
            loads_pns(text)

    def test_csv_byte_order_mark(self, tmp_path):
        assert loads_csv("\ufeff" + CSV_COMMA) == loads_csv(CSV_COMMA)
        path = tmp_path / "bom.csv"
        path.write_text(CSV_COMMA, encoding="utf-8-sig")
        assert load_csv(path) == loads_csv(CSV_COMMA)


CSV_COMMA = """parameter,element,t,i,f,mu
e1,u1,0.5,0.2,0.6,0.8
e1,u2,0.7,0.3,0.5,0.4
e2,u1,1,0,0,1
e2,u2,0,1,1,0
"""

CSV_SEMI = """parameter;element;t;i;f;mu
e1;u1;0,5;0,2;0,6;0,8
e1;u2;0,7;0,3;0,5;0,4
e2;u1;1;0;0;1
e2;u2;0;1;1;0
"""


class TestCsv:
    def test_comma_layout(self):
        s = loads_csv(CSV_COMMA)
        assert s.parameters == ("e1", "e2")
        assert s.universe == ("u1", "u2")
        assert s.cell("e1", "u1").mu == Fraction(4, 5)

    def test_semicolon_with_decimal_commas(self):
        assert loads_csv(CSV_SEMI) == loads_csv(CSV_COMMA)

    @pytest.mark.parametrize("text", [CSV_COMMA, CSV_SEMI], ids=["comma", "semicolon"])
    @pytest.mark.parametrize("blank", ["\n", " \t \n"], ids=["empty", "whitespace"])
    def test_the_delimiter_is_sniffed_past_leading_blank_lines(self, text, blank):
        assert loads_csv(blank + text) == loads_csv(text)

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_carriage_returns_read_like_newlines(self, newline):
        assert loads_csv(CSV_COMMA.replace("\n", newline)) == loads_csv(CSV_COMMA)

    def test_label_order_follows_first_appearance(self):
        text = ("parameter,element,t,i,f,mu\n"
                "b,y,0,0,0,0\n" "b,x,0,0,0,0\n"
                "a,y,0,0,0,0\n" "a,x,0,0,0,0\n")
        s = loads_csv(text)
        assert s.parameters == ("b", "a")
        assert s.universe == ("y", "x")

    def test_matches_json_fixture(self, tmp_path):
        s = load_fixture("cars_assessment_a.json")
        lines = ["parameter,element,t,i,f,mu"]
        for p in s.parameters:
            for u in s.universe:
                c = s.cell(p, u)
                lines.append(",".join([p, u] + [decimal_string(x) for x in
                                                (*c.triple, c.mu)]))
        path = tmp_path / "cars.csv"
        path.write_text("\n".join(lines) + "\n")
        assert equals(load_csv(path), s)

    def test_load_any_dispatch(self, tmp_path):
        (tmp_path / "s.csv").write_text(CSV_COMMA)
        s = load_fixture("cars_assessment_a.json")
        save_pns(s, tmp_path / "s.json")
        assert load_any(tmp_path / "s.csv") == loads_csv(CSV_COMMA)
        assert load_any(tmp_path / "s.json") == s

    @pytest.mark.parametrize("text,match", [
        ("", "empty CSV"),
        ("parameter,element,t,i,f\na,x,0,0,0\n", "header must be"),
        ("parameter,element,t,i,f,mu\na,x,0,0,0\n", "line 2: expected 6 fields"),
        ("parameter,element,t,i,f,mu\na,x,0,zero,0,0\n", "line 2: bad number for i"),
        ("parameter,element,t,i,f,mu\na,x,0,0,0,0\na,x,0,0,0,0\n",
         r"line 3: duplicate cell \(a, x\)"),
        ("parameter,element,t,i,f,mu\na,x,0,0,0,0\na,y,0,0,0,0\nb,x,0,0,0,0\n",
         r"missing cells \(b, y\)"),
        ("parameter,element,t,i,f,mu\na,x,0.5,0.2,0.6,1.3\n", r"cell \(a, x\).*mu"),
        # numbered by file line, blank lines included
        ("\nparameter,element,t,i,f,mu\n\ne1,u1,x,0,0,0\n",
         r"^line 4: bad number for t in cell \(e1, u1\)"),
        # by the line a record starts on, when a quoted label spans lines
        ('parameter,element,t,i,f,mu\n"e\n1",u1,x,0,0,0\n',
         r"^line 2: bad number for t in cell \(e\\n1, u1\): 'x'$"),
        ('parameter,element,t,i,f,mu\n"e\n1",u1,0,0,0,0\ne2,u1,x,0,0,0\n',
         r"^line 4: bad number for t in cell \(e2, u1\)"),
    ])
    def test_diagnostics(self, text, match):
        with pytest.raises(SchemaError, match=match):
            loads_csv(text)

    def test_a_field_beyond_the_csv_limit_is_named_by_line(self):
        text = "parameter,element,t,i,f,mu\na,x," + "1" * 140_000 + ",0,0,0\n"
        with pytest.raises(SchemaError, match=r"^line 2: field larger than field limit"):
            loads_csv(text)


HUGE_EXPONENTS = ["1e-1000000000", "1E+1000000000", "-2.5e-100001", "1e100001"]


class TestExponentLimit:
    @pytest.mark.parametrize("literal", HUGE_EXPONENTS)
    def test_json_literal(self, literal):
        start = time.perf_counter()
        with pytest.raises(SchemaError, match=r"exponent out of range") as exc:
            loads_pns(one_cell_document(literal))
        assert time.perf_counter() - start < 1
        assert len(str(exc.value)) < 120

    @pytest.mark.parametrize("literal", HUGE_EXPONENTS)
    def test_csv_field(self, literal):
        start = time.perf_counter()
        with pytest.raises(SchemaError, match=r"line 2: bad number for t in cell "
                                              r"\(a, x\): decimal exponent") as exc:
            loads_csv(f"parameter,element,t,i,f,mu\na,x,{literal},0,0,0\n")
        assert time.perf_counter() - start < 1
        assert len(str(exc.value)) < 120

    def test_limit_itself_loads(self):
        s = loads_csv("parameter,element,t,i,f,mu\na,x,1e-100000,0,0,0\n")
        assert s.cell("a", "x").triple.truth == Fraction(1, 10**100000)


class TestCsvRangeErrors:
    def test_message_names_the_file_and_keeps_the_violations(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("parameter,element,t,i,f,mu\ne1,u1,1.5,0,0,0\n")
        with pytest.raises(SchemaError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: cell (e1, u1): t must lie in [0, 1], got 1.5"
        assert exc.value.violations == ["cell (e1, u1): t must lie in [0, 1], got 1.5"]
