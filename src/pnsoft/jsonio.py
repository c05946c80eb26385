"""Loading and saving sets.

Canonical format is JSON: {"parameters": [...], "universe": [...],
"cells": [[{"t":, "i":, "f":, "mu":}, ...], ...]} with one row per
parameter. Numbers parse into exact fractions (0.7 reads as 7/10) and save
back out as exact decimal literals, so a load/save cycle is the identity
byte for byte on values. A CSV importer covers spreadsheet-born data, one
line per cell.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from pathlib import Path

from .algebra import ExponentError, _label, _plain, parse_decimal
from .errors import SchemaError
from .sets import PnsSet, _listed, _summary


@functools.lru_cache(maxsize=1024)
def _decimal_scale(denominator: int):
    """(scale, factor) with denominator * factor == 10**scale, scale minimal.

    None when the denominator has a prime factor other than 2 and 5, so no
    finite decimal exists. Bounded: a set holds few distinct denominators,
    a hostile input cannot make the cache grow without limit.
    """
    twos = (denominator & -denominator).bit_length() - 1
    # the rest must be a power of five: estimate the exponent, confirm it
    # with one exact power, O(log) big-int steps even for 1e-100000
    rest = denominator >> twos
    fives = round(math.log(rest, 5))
    if 5 ** fives != rest:
        return None
    scale = max(twos, fives)
    return scale, 10 ** scale // denominator


def decimal_string(value) -> str:
    """Exact decimal rendering of a rational when one exists.

    Denominators made of twos and fives print exactly (4/5 -> "0.8");
    anything else falls back to the float repr.
    """
    fr = value if isinstance(value, Fraction) else Fraction(value)
    scaled = _decimal_scale(fr.denominator)
    if scaled is None:
        return repr(float(value))
    scale, factor = scaled
    numerator = fr.numerator
    sign = "-" if numerator < 0 else ""
    magnitude = abs(numerator) * factor
    try:
        digits = str(magnitude)
    except ValueError:  # beyond the int-to-str digit limit, which Decimal lacks
        digits = format(Decimal(magnitude), "f")
    if scale == 0:
        return sign + digits
    digits = digits.rjust(scale + 1, "0")
    whole, frac = digits[:-scale], digits[-scale:].rstrip("0")
    return sign + (whole + "." + frac if frac else whole)


def from_document(doc) -> PnsSet:
    """Check a parsed document and build the set; all problems at once.

    A broken layout leaves no cells to check; `from_rows` checks the rest.
    """
    violations = [f"missing key {key!r}" for key in ("parameters", "universe", "cells")
                  if key not in doc]
    if not violations:
        violations = [f"{key!r} must be a list of strings"
                      for key in ("parameters", "universe")
                      if not isinstance(doc[key], list)
                      or not all(isinstance(x, str) for x in doc[key])]
        if not isinstance(doc["cells"], list):
            violations.append("'cells' must be a list of rows")
    if violations:
        raise SchemaError(
            "invalid document: " + "; ".join(violations), violations=violations)
    return PnsSet.from_rows(doc["parameters"], doc["universe"], doc["cells"])


#: Entries a conversion memo holds, so that data of all-distinct values
#: costs bounded memory: a load's literal -> Fraction table is an LRU cache
#: of this size, a render memo stops inserting at it. Two-decimal data has
#: at most 101 distinct degrees; its 20x200 decide report about 5,500 values.
MEMO_CAP = 4096


def _memoized(number):
    """`number` with each distinct Fraction rendered once. Make one per output.

    Keyed by (numerator, denominator), since hashing a Fraction costs more
    than rendering one. Anything but an exact Fraction goes straight to
    `number`: 1 and Fraction(1) are equal keys but may render differently.
    """
    memo = {}

    def cached(x):
        if type(x) is not Fraction:
            return number(x)
        key = (x.numerator, x.denominator)
        text = memo.get(key)
        if text is None:
            text = number(x)
            if len(memo) < MEMO_CAP:
                memo[key] = text
        return text
    return cached


_CELL = '{"t": %s, "i": %s, "f": %s, "mu": %s}'
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _rows(s: PnsSet, number):
    """Each row of a set's cells as one JSON array, one template per cell."""
    for row in s.cells:
        yield "[%s]" % ", ".join([
            _CELL % (number(c.triple.truth), number(c.triple.indeterminacy),
                     number(c.triple.falsity), number(c.mu))
            for c in row])


def _to_jsonable(obj, number) -> str:
    """Recursively dump to JSON text; `number` renders Fractions and floats.

    Dispatch is on the exact type: a PnsSet renders its rows through
    `_rows`, bool and None are constants, any other type raises TypeError.
    Give it one `_memoized` formatter per output, so that each distinct
    Fraction is formatted once however many calls the output takes.
    """
    # frames go through %: "[%s]" % text copies text once, "[" + text + "]"
    # twice, and at the top level text is the whole output
    def render(obj):
        kind = type(obj)
        if kind is Fraction or kind is float:
            return number(obj)
        if kind is list or kind is tuple:
            return "[%s]" % ", ".join(map(render, obj))
        if kind is dict:
            return "{%s}" % ", ".join(f"{_quote(k)}: {render(v)}"
                                      for k, v in obj.items())
        if kind is str:
            return _quote(obj)
        if kind is PnsSet:
            return '{"parameters": %s, "universe": %s, "cells": [%s]}' % (
                render(obj.parameters), render(obj.universe),
                ", ".join(_rows(obj, number)))
        if kind is int:
            return str(obj)
        if kind is bool or obj is None:
            return _CONSTANTS[obj]
        raise TypeError(f"cannot render {kind.__name__} as JSON")
    return render(obj)


def dumps_pns(s: PnsSet) -> str:
    """Serialize a set with every number as an exact decimal where one exists.

    One line per label list and per matrix row, so diffs stay readable.
    """
    number = _memoized(decimal_string)
    last = len(s.cells) - 1
    return "\n".join([
        "{",
        '  "parameters": ' + _to_jsonable(s.parameters, number) + ",",
        '  "universe": ' + _to_jsonable(s.universe, number) + ",",
        '  "cells": [',
        *("    " + row + ("," if r < last else "")
          for r, row in enumerate(_rows(s, number))),
        "  ]",
        "}",
    ]) + "\n"


def _reject_constant(name):
    raise SchemaError(f"non-finite number {name} is not allowed")


def loads_pns(text: str) -> PnsSet:
    """Parse JSON text into a set; numbers become exact fractions."""
    parse = functools.lru_cache(maxsize=MEMO_CAP)(parse_decimal)
    try:
        doc = json.loads(text, parse_float=parse, parse_int=parse,
                         parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"JSON parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    except ExponentError as exc:
        raise SchemaError(f"JSON parse error: {exc}") from None
    except RecursionError:
        raise SchemaError("JSON parse error: arrays or objects nested too deeply") from None
    except ValueError:  # an integer literal beyond the int-to-str digit limit
        raise SchemaError("JSON parse error: number literal too long") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level JSON value must be an object")
    return from_document(doc)


def _load(path, loads) -> PnsSet:
    """Read a file and parse it with `loads`; an error names the file once."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        return loads(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}", violations=exc.violations) from None


def load_pns(path) -> PnsSet:
    return _load(path, loads_pns)


def save_pns(s: PnsSet, path) -> None:
    Path(path).write_text(dumps_pns(s))


CSV_COLUMNS = ("parameter", "element", "t", "i", "f", "mu")


def load_csv(path) -> PnsSet:
    """Import a set from CSV with columns parameter, element, t, i, f, mu.

    The delimiter may be comma or semicolon; with semicolons, decimal
    commas inside number fields are normalized to points. Every
    (parameter, element) pair must appear exactly once; label order follows
    first appearance.
    """
    return _load(path, loads_csv)


def loads_csv(text: str) -> PnsSet:
    text = text.removeprefix("\ufeff")  # byte order mark written by spreadsheets
    lines = io.StringIO(text, newline=None)  # \r and \r\n read as \n, as from a file
    first = next((line for line in lines if line.strip()), "")  # the header
    delimiter = ";" if first.count(";") >= first.count(",") and ";" in first else ","
    lines.seek(0)
    reader = csv.reader(lines, delimiter=delimiter)
    rows = []  # (file line the record starts on, fields) of each non-blank one
    start = 1  # a quoted field may span lines, and line_num is where a record ends
    try:
        for row in reader:
            if any(field.strip() for field in row):
                rows.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:  # such as a field beyond csv.field_size_limit()
        raise SchemaError(f"line {start}: {exc}") from None
    if not rows:
        raise SchemaError("empty CSV")
    header = [h.strip().lower() for h in rows[0][1]]
    if header != list(CSV_COLUMNS):
        raise SchemaError(
            f"header must be {', '.join(CSV_COLUMNS)}; got {_listed(header)}")
    parse = functools.lru_cache(maxsize=MEMO_CAP)(parse_decimal)
    seen, problems = {}, []
    for lineno, row in rows[1:]:
        if len(row) != len(CSV_COLUMNS):
            problems.append(
                f"line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
            continue
        p, u = row[0].strip(), row[1].strip()
        numbers = []
        for name, field in zip(CSV_COLUMNS[2:], row[2:]):
            field = field.strip()
            if delimiter == ";":
                field = field.replace(",", ".")  # decimal comma
            try:
                numbers.append(parse(field))
            except ExponentError as exc:
                problems.append(f"line {lineno}: bad number for {name} "
                                f"in cell ({_label(p)}, {_label(u)}): {exc}")
            except (ValueError, ZeroDivisionError):
                problems.append(f"line {lineno}: bad number for {name} "
                                f"in cell ({_label(p)}, {_label(u)}): {_plain(field)}")
        if (p, u) in seen:
            problems.append(f"line {lineno}: duplicate cell ({_label(p)}, {_label(u)})")
            continue
        seen[(p, u)] = tuple(numbers)
    if problems:
        raise SchemaError(_summary(problems), violations=problems)
    parameters = list(dict.fromkeys(p for p, _ in seen))
    universe = list(dict.fromkeys(u for _, u in seen))
    missing = [(p, u) for p in parameters for u in universe if (p, u) not in seen]
    if missing:
        where = ", ".join(f"({_label(p)}, {_label(u)})" for p, u in missing[:5])
        raise SchemaError(f"incomplete grid, missing cells {where}")
    grid = [[seen[(p, u)] for u in universe] for p in parameters]
    return PnsSet.from_rows(parameters, universe, grid)


def load_any(path) -> PnsSet:
    """Dispatch on file extension: .csv imports, anything else parses as JSON."""
    csv_file = Path(path).suffix.lower() == ".csv"
    return _load(path, loads_csv if csv_file else loads_pns)
