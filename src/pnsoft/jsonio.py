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
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from pathlib import Path

from .algebra import ExponentError, _Memo, parse_decimal
from .errors import SchemaError, _escaped, _label, _listed, _plain
from .sets import PnsSet


@functools.lru_cache(maxsize=1024)
def _decimal_scale(denominator: int):
    """The least scale with `denominator` dividing 10**scale.

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
    return max(twos, fives)


def decimal_string(value) -> str:
    """Exact decimal rendering of a rational when one exists.

    Denominators made of twos and fives print exactly (4/5 -> "0.8");
    anything else falls back to the float repr. A float is read through
    its shortest decimal, as as_unit reads it (0.7 -> "0.7"), and one that
    is not finite raises ValueError. A string is parsed as the loaders
    parse it, so an exponent beyond MAX_EXPONENT raises ValueError.
    """
    fr = value if isinstance(value, Fraction) else (
        parse_decimal(value) if isinstance(value, str) else
        Fraction(repr(value) if isinstance(value, float) else value))
    scale = _decimal_scale(fr._denominator)
    if scale is None:
        return repr(fr._numerator / fr._denominator)
    numerator = fr._numerator
    sign = "-" if numerator < 0 else ""
    magnitude = abs(numerator) * (10 ** scale // fr._denominator)
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
#: costs bounded memory: a load's literal -> Fraction memo and a render
#: memo stop inserting at this size. Two-decimal data has at most 101
#: distinct degrees; six-decimal data fills the literal memo, which then
#: parses each further new literal every time it occurs. A 20x200 decide
#: renders 5,508 distinct values held in 5,867 objects, so the CLI renders
#: that output through a memo by object identity instead of this one.
MEMO_CAP = 4096


def _memoized(number):
    """`number` with up to MEMO_CAP distinct Fractions memoized. One per output.

    Keyed by (numerator, denominator), since hashing a Fraction costs more
    than rendering one. Anything but an exact Fraction goes straight to
    `number`: 1 and Fraction(1) are equal keys but may render differently.
    """
    memo = {}

    def cached(x):
        if type(x) is not Fraction:
            return number(x)
        key = (x._numerator, x._denominator)
        text = memo.get(key)
        if text is None:
            text = number(x)
            if len(memo) < MEMO_CAP:
                memo[key] = text
        return text
    return cached


_CELL = '{"t": %s, "i": %s, "f": %s, "mu": %s}'
_CONTAINERS = frozenset({list, tuple, dict, PnsSet})
_NUMBERS = frozenset({Fraction, float})
_SCALARS = {str: _quote, int: str, bool: json.dumps, type(None): json.dumps}


def _rows(s: PnsSet, number):
    """Each row of a set's cells as one JSON array, one template per cell."""
    for row in s.cells:
        yield "[%s]" % ", ".join([
            _CELL % (number(c.truth), number(c.indeterminacy),
                     number(c.falsity), number(c.mu))
            for c in row])


def _labels(labels) -> str:
    """A set's labels as a JSON array of strings; any other label raises
    TypeError, so that no writer makes a document `loads_pns` refuses."""
    if not {str}.issuperset(map(type, labels)):
        raise TypeError("only str labels render as JSON; flatten pairs with to_pns_set")
    return "[%s]" % ", ".join(map(_quote, labels))


def _chunks(obj, number):
    """JSON text of `obj` in parts, each made when the caller asks for it.

    A dict, a PnsSet and a list of containers yield their frames and
    separators as parts of their own, a set one part per row through
    `_rows`; a flat list (a row of numbers or labels) and a scalar are one
    part each. So a writer that takes the parts as they come never holds
    more than one matrix row of the text. `number` renders Fractions and
    floats: give it one `_memoized` formatter per output, so that each of
    the first MEMO_CAP distinct Fractions is formatted once, however often
    it recurs.

    Dispatch is on the exact type: bool and None are constants, any other
    type raises TypeError. Whether a list is flat is read off its first
    item; a container further on is rendered inside the list's part.
    `_chunks` is a module function that passes `number` along, so a
    render leaves no reference cycle for the collector to free.
    """
    kind = type(obj)
    if kind is list or kind is tuple:
        if not obj or type(obj[0]) not in _CONTAINERS:
            # frames go through %: "[%s]" % text copies text once,
            # "[" + text + "]" twice; a row of numbers needs no dispatch
            if _NUMBERS.issuperset(map(type, obj)):
                yield "[%s]" % ", ".join(map(number, obj))
            else:
                yield "[%s]" % ", ".join(map("".join, map(_chunks, obj, repeat(number))))
            return
        yield "["
        for n, item in enumerate(obj):
            if n:
                yield ", "
            yield from _chunks(item, number)
        yield "]"
    elif kind is dict:
        yield "{"
        for n, (key, value) in enumerate(obj.items()):
            yield f"{', ' if n else ''}{_quote(key)}: "
            yield from _chunks(value, number)
        yield "}"
    elif kind is PnsSet:
        yield '{"parameters": %s, "universe": %s, "cells": [' % (
            _labels(obj.parameters), _labels(obj.universe))
        for n, row in enumerate(_rows(obj, number)):
            if n:
                yield ", "
            yield row
        yield "]}"
    elif kind is Fraction or kind is float:
        yield number(obj)
    elif (text := _SCALARS.get(kind)) is not None:
        yield text(obj)
    else:
        raise TypeError(f"cannot render {kind.__name__} as JSON")


def dumps_pns(s: PnsSet) -> str:
    """Serialize a set with every number as an exact decimal where one exists.

    One line per label list and per matrix row, so diffs stay readable.
    Labels must be strings: save a product through `to_pns_set`.
    """
    number = _memoized(decimal_string)
    last = len(s.cells) - 1
    return "\n".join([
        "{",
        '  "parameters": ' + _labels(s.parameters) + ",",
        '  "universe": ' + _labels(s.universe) + ",",
        '  "cells": [',
        *("    " + row + ("," if r < last else "")
          for r, row in enumerate(_rows(s, number))),
        "  ]",
        "}",
    ]) + "\n"


def _reject_constant(name):
    raise SchemaError(f"non-finite number {name} is not allowed")


def loads_pns(text: str) -> PnsSet:
    """Parse JSON text into a set; numbers become exact fractions, each of
    the first MEMO_CAP distinct literals parsed once into one Fraction."""
    parse = _Memo(parse_decimal, MEMO_CAP).__getitem__
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
    """Read a file and parse it with `loads`; an error names the file once.

    The path is named whole, with its control characters escaped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {_escaped(path)}: {exc}") from None
    try:
        return loads(text)
    except SchemaError as exc:
        raise SchemaError(f"{_escaped(path)}: {exc}", violations=exc.violations) from None


def load_pns(path) -> PnsSet:
    return _load(path, loads_pns)


def save_pns(s: PnsSet, path) -> None:
    Path(path).write_text(dumps_pns(s), encoding="utf-8")


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
    parse = _Memo(parse_decimal, MEMO_CAP).__getitem__
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
        raise SchemaError(violations=problems)
    parameters = list(dict.fromkeys(p for p, _ in seen))
    universe = list(dict.fromkeys(u for _, u in seen))
    missing = [(p, u) for p in parameters for u in universe if (p, u) not in seen]
    if missing:
        where = _listed(missing, 5, lambda cell: "(%s, %s)" % tuple(map(_label, cell)))
        raise SchemaError(f"incomplete grid, missing cells {where}")
    grid = [[seen[(p, u)] for u in universe] for p in parameters]
    return PnsSet.from_rows(parameters, universe, grid)


def load_any(path) -> PnsSet:
    """Dispatch on file extension: .csv imports, anything else parses as JSON."""
    csv_file = Path(path).suffix.lower() == ".csv"
    return _load(path, loads_csv if csv_file else loads_pns)
