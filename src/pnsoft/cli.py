"""Command line interface.

One subcommand per library operation. Results print as aligned text
tables by default or as deterministic JSON with --format json (numbers
fixed at six decimal places, so identical inputs give identical bytes).
Exit status: 0 on success, 1 on a domain error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import re
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from .algebra import TCONORMS, TNORMS, as_unit, make_profile
from .decision import decide
from .errors import PnsError, SchemaError, _cut, _escaped, _plain
from .jsonio import _chunks, _decimal_scale, _memoized, decimal_string, load_any
from .sets import and_product, complement, intersection, or_product, to_pns_set, union
from .similarity import MAX_ORDER, select_by_similarity, similarity


# ---------------------------------------------------------------------------
# rendering

def _six_decimals(x) -> str:
    """`"%.6f" % float(x)`. A Fraction's float is its int slots divided:
    int true division rounds correctly, as float() of a Fraction does."""
    return "%.6f" % (x._numerator / x._denominator if type(x) is Fraction else x)


def _num(x) -> str:
    """Table text of a number: exact when short, else four decimals. A
    denominator of twos and fives that does not divide 10**6 needs seven
    places or more, so its long exact text is never built."""
    if isinstance(x, Fraction):
        d = x._denominator
        if not 1_000_000 % d or _decimal_scale(d) is None:
            text = decimal_string(x)
            if len(text) <= 8:
                return text
        x = x._numerator / d
    return "%.4f" % x


def _by_identity(number):
    """`number` with each object rendered once. Make one per output.

    The render memo of `decide` and the products, whose outputs repeat
    objects rather than values: product cells reuse their operands'
    degrees, and equal weighted entries share one Fraction, so few objects
    hold the same value and no value memo is put behind this one. The memo
    keeps a reference to every object it has seen, so no id is reused
    while it lives; the output it renders holds those objects anyway.
    """
    texts, seen = {}, []

    def cached(x):
        text = texts.get(id(x))
        if text is None:
            text = texts[id(x)] = number(x)
            seen.append(x)
        return text
    return cached


def _emit(args, doc, table, memo=_memoized) -> None:
    """Write a command's output to stdout as it is made, then its one
    closing newline: `doc` as JSON under --format json, else the lines of
    `table(num)`.

    The output's one number formatter is `memo(_six_decimals)` for JSON
    and `memo(_num)` for a table. No output is held whole: a write is at
    most one table line or one matrix row, so a write that fails partway
    leaves a prefix of the output on stdout.
    """
    write = sys.stdout.write
    if args.format == "json":
        for part in _chunks(doc, memo(_six_decimals)):
            write(part)
    else:
        for n, line in enumerate(table(memo(_num))):
            if n:
                write("\n")
            write(line)
    write("\n")


#: the widest a table column pads to. A cell's text is at most 36
#: characters, four numbers of at most 8, and the widest text in the golden
#: outputs has 21: only a longer label overflows its column, so that one
#: long label does not pad every line of every section to its length.
_PAD_MAX = 40


def _table(headers, rows):
    """The lines of aligned columns; the headers and each row's first cell
    are labels.

    A label that is not printable is escaped, so that each row stays on
    one line; printable labels keep their exact text. The column widths
    need every row, so the cell texts of the whole table are kept until
    its last line is made. A text longer than `_PAD_MAX` overflows its
    column.
    """
    headers = [_escaped(h) for h in headers]
    rows = [row if row[0].isprintable() else [_escaped(row[0]), *row[1:]]
            for row in rows]
    widths = [min(max(map(len, column)), _PAD_MAX) for column in zip(headers, *rows)]

    for cells in (headers, *rows):
        yield "  ".join([cell.ljust(w) for cell, w in zip(cells, widths)]).rstrip()


def _grid(labels, universe, rows, texts):
    """The table lines of `rows` under a `universe` header, each row after
    its label; `texts(row)` gives the texts of one row's cells."""
    return _table(["", *universe],
                  [[label, *texts(row)] for label, row in zip(labels, rows)])


_CELL_TEXT = "(%s,%s,%s)|%s"


def _set_table(s, num):
    return _grid(s.parameters, s.universe, s.cells, lambda row: [
        _CELL_TEXT % (num(c.truth), num(c.indeterminacy), num(c.falsity), num(c.mu))
        for c in row])


# ---------------------------------------------------------------------------
# argument helpers

#: a token of an argparse message: an argument it echoes quoted, or a word
_TOKEN = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+""")


class _Parser(argparse.ArgumentParser):
    """argparse, with every token of its messages cut as `_plain` cuts it.

    A rejected choice or an unknown argument is echoed in its message;
    the subparsers are built from this class too."""

    def error(self, message):
        super().error(_TOKEN.sub(lambda m: _cut(m[0]), message))


def _unit_arg(text: str):
    try:
        return as_unit(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _order_arg(text: str):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"p must be an integer, got {_plain(text)}") from None
    if not 1 <= value <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"p must lie in [1, {MAX_ORDER}], got {_plain(value)}")
    return value


def _add_format(sub):
    sub.add_argument("--format", choices=("table", "json"), default="table",
                     help="output rendering (default: table)")


def _add_profile(sub, role):
    sub.add_argument("--tnorm", choices=sorted(TNORMS), default="min",
                     help=f"t-norm family {role} (default: min)")
    sub.add_argument("--tconorm", choices=sorted(TCONORMS), default="max",
                     help=f"t-conorm family {role} (default: max)")


def _add_separator(sub):
    sub.add_argument("--separator", default="*",
                     help="joins the two parameter labels (default: *)")


def _add_similarity_options(sub):
    sub.add_argument("-p", type=_order_arg, default=2,
                     help=f"Minkowski order for the value factor, 1 to {MAX_ORDER} "
                          "(default: 2)")
    sub.add_argument("--threshold", type=_unit_arg, default=Fraction(1, 2),
                     help="significance cutoff (default: 0.5)")


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(args) -> int:
    files = []
    for path in args.files:
        try:
            load_any(path)
            violations = []
        except SchemaError as exc:
            violations = exc.violations
        files.append({"path": str(path), "valid": not violations,
                      "violations": violations})
    _emit(args, {"files": files}, lambda num: _validate_lines(files))
    return 0 if all(entry["valid"] for entry in files) else 1


def _validate_lines(files):
    for entry in files:
        path = _escaped(entry["path"])
        if entry["valid"]:
            yield f"{path}: ok"
        else:
            yield f"{path}: INVALID"
            for v in entry["violations"]:
                yield f"  - {v}"


def _cmd_combine(args) -> int:
    """union or intersect, whichever the subcommand bound to args.combine."""
    profile = make_profile(tnorm=args.tnorm, tconorm=args.tconorm)
    s = args.combine(load_any(args.first), load_any(args.second), profile)
    _emit(args, s, partial(_set_table, s))
    return 0


def _cmd_complement(args) -> int:
    s = complement(load_any(args.set))
    _emit(args, s, partial(_set_table, s))
    return 0


def _cmd_product(args) -> int:
    """and-product or or-product, whichever the subcommand bound to args.product."""
    product = args.product(load_any(args.first), load_any(args.second))
    s = to_pns_set(product, args.separator)
    _emit(args, s, partial(_set_table, s), memo=_by_identity)
    return 0


def _cmd_decide(args) -> int:
    report = decide(load_any(args.first), load_any(args.second))
    # flatten the pair labels once, so a separator that merges two of
    # them fails before anything is written
    product = to_pns_set(report.product, args.separator)
    matrices = (("truth", report.weighted_truth),
                ("indeterminacy", report.weighted_indeterminacy),
                ("falsity", report.weighted_falsity))
    doc = {**vars(report), "product": product,
           **{f"weighted_{name}": {"rows": product.parameters,
                                   "columns": product.universe,
                                   "entries": rows}
              for name, rows in matrices}}
    _emit(args, doc, partial(_decide_lines, report, product, matrices),
          memo=_by_identity)
    return 0


def _decide_lines(report, product, matrices, num):
    texts = partial(map, num)
    yield "product:"
    yield from _set_table(product, num)
    for name, rows in matrices:
        yield ""
        yield f"weighted {name}:"
        yield from _grid(product.parameters, product.universe, rows, texts)
    yield ""
    yield from _grid(
        ["truth score", "indeterminacy score", "falsity score", "decision score"],
        report.universe,
        [report.truth_scores, report.indeterminacy_scores, report.falsity_scores,
         report.decision_scores],
        texts)
    yield ""
    yield f"ranking: {' > '.join(map(_escaped, report.ranking))}"
    yield f"winner: {', '.join(map(_escaped, report.winners))}"


def _cmd_similarity(args) -> int:
    report = similarity(load_any(args.first), load_any(args.second),
                        p=args.p, threshold=args.threshold)
    _emit(args, dataclasses.asdict(report), partial(_similarity_lines, report))
    return 0


def _similarity_lines(report, num):
    yield from _table(["parameter", "value sim", "possibility sim"],
                      [[p, num(v), num(m)] for p, v, m in
                       zip(report.parameters, report.value_components,
                           report.possibility_components)])
    yield ""
    yield f"value similarity:       {num(report.value_similarity)}"
    yield f"possibility similarity: {num(report.possibility_similarity)}"
    yield f"overall similarity:     {num(report.overall)}"
    yield (f"significant (>= {num(report.threshold)}): "
           f"{'yes' if report.significant else 'no'}")


def _gather_candidates(paths):
    """(file stem, set) per candidate file, each loaded when it is reached;
    a file that does not load carries its SchemaError in place of the set."""
    for raw in paths:
        path = Path(raw)
        files = [path]
        if os.path.isdir(path):  # False too for a path it cannot inspect; loading says why
            try:
                files = sorted(p for p in path.iterdir()
                               if p.suffix.lower() in (".json", ".csv"))
            except OSError as exc:
                raise PnsError(f"cannot read directory {_escaped(path)}: {exc}") from None
            if not files:
                raise PnsError(f"directory {_escaped(path)} holds no candidate files")
        for p in files:
            try:
                candidate = load_any(p)
            except SchemaError as exc:
                candidate = exc
            yield p.stem, candidate


def _cmd_select(args) -> int:
    report = select_by_similarity(load_any(args.model), _gather_candidates(args.candidates),
                                  p=args.p, threshold=args.threshold)
    _emit(args, dataclasses.asdict(report), partial(_select_lines, report))
    return 0 if report.selected else 1


def _select_lines(report, num):
    rows = []
    for c in report.candidates:
        if c.error is not None:
            rows.append([c.label, "-", "-", c.error])
        else:
            rows.append([c.label, num(c.overall),
                         "yes" if c.significant else "no", ""])
    yield from _table(["candidate", "similarity", "significant", "note"], rows)
    yield ""
    yield f"selected: {', '.join(map(_escaped, report.selected)) or '(none)'}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pnsoft",
        description="possibility neutrosophic soft set toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check JSON or CSV files, listing every violation")
    s.add_argument("files", nargs="+")
    _add_format(s)
    s.set_defaults(func=_cmd_validate)

    for name, combine in (("union", union), ("intersect", intersection)):
        s = sub.add_parser(name, help=f"{name} of two sets")
        s.add_argument("first")
        s.add_argument("second")
        _add_profile(s, "combining the two sets")
        _add_format(s)
        s.set_defaults(func=_cmd_combine, combine=combine)

    s = sub.add_parser("complement", help="complement of a set")
    s.add_argument("set")
    _add_profile(s, "accepted as by union and intersect, and ignored: "
                    "the complement is always the standard negation")
    _add_format(s)
    s.set_defaults(func=_cmd_complement)

    for name, product in (("and-product", and_product), ("or-product", or_product)):
        s = sub.add_parser(name, help=f"{name.replace('-', ' ')} over parameter pairs")
        s.add_argument("first")
        s.add_argument("second")
        _add_separator(s)
        _add_format(s)
        s.set_defaults(func=_cmd_product, product=product)

    s = sub.add_parser("decide", help="rank universe elements from two observations")
    s.add_argument("first")
    s.add_argument("second")
    _add_separator(s)
    _add_format(s)
    s.set_defaults(func=_cmd_decide)

    s = sub.add_parser("similarity", help="similarity measure of two sets")
    s.add_argument("first")
    s.add_argument("second")
    _add_similarity_options(s)
    _add_format(s)
    s.set_defaults(func=_cmd_similarity)

    s = sub.add_parser("select", help="pick the candidate most similar to a model")
    s.add_argument("model")
    s.add_argument("candidates", nargs="+",
                   help="candidate files, or directories of them")
    _add_similarity_options(s)
    _add_format(s)
    s.set_defaults(func=_cmd_select)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command makes many objects and few reference cycles, so the cyclic
    # collector would run about a hundred times for next to nothing. It is
    # paused for the command and resumed only if it ran before.
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()  # a write failure surfaces here, not at exit
    except PnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeEncodeError) as exc:  # commands raise these only in writing
        # what is still buffered goes to devnull, so that the flush at
        # interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a closed reader wants no more
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
    return status


if __name__ == "__main__":
    sys.exit(main())
