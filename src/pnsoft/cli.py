"""Command line interface.

One subcommand per library operation. Results print as aligned text
tables by default or as deterministic JSON with --format json (numbers
fixed at six decimal places, so identical inputs give identical bytes).
Exit status: 0 on success, 1 on a domain error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import TCONORMS, TNORMS, _escaped, as_unit, make_profile
from .decision import decide
from .errors import PnsError, SchemaError
from .jsonio import _memoized, _to_jsonable, decimal_string, load_any
from .products import and_product, or_product, to_pns_set
from .sets import complement, intersection, union
from .similarity import MAX_ORDER, select_by_similarity, similarity


# ---------------------------------------------------------------------------
# rendering

def _six_decimals(x) -> str:
    return "%.6f" % float(x)


def _json(doc) -> str:
    """JSON text with every number fixed at six decimal places."""
    return _to_jsonable(doc, _memoized(_six_decimals))


def _num(x) -> str:
    """Table text of a number: exact when short, else four decimals.

    A table of many numbers renders through `_memoized(_num)`.
    """
    if isinstance(x, Fraction):
        text = decimal_string(x)
        return text if len(text) <= 8 else "%.4f" % float(x)
    return "%.4f" % float(x)


def _by_identity(number):
    """`number` with each object rendered once. Make one per output.

    For outputs that repeat objects: the entries of a decide report share
    one Fraction per distinct value within a matrix, and product cells
    reuse their operands' degrees, so an id lookup answers most calls
    before the value memo behind it is asked. The memo keeps a reference
    to every object it has seen, so no id is reused while it lives; the
    report it renders holds those objects anyway.
    """
    texts, seen = {}, []

    def cached(x):
        text = texts.get(id(x))
        if text is None:
            text = texts[id(x)] = number(x)
            seen.append(x)
        return text
    return cached


def _table(headers, rows) -> str:
    """Aligned columns; the headers and each row's first cell are labels.

    A label that is not printable is escaped, so that each row stays on
    one line; printable labels keep their exact text.
    """
    headers = [_escaped(h) for h in headers]
    rows = [row if row[0].isprintable() else [_escaped(row[0]), *row[1:]]
            for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]

    def line(cells):
        return "  ".join([cell.ljust(w) for cell, w in zip(cells, widths)]).rstrip()
    return "\n".join([line(headers)] + [line(row) for row in rows])


_CELL_TEXT = "(%s,%s,%s)|%s"


def _set_table(s, num) -> str:
    return _table([""] + list(s.universe), [
        [p] + [_CELL_TEXT % (num(c.triple.truth), num(c.triple.indeterminacy),
                             num(c.triple.falsity), num(c.mu)) for c in row]
        for p, row in zip(s.parameters, s.cells)])


def _matrix_table(rows, product, num) -> str:
    """Weighted matrix rows as a table labelled like the flat `product`."""
    return _table([""] + list(product.universe),
                  [[label] + [num(v) for v in row]
                   for label, row in zip(product.parameters, rows)])


def _emit_set(s, args) -> None:
    if args.format == "json":
        print(_json(s))
    else:
        print(_set_table(s, _memoized(_num)))


# ---------------------------------------------------------------------------
# argument helpers

def _unit_arg(text: str):
    try:
        return as_unit(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _order_arg(text: str):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"p must be an integer, got {text!r}") from None
    if not 1 <= value <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"p must lie in [1, {MAX_ORDER}], got {value}")
    return value


def _add_format(sub):
    sub.add_argument("--format", choices=("table", "json"), default="table",
                     help="output rendering (default: table)")


def _add_profile(sub):
    sub.add_argument("--tnorm", choices=sorted(TNORMS), default="min")
    sub.add_argument("--tconorm", choices=sorted(TCONORMS), default="max")


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
            # the report names the file already; keep the loader's reason
            violations = exc.violations or [str(exc).removeprefix(f"{_escaped(path)}: ")]
        files.append({"path": str(path), "valid": not violations,
                      "violations": violations})
    if args.format == "json":
        print(_json({"files": files}))
    else:
        for entry in files:
            path = _escaped(entry["path"])
            if entry["valid"]:
                print(f"{path}: ok")
            else:
                print(f"{path}: INVALID")
                for v in entry["violations"]:
                    print(f"  - {v}")
    return 0 if all(entry["valid"] for entry in files) else 1


def _cmd_combine(args) -> int:
    """union or intersect, whichever the subcommand bound to args.combine."""
    profile = make_profile(tnorm=args.tnorm, tconorm=args.tconorm)
    _emit_set(args.combine(load_any(args.first), load_any(args.second), profile), args)
    return 0


def _cmd_complement(args) -> int:
    _emit_set(complement(load_any(args.set)), args)
    return 0


def _cmd_product(args) -> int:
    """and-product or or-product, whichever the subcommand bound to args.product."""
    product = args.product(load_any(args.first), load_any(args.second))
    _emit_set(to_pns_set(product, args.separator), args)
    return 0


def _cmd_decide(args) -> int:
    report = decide(load_any(args.first), load_any(args.second))
    # flatten the pair labels once, so a separator that merges two of
    # them fails before anything is printed
    product = to_pns_set(report.product, args.separator)
    matrices = (("truth", report.weighted_truth),
                ("indeterminacy", report.weighted_indeterminacy),
                ("falsity", report.weighted_falsity))
    if args.format == "json":
        doc = {"universe": report.universe, "product": product}
        for name, rows in matrices:
            doc[f"weighted_{name}"] = {"rows": product.parameters,
                                       "columns": product.universe,
                                       "entries": rows}
        doc.update(truth_scores=report.truth_scores,
                   indeterminacy_scores=report.indeterminacy_scores,
                   falsity_scores=report.falsity_scores,
                   decision_scores=report.decision_scores,
                   ranking=report.ranking,
                   winners=report.winners)
        print(_to_jsonable(doc, _by_identity(_memoized(_six_decimals))))
        return 0
    num = _by_identity(_memoized(_num))
    print("product:")
    print(_set_table(product, num))
    for name, rows in matrices:
        print(f"\nweighted {name}:")
        print(_matrix_table(rows, product, num))
    print()
    scores = _table(
        [""] + list(report.universe),
        [["truth score"] + [num(v) for v in report.truth_scores],
         ["indeterminacy score"] + [num(v) for v in report.indeterminacy_scores],
         ["falsity score"] + [num(v) for v in report.falsity_scores],
         ["decision score"] + [num(v) for v in report.decision_scores]])
    print(scores)
    print(f"\nranking: {' > '.join(map(_escaped, report.ranking))}")
    print(f"winner: {', '.join(map(_escaped, report.winners))}")
    return 0


def _cmd_similarity(args) -> int:
    report = similarity(load_any(args.first), load_any(args.second),
                        p=args.p, threshold=args.threshold)
    if args.format == "json":
        print(_json(dataclasses.asdict(report)))
        return 0
    rows = [[p, _num(v), _num(m)] for p, v, m in
            zip(report.parameters, report.value_components,
                report.possibility_components)]
    print(_table(["parameter", "value sim", "possibility sim"], rows))
    print(f"\nvalue similarity:       {_num(report.value_similarity)}")
    print(f"possibility similarity: {_num(report.possibility_similarity)}")
    print(f"overall similarity:     {_num(report.overall)}")
    print(f"significant (>= {_num(report.threshold)}): "
          f"{'yes' if report.significant else 'no'}")
    return 0


def _gather_candidates(paths):
    """(file stem, set) per candidate file; a file that does not load
    carries its SchemaError in place of the set."""
    files = []
    for raw in paths:
        path = Path(raw)
        try:
            is_dir = path.is_dir()
        except OSError:  # such as a name too long; loading it says why
            is_dir = False
        if is_dir:
            try:
                inside = sorted(p for p in path.iterdir()
                                if p.suffix.lower() in (".json", ".csv"))
            except OSError as exc:
                raise PnsError(f"cannot read directory {_escaped(path)}: {exc}") from None
            if not inside:
                raise PnsError(f"directory {_escaped(path)} holds no candidate files")
            files.extend(inside)
        else:
            files.append(path)
    candidates = []
    for p in files:
        try:
            candidates.append((p.stem, load_any(p)))
        except SchemaError as exc:
            candidates.append((p.stem, exc))
    return candidates


def _cmd_select(args) -> int:
    model = load_any(args.model)
    candidates = _gather_candidates(args.candidates)
    report = select_by_similarity(model, candidates, p=args.p,
                                  threshold=args.threshold)
    if args.format == "json":
        print(_json(dataclasses.asdict(report)))
    else:
        rows = []
        for c in report.candidates:
            if c.error is not None:
                rows.append([c.label, "-", "-", c.error])
            else:
                rows.append([c.label, _num(c.overall),
                             "yes" if c.significant else "no", ""])
        print(_table(["candidate", "similarity", "significant", "note"], rows))
        selected = ", ".join(map(_escaped, report.selected)) or "(none)"
        print(f"\nselected: {selected}")
    return 0 if report.selected else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        _add_profile(s)
        _add_format(s)
        s.set_defaults(func=_cmd_combine, combine=combine)

    s = sub.add_parser("complement", help="complement of a set")
    s.add_argument("set")
    _add_profile(s)  # accepted like the other set operators, and unused
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
    try:
        status = args.func(args)
        sys.stdout.flush()  # a write failure surfaces here, not at exit
    except PnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # commands raise no other OSError
        # what is still buffered goes to devnull, so that the flush at
        # interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed reader wants no more
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
