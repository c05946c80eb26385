"""Command line interface.

One subcommand per library operation. Results print as aligned text
tables by default or as deterministic JSON with --format json (numbers
fixed at six decimal places, so identical inputs give identical bytes).
Exit status: 0 on success, 1 on a domain error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import NEGATIONS, TCONORMS, TNORMS, as_unit, make_profile
from .decision import decide
from .errors import PnsError, SchemaError
from .jsonio import _memoized, _to_jsonable, decimal_string, load_any, to_document
from .products import and_product, or_product, to_pns_set
from .sets import complement, intersection, union
from .similarity import select_by_similarity, similarity


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


def _table(headers, rows) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(cells)).rstrip()
    return "\n".join([line(headers)] + [line(row) for row in rows])


def _set_table(s, num) -> str:
    headers = [""] + list(s.universe)
    rows = []
    for p, row in zip(s.parameters, s.cells):
        rows.append([p] + [
            f"({num(c.triple.truth)},{num(c.triple.indeterminacy)},"
            f"{num(c.triple.falsity)})|{num(c.mu)}"
            for c in row])
    return _table(headers, rows)


def _matrix_table(m, separator, num) -> str:
    headers = [""] + list(m.columns)
    rows = []
    for label, row in zip(m.rows, m.entries):
        name = label if isinstance(label, str) else separator.join(label)
        rows.append([name] + [num(v) for v in row])
    return _table(headers, rows)


def _matrix_doc(m, separator) -> dict:
    return {
        "rows": [separator.join(r) if not isinstance(r, str) else r for r in m.rows],
        "columns": list(m.columns),
        "entries": [list(row) for row in m.entries],
    }


def _emit_set(s, args) -> None:
    if args.format == "json":
        print(_json(to_document(s)))
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
    if value < 1:
        raise argparse.ArgumentTypeError("p must be >= 1")
    return value


def _add_format(sub):
    sub.add_argument("--format", choices=("table", "json"), default="table",
                     help="output rendering (default: table)")


def _add_profile(sub):
    sub.add_argument("--tnorm", choices=sorted(TNORMS), default="min")
    sub.add_argument("--tconorm", choices=sorted(TCONORMS), default="max")
    sub.add_argument("--negation", choices=sorted(NEGATIONS), default="standard")


def _profile(args):
    return make_profile(tnorm=args.tnorm, tconorm=args.tconorm,
                        negation=args.negation)


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
            violations = exc.violations or [str(exc).removeprefix(f"{path}: ")]
        files.append({"path": str(path), "valid": not violations,
                      "violations": violations})
    if args.format == "json":
        print(_json({"files": files}))
    else:
        for entry in files:
            if entry["valid"]:
                print(f"{entry['path']}: ok")
            else:
                print(f"{entry['path']}: INVALID")
                for v in entry["violations"]:
                    print(f"  - {v}")
    return 0 if all(entry["valid"] for entry in files) else 1


def _cmd_combine(args) -> int:
    """union or intersect, whichever the subcommand bound to args.combine."""
    _emit_set(args.combine(load_any(args.first), load_any(args.second),
                           _profile(args)), args)
    return 0


def _cmd_complement(args) -> int:
    _emit_set(complement(load_any(args.set), _profile(args)), args)
    return 0


def _cmd_product(args) -> int:
    """and-product or or-product, whichever the subcommand bound to args.product."""
    product = args.product(load_any(args.first), load_any(args.second))
    _emit_set(to_pns_set(product, args.separator), args)
    return 0


def _cmd_decide(args) -> int:
    report = decide(load_any(args.first), load_any(args.second))
    if args.format == "json":
        doc = {
            "universe": list(report.universe),
            "product": to_document(to_pns_set(report.product, args.separator)),
            "weighted_truth": _matrix_doc(report.weighted_truth, args.separator),
            "weighted_indeterminacy": _matrix_doc(report.weighted_indeterminacy, args.separator),
            "weighted_falsity": _matrix_doc(report.weighted_falsity, args.separator),
            "truth_scores": list(report.truth_scores),
            "indeterminacy_scores": list(report.indeterminacy_scores),
            "falsity_scores": list(report.falsity_scores),
            "decision_scores": list(report.decision_scores),
            "ranking": list(report.ranking),
            "winners": list(report.winners),
        }
        print(_json(doc))
        return 0
    num = _memoized(_num)
    print("product:")
    print(_set_table(to_pns_set(report.product, args.separator), num))
    for name, matrix in (("weighted truth", report.weighted_truth),
                         ("weighted indeterminacy", report.weighted_indeterminacy),
                         ("weighted falsity", report.weighted_falsity)):
        print(f"\n{name}:")
        print(_matrix_table(matrix, args.separator, num))
    print()
    scores = _table(
        [""] + list(report.universe),
        [["truth score"] + [num(v) for v in report.truth_scores],
         ["indeterminacy score"] + [num(v) for v in report.indeterminacy_scores],
         ["falsity score"] + [num(v) for v in report.falsity_scores],
         ["decision score"] + [num(v) for v in report.decision_scores]])
    print(scores)
    print(f"\nranking: {' > '.join(report.ranking)}")
    print(f"winner: {', '.join(report.winners)}")
    return 0


def _similarity_doc(report) -> dict:
    return {
        "parameters": list(report.parameters),
        "value_components": list(report.value_components),
        "value_similarity": report.value_similarity,
        "possibility_components": list(report.possibility_components),
        "possibility_similarity": report.possibility_similarity,
        "overall": report.overall,
        "p": report.p,
        "threshold": report.threshold,
        "significant": report.significant,
    }


def _cmd_similarity(args) -> int:
    report = similarity(load_any(args.first), load_any(args.second),
                        p=args.p, threshold=args.threshold)
    if args.format == "json":
        print(_json(_similarity_doc(report)))
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
        if path.is_dir():
            inside = sorted(p for p in path.iterdir()
                            if p.suffix.lower() in (".json", ".csv"))
            if not inside:
                raise PnsError(f"directory {path} holds no candidate files")
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
        doc = {
            "candidates": [
                {"label": c.label, "overall": c.overall,
                 "significant": c.significant, "error": c.error}
                for c in report.candidates
            ],
            "selected": list(report.selected),
            "significant": list(report.significant),
            "p": report.p,
            "threshold": report.threshold,
        }
        print(_json(doc))
    else:
        rows = []
        for c in report.candidates:
            if c.error is not None:
                rows.append([c.label, "-", "-", c.error])
            else:
                rows.append([c.label, _num(c.overall),
                             "yes" if c.significant else "no", ""])
        print(_table(["candidate", "similarity", "significant", "note"], rows))
        print(f"\nselected: {', '.join(report.selected) if report.selected else '(none)'}")
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
    _add_profile(s)
    _add_format(s)
    s.set_defaults(func=_cmd_complement)

    for name, product in (("and-product", and_product), ("or-product", or_product)):
        s = sub.add_parser(name, help=f"{name.replace('-', ' ')} over parameter pairs")
        s.add_argument("first")
        s.add_argument("second")
        s.add_argument("--separator", default="*",
                       help="joins the two parameter labels (default: *)")
        _add_format(s)
        s.set_defaults(func=_cmd_product, product=product)

    s = sub.add_parser("decide", help="rank universe elements from two observations")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--separator", default="*")
    _add_format(s)
    s.set_defaults(func=_cmd_decide)

    s = sub.add_parser("similarity", help="similarity measure of two sets")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("-p", type=_order_arg, default=2,
                   help="Minkowski order for the value factor (default: 2)")
    s.add_argument("--threshold", type=_unit_arg, default=Fraction(1, 2),
                   help="significance cutoff (default: 0.5)")
    _add_format(s)
    s.set_defaults(func=_cmd_similarity)

    s = sub.add_parser("select", help="pick the candidate most similar to a model")
    s.add_argument("model")
    s.add_argument("candidates", nargs="+",
                   help="candidate files, or directories of them")
    s.add_argument("-p", type=_order_arg, default=2)
    s.add_argument("--threshold", type=_unit_arg, default=Fraction(1, 2))
    _add_format(s)
    s.set_defaults(func=_cmd_select)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
