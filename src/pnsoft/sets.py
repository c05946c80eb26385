"""The possibility neutrosophic soft set data model and its set operators.

A set is a dense parameters x universe matrix. Each cell holds a
neutrosophic triple plus a possibility degree weighting how credible that
assignment is. Every operator is pure and returns a new set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    DEFAULT_PROFILE,
    NeutrosophicTriple,
    NormProfile,
    ONE,
    ZERO,
    as_unit,
    n_conorm,
    n_norm,
    negate_triple,
    triple_leq,
)
from .errors import IncompatibleError, SchemaError


@dataclass(frozen=True)
class PossValue:
    """One cell: a triple and its possibility degree."""

    triple: NeutrosophicTriple
    mu: Fraction

    def __post_init__(self):
        if not isinstance(self.triple, NeutrosophicTriple):
            object.__setattr__(self, "triple", NeutrosophicTriple(*self.triple))
        object.__setattr__(self, "mu", as_unit(self.mu, "mu"))


@dataclass(frozen=True)
class PnsSet:
    """Labeled matrix of PossValue, one row per parameter, one column per element.

    The bare constructor stores what it is given. Use `from_rows` for
    checked construction, or `validate` to audit an instance built by hand.
    """

    parameters: tuple
    universe: tuple
    cells: tuple

    @classmethod
    def from_rows(cls, parameters, universe, rows) -> "PnsSet":
        """Build a set from nested (t, i, f, mu) cells with full checking.

        `rows` is one sequence per parameter, each holding one cell per
        universe element. A cell may be a PossValue, a (triple, mu) pair, a
        flat (t, i, f, mu) tuple or a {"t", "i", "f", "mu"} mapping. Shape
        or range problems raise one SchemaError listing every violation,
        each naming the offending coordinates.
        """
        parameters = tuple(str(p) for p in parameters)
        universe = tuple(str(u) for u in universe)
        cells, violations = _build(parameters, universe, rows)
        if violations:
            raise SchemaError(_summary(violations), violations=violations)
        return cls(parameters=parameters, universe=universe, cells=cells)

    def cell(self, parameter, element) -> PossValue:
        i = self.parameters.index(parameter)
        j = self.universe.index(element)
        return self.cells[i][j]

    @property
    def shape(self):
        return (len(self.parameters), len(self.universe))


_new = object.__new__
_set = object.__setattr__


def _trusted_cell(truth, indeterminacy, falsity, mu) -> PossValue:
    """A cell built without the range checks of its constructors.

    Only for degrees that are already checked Fractions: those `_build`
    has just passed through as_unit, or those the products pick from
    checked cells. Equal to, and hashing like, the checked cell.
    """
    triple = _new(NeutrosophicTriple)
    _set(triple, "truth", truth)
    _set(triple, "indeterminacy", indeterminacy)
    _set(triple, "falsity", falsity)
    cell = _new(PossValue)
    _set(cell, "triple", triple)
    _set(cell, "mu", mu)
    return cell


_FIELDS = ("t", "i", "f", "mu")
_MISSING = object()


def _summary(violations) -> str:
    """One bounded message line; the exception carries the full list."""
    text = "; ".join(violations[:5])
    if len(violations) > 5:
        text += f"; and {len(violations) - 5} more"
    return text


def _check_cell(cell):
    """(checked cell, ()) for a well-formed raw cell, else (None, problems).

    A cell is a PossValue, which its constructor checked, a {"t", "i",
    "f", "mu"} mapping, a flat (t, i, f, mu) sequence or a ((t, i, f), mu)
    pair.
    """
    if isinstance(cell, PossValue):
        return cell, ()
    if isinstance(cell, dict):
        raw = [cell.get(field, _MISSING) for field in _FIELDS]
    else:
        try:
            raw = () if isinstance(cell, str) else tuple(cell)
            if len(raw) == 2:
                raw = (*raw[0], raw[1])
        except TypeError:
            raw = ()
        if len(raw) != 4:
            return None, ["expected {t, i, f, mu}, (t, i, f, mu) or ((t, i, f), mu)"]
    degrees, problems = [], []
    for field, value in zip(_FIELDS, raw):
        if value is _MISSING:
            problems.append(f"missing {field!r}")
            continue
        try:
            degrees.append(as_unit(value, field))
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        return None, problems
    return _trusted_cell(*degrees), ()


def _build(parameters, universe, rows):
    """Check raw rows against their labels in one pass and build the cells.

    This is the one check of the input invariant: non-empty distinct
    labels, one row per parameter, one cell per element, every degree in
    [0, 1]. Each raw degree goes through as_unit exactly once, and the
    checked Fractions become the cells directly. Returns (cells,
    violations); the cells are meaningful only when violations is empty.
    """
    violations = []
    for what, labels in (("parameter", parameters), ("universe", universe)):
        if not labels:
            violations.append(f"{what} list must be non-empty")
        elif len(set(labels)) != len(labels):
            violations.append(f"duplicate {what} labels")
    rows = list(rows)
    if len(rows) != len(parameters):
        violations.append(f"expected {len(parameters)} rows for "
                          f"{len(parameters)} parameters, got {len(rows)}")
    matrix = []
    for r, row in enumerate(rows):
        p = parameters[r] if r < len(parameters) else f"row {r}"
        if isinstance(row, (str, dict)) or not hasattr(row, "__iter__"):
            violations.append(f"row {p!r} is not a list")
            continue
        row = list(row)
        if len(row) != len(universe):
            violations.append(f"row {p!r}: expected {len(universe)} cells for "
                              f"{len(universe)} elements, got {len(row)}")
        built = []
        for c, raw in enumerate(row):
            cell, problems = _check_cell(raw)
            if problems:
                u = universe[c] if c < len(universe) else f"col {c}"
                violations.extend(f"cell ({p}, {u}): {v}" for v in problems)
            built.append(cell)
        matrix.append(tuple(built))
    return tuple(matrix), violations


def _document_shape(doc) -> list:
    """Layout problems of a parsed document that leave no cells to check."""
    missing = [f"missing key {key!r}" for key in ("parameters", "universe", "cells")
               if key not in doc]
    if missing:
        return missing
    violations = [f"{key!r} must be a list of strings" for key in ("parameters", "universe")
                  if not isinstance(doc[key], list)
                  or not all(isinstance(x, str) for x in doc[key])]
    if not isinstance(doc["cells"], list):
        violations.append("'cells' must be a list of rows")
    return violations


def validate(obj) -> list:
    """Audit a PnsSet (or a raw document dict) and list every violation.

    Returns a list of human readable strings, one per problem, each naming
    the (parameter, element) coordinates where that is meaningful. An empty
    list means the object is valid. The checks are those of `from_rows`.
    """
    if isinstance(obj, dict):
        violations = _document_shape(obj)
        if violations:
            return violations
        return _build(obj["parameters"], obj["universe"], obj["cells"])[1]
    return _build(obj.parameters, obj.universe, obj.cells)[1]


def null_set(parameters, universe) -> PnsSet:
    """Bottom of the subset order: every triple (0,1,1) with possibility 0."""
    return _constant_set(parameters, universe, PossValue(ZERO, 0))


def universal_set(parameters, universe) -> PnsSet:
    """Top of the subset order: every triple (1,0,0) with possibility 1."""
    return _constant_set(parameters, universe, PossValue(ONE, 1))


def _constant_set(parameters, universe, value):
    parameters, universe = list(parameters), list(universe)
    return PnsSet.from_rows(parameters, universe,
                            [[value] * len(universe)] * len(parameters))


def _require_same_labels(f: PnsSet, g: PnsSet):
    # reordering is a deliberate separate step, never done implicitly
    if f.parameters != g.parameters or f.universe != g.universe:
        raise IncompatibleError(
            "operands must share parameter and universe labels in the same order; "
            f"got {f.parameters}x{f.universe} vs {g.parameters}x{g.universe}")


def _cellwise(f: PnsSet, g: PnsSet, op) -> PnsSet:
    cells = tuple(
        tuple(op(a, b) for a, b in zip(fr, gr))
        for fr, gr in zip(f.cells, g.cells)
    )
    return PnsSet(parameters=f.parameters, universe=f.universe, cells=cells)


def is_subset(f: PnsSet, g: PnsSet) -> bool:
    """Cellwise order: possibility degrees and triples must both dominate."""
    _require_same_labels(f, g)
    return all(
        a.mu <= b.mu and triple_leq(a.triple, b.triple)
        for fr, gr in zip(f.cells, g.cells)
        for a, b in zip(fr, gr)
    )


def equals(f: PnsSet, g: PnsSet) -> bool:
    _require_same_labels(f, g)
    return is_subset(f, g) and is_subset(g, f)


def union(f: PnsSet, g: PnsSet, profile: NormProfile | None = None) -> PnsSet:
    """Cellwise n-conorm on triples, t-conorm on possibility degrees."""
    _require_same_labels(f, g)
    p = profile if profile is not None else DEFAULT_PROFILE
    return _cellwise(
        f, g, lambda a, b: PossValue(n_conorm(a.triple, b.triple, p),
                                     p.tconorm(a.mu, b.mu)))


def intersection(f: PnsSet, g: PnsSet, profile: NormProfile | None = None) -> PnsSet:
    """Cellwise n-norm on triples, t-norm on possibility degrees."""
    _require_same_labels(f, g)
    p = profile if profile is not None else DEFAULT_PROFILE
    return _cellwise(
        f, g, lambda a, b: PossValue(n_norm(a.triple, b.triple, p),
                                     p.tnorm(a.mu, b.mu)))


def complement(f: PnsSet, profile: NormProfile | None = None) -> PnsSet:
    """Negate every triple and every possibility degree."""
    p = profile if profile is not None else DEFAULT_PROFILE
    cells = tuple(
        tuple(PossValue(negate_triple(c.triple, p), p.scalar_negation(c.mu))
              for c in row)
        for row in f.cells
    )
    return PnsSet(parameters=f.parameters, universe=f.universe, cells=cells)
