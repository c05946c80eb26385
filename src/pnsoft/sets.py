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
    _label,
    _plain,
    as_unit,
    triple_leq,
)
from .errors import IncompatibleError, SchemaError


@dataclass(frozen=True, slots=True)
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

    The bare constructor stores what it is given. `from_rows` is the
    checked construction; to audit an instance built by hand, pass its
    fields to `from_rows` and read the SchemaError's violations.
    """

    parameters: tuple
    universe: tuple
    cells: tuple

    @classmethod
    def from_rows(cls, parameters, universe, rows) -> "PnsSet":
        """Build a set from nested (t, i, f, mu) cells with full checking.

        `rows` is one sequence per parameter, each holding one cell per
        universe element. A cell may be a PossValue, a flat (t, i, f, mu)
        sequence or a {"t", "i", "f", "mu"} mapping. This is the one check
        of a set: non-empty distinct labels, one row per parameter, one
        cell per element, every degree in [0, 1]. Each raw degree goes
        through as_unit exactly once, and the checked Fractions become the
        cells directly. Problems raise one SchemaError listing every
        violation, each naming the offending coordinates.
        """
        parameters = tuple(str(p) for p in parameters)
        universe = tuple(str(u) for u in universe)
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
                violations.append(f"row {_plain(p)} is not a list")
                continue
            row = list(row)
            if len(row) != len(universe):
                violations.append(f"row {_plain(p)}: expected {len(universe)} cells "
                                  f"for {len(universe)} elements, got {len(row)}")
            built = []
            for c, raw in enumerate(row):
                cell, problems = _check_cell(raw)
                if problems:
                    u = universe[c] if c < len(universe) else f"col {c}"
                    violations.extend(f"cell ({_label(p)}, {_label(u)}): {v}"
                                      for v in problems)
                built.append(cell)
            matrix.append(tuple(built))
        if violations:
            raise SchemaError(_summary(violations), violations=violations)
        return cls(parameters=parameters, universe=universe, cells=tuple(matrix))

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

    Only for degrees that are already checked Fractions: those `from_rows`
    has just passed through as_unit, those the products pick from checked
    cells, and those the named norm families compute from them, which stay
    exact Fractions in [0, 1]. Equal to, and hashing like, the checked cell.
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
    "f", "mu"} mapping or a flat (t, i, f, mu) sequence.
    """
    if isinstance(cell, PossValue):
        return cell, ()
    if isinstance(cell, dict):
        raw = [cell.get(field, _MISSING) for field in _FIELDS]
    else:
        try:
            raw = () if isinstance(cell, str) else tuple(cell)
        except TypeError:
            raw = ()
        if len(raw) != 4:
            return None, ["expected {t, i, f, mu} or (t, i, f, mu)"]
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


def _listed(labels) -> str:
    """A label list in a message: its first six labels, then how many more."""
    text = ", ".join(_label(x) for x in labels[:6])
    if len(labels) > 6:
        text += f", and {len(labels) - 6} more"
    return text


def _require_same_labels(f: PnsSet, g: PnsSet):
    # reordering is a deliberate separate step, never done implicitly
    if f.parameters != g.parameters or f.universe != g.universe:
        raise IncompatibleError(
            "operands must share parameter and universe labels in the same order; "
            f"got ({_listed(f.parameters)})x({_listed(f.universe)}) "
            f"vs ({_listed(g.parameters)})x({_listed(g.universe)})")


def _combined(fr, gr, on_truth, on_other) -> tuple:
    """Combine two rows cell by cell: on_truth on truth and mu, on_other on
    the rest."""
    return tuple(_trusted_cell(on_truth(a.triple.truth, b.triple.truth),
                               on_other(a.triple.indeterminacy, b.triple.indeterminacy),
                               on_other(a.triple.falsity, b.triple.falsity),
                               on_truth(a.mu, b.mu))
                 for a, b in zip(fr, gr))


def _cellwise(f: PnsSet, g: PnsSet, on_truth, on_other) -> PnsSet:
    """Combine matching rows through `_combined`."""
    cells = tuple(_combined(fr, gr, on_truth, on_other)
                  for fr, gr in zip(f.cells, g.cells))
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


def union(f: PnsSet, g: PnsSet, profile: NormProfile = DEFAULT_PROFILE) -> PnsSet:
    """Cellwise n-conorm on triples, t-conorm on possibility degrees."""
    _require_same_labels(f, g)
    return _cellwise(f, g, profile.tconorm, profile.tnorm)


def intersection(f: PnsSet, g: PnsSet, profile: NormProfile = DEFAULT_PROFILE) -> PnsSet:
    """Cellwise n-norm on triples, t-norm on possibility degrees."""
    _require_same_labels(f, g)
    return _cellwise(f, g, profile.tnorm, profile.tconorm)


def complement(f: PnsSet) -> PnsSet:
    """Negate every triple and every possibility degree: (t, i, f), mu
    becomes (f, 1 - i, t), 1 - mu."""
    cells = tuple(
        tuple(_trusted_cell(c.triple.falsity, 1 - c.triple.indeterminacy,
                            c.triple.truth, 1 - c.mu)
              for c in row)
        for row in f.cells
    )
    return PnsSet(parameters=f.parameters, universe=f.universe, cells=cells)
