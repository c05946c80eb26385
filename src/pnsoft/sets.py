"""The possibility neutrosophic soft set data model, its set operators and
its AND and OR products.

A set is a dense parameters x universe matrix. Each cell holds a
neutrosophic triple plus a possibility degree weighting how credible that
assignment is. Every operator is pure and returns a new set.

Row (p, q) of the AND product is the min/max intersection of row p of the
first set with row q of the second, and row (p, q) of the OR product their
min/max union, whatever norm profile drives union and intersection: the
worked decision matrices are reproducible only that way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, attrgetter, getitem, le, mul

from .algebra import (
    DEFAULT_PROFILE,
    NeutrosophicTriple,
    NormProfile,
    ONE,
    ZERO,
    as_unit,
    negation_standard,
    tconorm_max,
    tnorm_min,
    triple_leq,
)
from .errors import IncompatibleError, SchemaError, _label, _listed, _plain


@dataclass(frozen=True, slots=True, init=False)
class PossValue:
    """One cell, held flat: the three degrees of a triple and its possibility mu.
    `PossValue(triple, mu)` checks them; `triple` builds the NeutrosophicTriple."""

    truth: Fraction
    indeterminacy: Fraction
    falsity: Fraction
    mu: Fraction

    def __new__(cls, triple, mu):
        if not isinstance(triple, NeutrosophicTriple):
            triple = NeutrosophicTriple(*triple)
        return _trusted_cell(*triple, as_unit(mu, "mu"))

    def __reduce__(self):  # __new__ needs arguments: pickle and copy use _trusted_cell
        return _trusted_cell, (self.truth, self.indeterminacy, self.falsity, self.mu)

    @property
    def triple(self) -> NeutrosophicTriple:
        return NeutrosophicTriple(self.truth, self.indeterminacy, self.falsity)


@dataclass(frozen=True)
class PnsSet:
    """Labeled matrix of PossValue, one row per parameter, one column per element.

    The bare constructor stores what it is given, and every reader of the
    cells needs each degree to be an exact Fraction in [0, 1]. `from_rows`
    is the checked construction that makes them so; to audit an instance
    built by hand, pass its fields to `from_rows` and read the
    SchemaError's violations.
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
        parameters = _texts("parameter", parameters)
        universe = _texts("universe", universe)
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
            raise SchemaError(violations=violations)
        return cls(parameters=parameters, universe=universe, cells=tuple(matrix))

    def cell(self, parameter, element) -> PossValue:
        try:
            return self.cells[self.parameters.index(parameter)][self.universe.index(element)]
        except ValueError:
            raise ValueError(f"no cell ({_label(parameter)}, {_label(element)})") from None

    @property
    def shape(self):
        return (len(self.parameters), len(self.universe))

    def __getstate__(self):
        """`vars(self)` without the private `_` entries a set keeps for
        speed: pickles and copies leave them out, and readers rebuild them."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


def _texts(what, labels):
    """Labels as text; an int too long to print is a SchemaError, not a ValueError."""
    texts = []
    for x in labels:
        try:
            texts.append(str(x))
        except ValueError:  # past the int-to-str digit limit
            raise SchemaError(f"{what} list: cannot use {_plain(x)} as a label") from None
    return tuple(texts)


_new = object.__new__
# the slot descriptors' setters, bound once: a frozen dataclass refuses
# setattr, and object.__setattr__ would look each name up on every store
_set_truth, _set_indeterminacy, _set_falsity, _set_mu = (
    vars(PossValue)[name].__set__ for name in ("truth", "indeterminacy", "falsity", "mu"))


def _trusted_cell(truth, indeterminacy, falsity, mu) -> PossValue:
    """A cell built from its degrees, which it does not check: one allocation.

    Only for degrees that are already checked Fractions: those `from_rows`
    or `PossValue` has just passed through as_unit, and those the named
    norm families compute or pick from them, exact Fractions in [0, 1].
    Equal to, and hashing like, the checked cell.
    """
    cell = _new(PossValue)
    _set_truth(cell, truth)
    _set_indeterminacy(cell, indeterminacy)
    _set_falsity(cell, falsity)
    _set_mu(cell, mu)
    return cell


_drain = deque(maxlen=0).extend   # runs an iterator for its side effects only


def _trusted_row(size, truths, indeterminacies, falsities, mus) -> tuple:
    """`size` cells built from four iterables of degrees, as `_trusted_cell`
    builds one, with every allocation and store a C call through `map`."""
    cells = tuple(map(_new, repeat(PossValue, size)))
    _drain(map(_set_truth, cells, truths))
    _drain(map(_set_indeterminacy, cells, indeterminacies))
    _drain(map(_set_falsity, cells, falsities))
    _drain(map(_set_mu, cells, mus))
    return cells


_FIELDS = ("t", "i", "f", "mu")
_MISSING = object()


def _check_cell(cell):
    """(checked cell, ()) for a well-formed raw cell, else (None, problems).

    A cell is a PossValue, which its constructor checked, a {"t", "i",
    "f", "mu"} mapping or a flat (t, i, f, mu) sequence. Each degree goes
    through as_unit once, whether it passes or not.
    """
    check = as_unit
    if isinstance(cell, dict):
        raw = ()
        if type(cell) is dict:  # a subclass's __missing__ could invent a degree
            try:
                raw = cell["t"], cell["i"], cell["f"], cell["mu"]
            except KeyError:
                pass
        if not raw:
            raw, check = [cell.get(field, _MISSING) for field in _FIELDS], _present_unit
    elif isinstance(cell, PossValue):
        return cell, ()
    else:
        try:
            raw = () if isinstance(cell, str) else tuple(cell)
        except TypeError:
            raw = ()
        if len(raw) != 4:
            return None, ["expected {t, i, f, mu} or (t, i, f, mu)"]
    degrees = map(check, raw, _FIELDS)  # four next() calls beat unpacking with *
    try:
        return _trusted_cell(next(degrees), next(degrees), next(degrees), next(degrees)), ()
    except ValueError as exc:
        problems = [str(exc)]
    while True:  # a map whose function raised resumes with the next degree
        try:
            for _ in degrees:
                pass
            return None, problems
        except ValueError as exc:
            problems.append(str(exc))


def _present_unit(value, field):
    """as_unit of a degree a mapping may lack: a missing one is a problem too."""
    if value is _MISSING:
        raise ValueError(f"missing {field!r}")
    return as_unit(value, field)


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
            f"got ({_listed(f.parameters)})x({_listed(f.universe)}) "
            f"vs ({_listed(g.parameters)})x({_listed(g.universe)})")


def _combined(fr, gr, on_truth, on_other) -> tuple:
    """Combine two rows cell by cell: on_truth on truth and mu, on_other on
    the rest."""
    return tuple(_trusted_cell(on_truth(a.truth, b.truth),
                               on_other(a.indeterminacy, b.indeterminacy),
                               on_other(a.falsity, b.falsity),
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
        a.mu <= b.mu and triple_leq(a, b)
        for fr, gr in zip(f.cells, g.cells)
        for a, b in zip(fr, gr)
    )


def equals(f: PnsSet, g: PnsSet) -> bool:
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
        tuple(_trusted_cell(c.falsity, negation_standard(c.indeterminacy), c.truth,
                            negation_standard(c.mu))
              for c in row)
        for row in f.cells
    )
    return PnsSet(parameters=f.parameters, universe=f.universe, cells=cells)


# ---------------------------------------------------------------------------
# AND and OR products

class ProductPnsSet(PnsSet):
    """Result of `and_product` or `or_product`: a set whose parameters are
    (first parameter, second parameter) pairs.

    Pair rows enumerate the Cartesian product in row major order, the first
    operand's parameter being the outer index. The inherited `from_rows`
    makes text labels, not pairs.
    """

    @property
    def pairs(self) -> tuple:
        return self.parameters


#: A set's int view (see `_view`) exists only while its common
#: denominator, an lcm, has at most this many bits; past it, each cell
#: keeps its own. Over distinct 61-bit primes the lcm has thousands of
#: bits: two such 20x200 sets compared as int lists took 18.9 s and 51 MB
#: more memory at p = 2 against 3.1 s per cell pair (10x100 at p = 10:
#: 12.5 s against 4.2 s).
_ROW_BITS = 64

_degrees = attrgetter("truth", "indeterminacy", "falsity", "mu")
_numerator = attrgetter("_numerator")
_denominator = attrgetter("_denominator")


def _view(s: PnsSet):
    """The int view of a set, (L, rows), or None past the guard. L is the
    lcm of every denominator of the set; each row is five int lists over
    L, the t, i, f and mu numerators of its cells and their sums
    t + i + f. Kept in the immutable set's instance dict, so a set is
    read once."""
    try:
        return s.__dict__["_view"]
    except KeyError:
        view = s.__dict__["_view"] = _read_view(s.cells)
        return view


def _read_view(cells):
    """`_view`'s value, read in flat passes over runs of 1, 2, 4, ... rows:
    a run past the guard ends the reading, so a set over primes costs a
    row or two, and a decimal set a handful of passes."""
    den, distinct, degrees, denominators = 1, set(), [], []
    start = 0
    while start < len(cells):
        stop = 2 * start + 1
        run = list(chain.from_iterable(map(_degrees, chain.from_iterable(cells[start:stop]))))
        run_denominators = list(map(_denominator, run))
        for d in set(run_denominators) - distinct:
            den = lcm(den, d)
            if den.bit_length() > _ROW_BITS:  # on primes, from the second one on
                return None
            distinct.add(d)
        degrees += run
        denominators += run_denominators
        start = stop
    scale = {d: den // d for d in distinct}.__getitem__
    ints = list(map(mul, map(_numerator, degrees), map(scale, denominators)))
    rows, end = [], 0
    for row in cells:
        start, end = end, end + 4 * len(row)
        t, i, f = ints[start:end:4], ints[start + 1:end:4], ints[start + 2:end:4]
        rows.append((t, i, f, ints[start + 3:end:4], list(map(add, map(add, t, i), f))))
    return den, rows


#: positions in a view's row of the mu numerators and of 3 phi (t + i + f)
_MU, _PHI3 = 3, 4


def _joint(f: PnsSet, g: PnsSet):
    """(L, f's rows, g's rows), each view's rows over L, the lcm of the two
    views' denominators: a view's own row lists when its L is L, else
    every row's lists rescaled. None when either set has no view. This is
    the one reader of the views; its readers only read the lists."""
    f_view, g_view = _view(f), _view(g)
    if f_view is None or g_view is None:
        return None
    den = lcm(f_view[0], g_view[0])
    rescaled = []
    for view_den, rows in (f_view, g_view):
        scale = den // view_den
        rescaled.append(rows if scale == 1 else
                        [[list(map(mul, xs, repeat(scale))) for xs in row] for row in rows])
    return den, *rescaled


def _pick(lower, a, b, x, y):
    """Of each pair of a and b, the one whose int in x or y is the lower
    (`lower` true) or the higher. A lower pick keeps a on a tie and a
    higher pick b, as `tnorm_min` and `tconorm_max` do."""
    return map(getitem, zip(b, a) if lower else zip(a, b), map(le, x, y))


def _require_same_universe(f: PnsSet, g: PnsSet):
    if f.universe != g.universe:
        raise IncompatibleError(
            f"products need a shared universe; "
            f"got ({_listed(f.universe)}) vs ({_listed(g.universe)})")


def _product(f, g, lower_truth):
    """(product, int rows): row (p, q) combines row p of f with row q of g.

    With `lower_truth` each cell takes the lower truth and possibility
    degree and the higher indeterminacy and falsity (the AND product),
    else the reverse (the OR product). With int views, `_pick` selects
    each degree through `_joint`'s ints and returns the operand's own
    Fraction, the object the norm would return. The int rows are
    `_joint`'s, None where the cells were combined one by one.
    """
    _require_same_universe(f, g)
    pairs = tuple((fp, gp) for fp in f.parameters for gp in g.parameters)
    ints = _joint(f, g)
    if ints is None:
        on_truth, on_other = ((tnorm_min, tconorm_max) if lower_truth
                              else (tconorm_max, tnorm_min))
        rows = tuple(_combined(fr, gr, on_truth, on_other)
                     for fr in f.cells for gr in g.cells)
    else:
        _, f_ints, g_ints = ints
        lower = (lower_truth, not lower_truth, not lower_truth, lower_truth)
        g_rows = [_columns(row) for row in g.cells]
        rows = tuple(_trusted_row(min(len(fi[0]), len(gi[0])),  # zip's length
                                  *map(_pick, lower, fr, gr, fi, gi))
                     for fr, fi in zip(map(_columns, f.cells), f_ints)
                     for gr, gi in zip(g_rows, g_ints))
    return ProductPnsSet(parameters=pairs, universe=f.universe, cells=rows), ints


def _columns(row):
    """A row of cells as four tuples: its truths, indeterminacies,
    falsities and possibility degrees."""
    return tuple(zip(*map(_degrees, row))) or ((), (), (), ())


def and_product(f: PnsSet, g: PnsSet) -> ProductPnsSet:
    """Pessimistic combination: min truth, max indeterminacy and falsity, min mu.

    The product keeps its operands' int rows, when they exist, in its
    instance dict under `_int_operands`: `decision.weighted_matrices`
    reads them.
    """
    product, ints = _product(f, g, lower_truth=True)
    if ints is not None:
        product.__dict__["_int_operands"] = ints
    return product


def or_product(f: PnsSet, g: PnsSet) -> ProductPnsSet:
    """Optimistic combination: max truth, min indeterminacy and falsity, max mu."""
    return _product(f, g, lower_truth=False)[0]


def to_pns_set(p: ProductPnsSet, separator: str = "*") -> PnsSet:
    """Flatten pair labels so a product can be saved or fed back in."""
    labels = tuple(f"{a}{separator}{b}" for a, b in p.pairs)
    if len(set(labels)) != len(labels):
        raise IncompatibleError(
            f"separator {_plain(separator)} does not keep pair labels distinct")
    return PnsSet(parameters=labels, universe=p.universe, cells=p.cells)
