"""AND and OR products: combine two sets over the same universe into a set
indexed by ordered parameter pairs.

Row (p, q) of the AND product is the min/max intersection of row p of the
first set with row q of the second: min truth and possibility, max
indeterminacy and falsity. Row (p, q) of the OR product is their min/max
union. Both products use plain min and max, independent of whatever norm
profile drives union and intersection. The worked decision matrices are
reproducible only that way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _plain
from .errors import IncompatibleError
from .sets import PnsSet, _combined, _listed


@dataclass(frozen=True)
class ProductPnsSet:
    """Result of a product: rows are (first parameter, second parameter) pairs.

    Pair rows enumerate the Cartesian product in row major order, the first
    operand's parameter being the outer index.
    """

    pairs: tuple  # of (label, label)
    universe: tuple
    cells: tuple

    @property
    def shape(self):
        return (len(self.pairs), len(self.universe))


def _require_same_universe(f: PnsSet, g: PnsSet):
    if f.universe != g.universe:
        raise IncompatibleError(
            f"products need a shared universe; "
            f"got ({_listed(f.universe)}) vs ({_listed(g.universe)})")


# The picks compare the degrees' own int slots. Every degree of a checked
# cell is an exact Fraction: as_unit, the named norm families and the
# complement make only those. Fraction keeps its terms in the slots
# _numerator and _denominator on CPython 3.6 to 3.13, and CI runs the
# product tests on 3.10 to 3.13; the public properties cost a call per
# comparison. On a tie _lower keeps `a` and _higher keeps `b`.

def _lower(a, b):
    # denominators are positive, so cross multiplication keeps the order
    return a if a._numerator * b._denominator <= b._numerator * a._denominator else b


def _higher(a, b):
    return b if a._numerator * b._denominator <= b._numerator * a._denominator else a


def _product(f, g, on_truth, on_other):
    """Row (p, q) combines row p of f with row q of g through `_combined`.

    on_truth chooses the truth and possibility degree of each cell,
    on_other its indeterminacy and falsity.
    """
    _require_same_universe(f, g)
    pairs = tuple((fp, gp) for fp in f.parameters for gp in g.parameters)
    rows = tuple(_combined(fr, gr, on_truth, on_other)
                 for fr in f.cells for gr in g.cells)
    return ProductPnsSet(pairs=pairs, universe=f.universe, cells=rows)


def and_product(f: PnsSet, g: PnsSet) -> ProductPnsSet:
    """Pessimistic combination: min truth, max indeterminacy and falsity, min mu."""
    return _product(f, g, _lower, _higher)


def or_product(f: PnsSet, g: PnsSet) -> ProductPnsSet:
    """Optimistic combination: max truth, min indeterminacy and falsity, max mu."""
    return _product(f, g, _higher, _lower)


def to_pns_set(p: ProductPnsSet, separator: str = "*") -> PnsSet:
    """Flatten pair labels so a product can be saved or fed back in."""
    labels = tuple(f"{a}{separator}{b}" for a, b in p.pairs)
    if len(set(labels)) != len(labels):
        raise IncompatibleError(
            f"separator {_plain(separator)} does not keep pair labels distinct")
    return PnsSet(parameters=labels, universe=p.universe, cells=p.cells)
