"""AND and OR products: combine two sets over the same universe into a set
indexed by ordered parameter pairs.

Both products are defined with plain min and max, independent of whatever
norm profile drives union and intersection. The worked decision matrices
are reproducible only that way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleError
from .sets import PnsSet, _trusted_cell


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
            f"products need a shared universe; got {f.universe} vs {g.universe}")


def _degrees(s: PnsSet):
    """Each cell as four (degree, numerator, denominator) triples: t, i, f, mu.

    Unpacked once per operand cell, so the P*P*U comparisons of a product
    run on plain ints.
    """
    return [[tuple((x, x.numerator, x.denominator)
                   for x in (c.triple.truth, c.triple.indeterminacy,
                             c.triple.falsity, c.mu))
             for c in row] for row in s.cells]


def _lower(a, b):
    # denominators are positive, so cross multiplication keeps the order
    return a if a[1] * b[2] <= b[1] * a[2] else b


def _higher(a, b):
    return b if a[1] * b[2] <= b[1] * a[2] else a


def _product(f, g, pick_truth, pick_other):
    """Combine every parameter pair cellwise.

    pick_truth chooses the truth and possibility degree of each cell,
    pick_other its indeterminacy and falsity.
    """
    _require_same_universe(f, g)
    fd, gd = _degrees(f), _degrees(g)
    pairs = []
    rows = []
    for fp, frow in zip(f.parameters, fd):
        for gp, grow in zip(g.parameters, gd):
            pairs.append((fp, gp))
            rows.append(tuple(
                _trusted_cell(pick_truth(a[0], b[0])[0], pick_other(a[1], b[1])[0],
                              pick_other(a[2], b[2])[0], pick_truth(a[3], b[3])[0])
                for a, b in zip(frow, grow)
            ))
    return ProductPnsSet(pairs=tuple(pairs), universe=f.universe, cells=tuple(rows))


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
            f"separator {separator!r} does not keep pair labels distinct")
    return PnsSet(parameters=labels, universe=p.universe, cells=p.cells)
