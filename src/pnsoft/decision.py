"""Decision making over two observations.

Pipeline: AND product of the two sets, blend each membership component
with the cell's possibility degree into three weighted matrices, score
each universe element by the row maxima it attains, subtract the
indeterminacy and falsity scores from the truth score, rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import add, mul, sub

from .algebra import _Memo
from .errors import IncompatibleError
from .sets import PnsSet, ProductPnsSet, _pick, and_product


@dataclass(frozen=True)
class DecisionReport:
    """Everything the pipeline computed, kept for auditability.

    Each weighted matrix is a tuple of rows of Fractions indexed like
    `product.cells`: one row per pair in `product.pairs`, one entry per
    element of `universe`.
    """

    universe: tuple
    product: ProductPnsSet
    weighted_truth: tuple
    weighted_indeterminacy: tuple
    weighted_falsity: tuple
    truth_scores: tuple
    indeterminacy_scores: tuple
    falsity_scores: tuple
    decision_scores: tuple
    ranking: tuple   # universe labels, best first
    winners: tuple   # all labels attaining the best decision score


def weighted_matrices(p: ProductPnsSet):
    """Blend each component with the cell possibility m.

    Returns the truth, indeterminacy and falsity matrices, each a tuple of
    rows indexed like `p.cells`. Truth uses the probabilistic sum
    t + m - t*m so high possibility lifts the entry toward 1;
    indeterminacy and falsity just scale by m.

    An AND product that keeps its operands' int rows over one denominator
    L (see `sets.and_product`) has each pair row's degrees picked again
    from those ints (`sets._pick`), and every entry computed as an int
    numerator over L²: L*(t + m) - t*m for truth, i*m and f*m for the
    others. Each distinct numerator becomes one Fraction, which all equal
    entries of the three matrices share. Any other product reads each
    cell's Fraction slots, and the entries of one (degree, possibility)
    pair share one Fraction; equal values of other pairs may get their own.
    """
    kept = vars(p).get("_int_operands")
    if kept is not None:
        den, f_rows, g_rows = kept
        entry = _Memo(partial(Fraction, denominator=den * den)).__getitem__
        wt, wi, wf = [], [], []
        for ft, fi, ff, fm, _ in f_rows:
            for gt, gi, gf, gm, _ in g_rows:
                t, m = list(_pick(True, ft, gt, ft, gt)), list(_pick(True, fm, gm, fm, gm))
                wt.append(tuple(map(entry, map(
                    sub, map(mul, map(add, t, m), repeat(den)), map(mul, t, m)))))
                wi.append(tuple(map(entry, map(mul, _pick(False, fi, gi, fi, gi), m))))
                wf.append(tuple(map(entry, map(mul, _pick(False, ff, gf, ff, gf), m))))
        return tuple(wt), tuple(wi), tuple(wf)
    blended, scaled = {}, {}   # (numerators, denominators) -> shared Fraction
    wt, wi, wf = [], [], []
    for row in p.cells:
        rt, ri, rf = [], [], []
        for c in row:
            t, i, f, m = c.truth, c.indeterminacy, c.falsity, c.mu
            tn, td, in_, id_ = t._numerator, t._denominator, i._numerator, i._denominator
            fn, fd, mn, md = f._numerator, f._denominator, m._numerator, m._denominator
            key = (tn, td, mn, md)
            value = blended.get(key)
            if value is None:
                value = blended[key] = Fraction(tn * md + mn * td - tn * mn, td * md)
            rt.append(value)
            key = (in_, id_, mn, md)
            value = scaled.get(key)
            if value is None:
                value = scaled[key] = Fraction(in_ * mn, id_ * md)
            ri.append(value)
            key = (fn, fd, mn, md)
            value = scaled.get(key)
            if value is None:
                value = scaled[key] = Fraction(fn * mn, fd * md)
            rf.append(value)
        wt.append(tuple(rt))
        wi.append(tuple(ri))
        wf.append(tuple(rf))
    return tuple(wt), tuple(wi), tuple(wf)


def row_scores(rows) -> tuple:
    """Per element sum of the row maxima it attains.

    `rows` is a non-empty sequence of equal-length rows of rationals
    (`Fraction` or `int`), one entry per element. In each row, every
    column whose entry equals the row maximum adds that entry to the
    column's score. Ties all count; comparison is exact. Every score is a
    Fraction, an all-zero column's too. No rows, an empty row or rows of
    unequal length raise IncompatibleError.

    The work is on integers: the maximum is picked by cross-multiplying
    (numerator, denominator) pairs, read from a Fraction's slots and from
    any other rational's properties, each column sums its credited
    numerators per denominator, and each sum becomes one Fraction.
    """
    if not rows:
        raise IncompatibleError("row scores need at least one row")
    width = len(rows[0])
    if not width:
        raise IncompatibleError("row 0 is empty")
    sums = [{} for _ in range(width)]   # per column: denominator -> numerator sum
    for r, row in enumerate(rows):
        if len(row) != width:
            raise IncompatibleError(
                f"row {r} has {len(row)} entries, row 0 has {width}")
        top, under, at = row[0].numerator, row[0].denominator, []
        for j, value in enumerate(row):
            if type(value) is Fraction:
                n, d = value._numerator, value._denominator
            else:   # an int, or another rational
                n, d = value.numerator, value.denominator
            ahead = n * under - top * d   # denominators are positive
            if ahead > 0:
                top, under, at = n, d, [j]
            elif ahead == 0:
                at.append(j)
        for j in at:
            column = sums[j]
            column[under] = column.get(under, 0) + top
    zero = Fraction(0)   # shared by every column no row credits
    return tuple(sum([Fraction(n, d) for d, n in column.items()], zero)
                 for column in sums)


def decision_scores(truth_scores, indeterminacy_scores, falsity_scores) -> tuple:
    if not (len(truth_scores) == len(indeterminacy_scores) == len(falsity_scores)):
        raise IncompatibleError("score vectors must have equal length")
    return tuple(t - i - f for t, i, f in
                 zip(truth_scores, indeterminacy_scores, falsity_scores))


def decide(f: PnsSet, g: PnsSet) -> DecisionReport:
    """Run the full pipeline on two observations of the same universe."""
    product = and_product(f, g)
    wt, wi, wf = weighted_matrices(product)
    st = row_scores(wt)
    si = row_scores(wi)
    sf = row_scores(wf)
    ds = decision_scores(st, si, sf)
    order = sorted(range(len(ds)), key=lambda j: (-ds[j], j))
    ranking = tuple(product.universe[j] for j in order)
    best = max(ds)
    winners = tuple(u for u, score in zip(product.universe, ds) if score == best)
    return DecisionReport(
        universe=product.universe,
        product=product,
        weighted_truth=wt,
        weighted_indeterminacy=wi,
        weighted_falsity=wf,
        truth_scores=st,
        indeterminacy_scores=si,
        falsity_scores=sf,
        decision_scores=ds,
        ranking=ranking,
        winners=winners,
    )
