"""Decision making over two observations.

Pipeline: AND product of the two sets, blend each membership component
with the cell's possibility degree into three weighted matrices, score
each universe element by the row maxima it attains, subtract the
indeterminacy and falsity scores from the truth score, rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompatibleError
from .sets import PnsSet, ProductPnsSet, and_product


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
    Entries of one (degree, possibility) pair share one Fraction, built
    once from the integers; equal values of other pairs get their own.
    The integers are read from Fraction's slots `_numerator` and
    `_denominator`, as `algebra.tnorm_min` reads them.
    """
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
    Fraction, an all-zero column's too.

    The work is on integers: the maximum is picked by cross-multiplying
    (numerator, denominator) pairs, each column sums its credited
    numerators per denominator, and each sum becomes one Fraction.
    """
    sums = [{} for _ in rows[0]]   # per column: denominator -> numerator sum
    for row in rows:
        top, under, at = row[0].numerator, row[0].denominator, []
        for j, value in enumerate(row):
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
