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
from .products import ProductPnsSet, and_product
from .sets import PnsSet


@dataclass(frozen=True)
class WeightedMatrix:
    """One component of the product blended with possibility degrees."""

    rows: tuple      # pair labels, e.g. ("e1", "e2")
    columns: tuple   # universe labels
    entries: tuple   # |rows| x |columns| Fractions


@dataclass(frozen=True)
class DecisionReport:
    """Everything the pipeline computed, kept for auditability."""

    universe: tuple
    product: ProductPnsSet
    weighted_truth: WeightedMatrix
    weighted_indeterminacy: WeightedMatrix
    weighted_falsity: WeightedMatrix
    truth_scores: tuple
    indeterminacy_scores: tuple
    falsity_scores: tuple
    decision_scores: tuple
    ranking: tuple   # universe labels, best first
    winners: tuple   # all labels attaining the best decision score


def weighted_matrices(p: ProductPnsSet):
    """Blend each component with the cell possibility m.

    Truth uses the probabilistic sum t + m - t*m so high possibility lifts
    the entry toward 1; indeterminacy and falsity just scale by m.
    Each entry is computed once from the integer numerators and
    denominators, and equal entries share one Fraction.
    """
    blended, scaled = {}, {}   # (numerators, denominators) -> shared Fraction

    def scale(x, mn, md):
        key = (x.numerator, x.denominator, mn, md)
        value = scaled.get(key)
        if value is None:
            value = scaled[key] = Fraction(key[0] * mn, key[1] * md)
        return value

    wt, wi, wf = [], [], []
    for row in p.cells:
        rt, ri, rf = [], [], []
        for c in row:
            t, m = c.triple.truth, c.mu
            tn, td, mn, md = t.numerator, t.denominator, m.numerator, m.denominator
            key = (tn, td, mn, md)
            value = blended.get(key)
            if value is None:
                value = blended[key] = Fraction(tn * md + mn * td - tn * mn, td * md)
            rt.append(value)
            ri.append(scale(c.triple.indeterminacy, mn, md))
            rf.append(scale(c.triple.falsity, mn, md))
        wt.append(tuple(rt))
        wi.append(tuple(ri))
        wf.append(tuple(rf))

    def matrix(entries):
        return WeightedMatrix(rows=p.pairs, columns=p.universe, entries=tuple(entries))
    return matrix(wt), matrix(wi), matrix(wf)


def row_scores(w: WeightedMatrix) -> tuple:
    """Per element sum of the row maxima it attains.

    In each row, every column whose entry equals the row maximum adds that
    entry to the column's score. Ties all count; comparison is exact, which
    the Fraction representation keeps meaningful.
    """
    totals = [Fraction(0)] * len(w.columns)
    for row in w.entries:
        best = max(row)
        for j, value in enumerate(row):
            if value == best:
                totals[j] += value
    return tuple(totals)


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
