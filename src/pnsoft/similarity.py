"""Similarity between two sets, and model-vs-candidates selection.

The measure has two factors. The value factor compares the per cell
average membership (t + i + f)/3 through a Minkowski distance taken over
the universe, one term per parameter, then averaged over parameters. The
possibility factor compares the mu rows through a ratio of absolute
difference to absolute sum, again averaged over parameters. The overall
similarity is their product; two sets count as significantly similar from
one half upward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import sub

from .errors import DegenerateRowError, PnsError, _plain
from .sets import _MU, _PHI3, PnsSet, _joint, _require_same_labels
from .algebra import NeutrosophicTriple, as_unit


def phi(triple: NeutrosophicTriple) -> Fraction:
    """Collapse a triple to its mean membership."""
    return (triple.truth + triple.indeterminacy + triple.falsity) / 3


#: Largest Minkowski order accepted. Exact powers d**p grow with p: a
#: 10x50 two-decimal candidate takes about 0.6 ms at p = 2, 5 ms at
#: p = 1000 and 0.17 s at p = 10000 (2-vCPU Xeon VM, Python 3.11.7). Beyond
#: an order of a few hundred the distance is the row maximum to within float
#: precision.
MAX_ORDER = 1000


def _check_p(p):
    if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= MAX_ORDER:
        raise ValueError(f"p must be an integer in [1, {MAX_ORDER}], got {_plain(p)}")


# The fallbacks read cells through _phi3 and the mu slots, the int slots
# of Fraction, as algebra.tnorm_min does: the properties cost a call each.

def _phi3(cell):
    """3 * phi of a cell's triple as an int numerator over the lcm of its denominators."""
    t, i, f = cell.truth, cell.indeterminacy, cell.falsity
    tn, td, in_, id_ = t._numerator, t._denominator, i._numerator, i._denominator
    fn, fd = f._numerator, f._denominator
    den = lcm(td, id_, fd)
    return tn * (den // td) + in_ * (den // id_) + fn * (den // fd), den


def value_similarity(f: PnsSet, g: PnsSet, p: int = 2):
    """Per parameter Minkowski similarity of the phi profiles over the universe.

    Returns (components, mean). Each distance |phi(a) - phi(b)| is an int
    over 3 times a denominator. Two sets with int views (see
    `sets._view`) share one: the lcm of theirs, and the p-th powers of
    the distances are summed as ints. Any other pair of sets takes one lcm
    per cell pair, the powers are summed per denominator, and each sum
    becomes one Fraction. Either way the total is the exact sum of d**p.
    With p=1 everything stays rational. For p >= 2 the floats start at the
    root: the exact sum is divided by the p-th power of the exact row
    maximum, so the float it becomes lies in [1, n] and cannot underflow
    to 0 however large p is.
    """
    _check_p(p)
    _require_same_labels(f, g)
    n = len(f.universe)
    joint = _joint(f, g, _PHI3)
    components = []
    for fr, gr in zip(*joint[1:]) if joint else zip(f.cells, g.cells):
        if joint:
            den, (xs,), (ys,) = joint[0], fr, gr
            ds = list(map(abs, map(sub, xs, ys)))   # over 3 * den
            if p == 1:
                m = 1 - Fraction(sum(ds), 3 * den) / n
            else:
                top = max(ds)
                scaled = sum(map(pow, ds, repeat(p))) / top ** p if top else 0.0
                m = 1 - scaled ** (1 / p) * (top / (3 * den)) / n ** (1 / p)
        else:
            sums = {}               # lcm L -> sum of the numerators of d**p over (3L)**p
            top, top_den = 0, 1     # the row maximum d is top / (3 * top_den)
            for (x, x_den), (y, y_den) in zip(map(_phi3, fr), map(_phi3, gr)):
                den = lcm(x_den, y_den)
                d = abs(x * (den // x_den) - y * (den // y_den))
                if p != 1:
                    if d * top_den > top * den:
                        top, top_den = d, den
                    d **= p
                sums[den] = sums.get(den, 0) + d
            total = sum(Fraction(num, (3 * den) ** p) for den, num in sums.items())
            if p == 1:
                m = 1 - total / n
            else:
                top = Fraction(top, 3 * top_den)
                scaled = float(total / top ** p) if top else 0.0
                m = 1 - scaled ** (1 / p) * float(top) / n ** (1 / p)
        components.append(m)
    return tuple(components), sum(components) / len(components)


def possibility_similarity(f: PnsSet, g: PnsSet):
    """Per parameter ratio similarity of the possibility rows.

    Two sets with int views (see `sets._view`) are read as ints over the
    lcm of their denominators, and the ratio is the quotient of two int
    sums. Any other pair of sets reads each mu pair over the lcm of its
    two denominators and sums per denominator, one Fraction each. A
    parameter whose mu values vanish in both sets leaves the ratio
    undefined; that is reported, not patched over.
    """
    _require_same_labels(f, g)
    joint = _joint(f, g, _MU)
    components = []
    for label, fr, gr in zip(f.parameters, *joint[1:]) if joint else zip(
            f.parameters, f.cells, g.cells):
        if joint:
            (xs,), (ys,) = fr, gr
            # a Fraction numerator keeps num / den exact
            num, den = Fraction(sum(map(abs, map(sub, xs, ys)))), sum(xs) + sum(ys)
        else:
            diffs, sums = {}, {}    # lcm of a mu pair -> sums of |a - b| and a + b
            for a, b in zip(fr, gr):
                a, b = a.mu, b.mu
                den = lcm(a._denominator, b._denominator)
                x = a._numerator * (den // a._denominator)
                y = b._numerator * (den // b._denominator)
                diffs[den] = diffs.get(den, 0) + abs(x - y)
                sums[den] = sums.get(den, 0) + x + y
            num = sum(Fraction(diff, den) for den, diff in diffs.items())
            den = sum(Fraction(both, den) for den, both in sums.items())
        if den == 0:
            raise DegenerateRowError(
                f"parameter {_plain(label)}: all possibility degrees are zero in both sets")
        components.append(1 - num / den)
    return tuple(components), sum(components) / len(components)


@dataclass(frozen=True)
class SimilarityReport:
    parameters: tuple
    value_components: tuple
    value_similarity: object        # Fraction for p=1, float otherwise
    possibility_components: tuple
    possibility_similarity: Fraction
    overall: object
    p: int
    threshold: Fraction
    significant: bool


def similarity(f: PnsSet, g: PnsSet, p: int = 2,
               threshold=Fraction(1, 2)) -> SimilarityReport:
    """Overall similarity: value factor times possibility factor."""
    threshold = as_unit(threshold, "threshold")
    value_parts, value_mean = value_similarity(f, g, p)
    poss_parts, poss_mean = possibility_similarity(f, g)
    overall = value_mean * poss_mean
    return SimilarityReport(
        parameters=f.parameters,
        value_components=value_parts,
        value_similarity=value_mean,
        possibility_components=poss_parts,
        possibility_similarity=poss_mean,
        overall=overall,
        p=p,
        threshold=threshold,
        significant=overall >= threshold,
    )


@dataclass(frozen=True)
class CandidateResult:
    label: str
    overall: object
    significant: bool
    error: str | None


@dataclass(frozen=True)
class SelectionReport:
    candidates: tuple
    selected: tuple      # labels of all best scoring candidates, input order
    significant: tuple   # labels meeting the threshold
    p: int
    threshold: Fraction


def select_by_similarity(model: PnsSet, candidates, p: int = 2,
                         threshold=Fraction(1, 2)) -> SelectionReport:
    """Compare every (label, set) candidate against the model and pick the best.

    Candidates are read one at a time: a generator that loads each set when
    asked holds one in memory, not all. Candidates that cannot be compared
    (label mismatch, degenerate rows, or a PnsError given in place of the
    set, such as a file that did not load) are carried in the report with
    their error instead of aborting the whole run. Ties for the best score
    are all selected.
    """
    threshold = as_unit(threshold, "threshold")
    _check_p(p)
    results = []
    for label, candidate in candidates:
        try:
            if isinstance(candidate, PnsError):
                raise candidate
            report = similarity(model, candidate, p=p, threshold=threshold)
            overall, significant, error = report.overall, report.significant, None
        except PnsError as exc:
            overall, significant, error = None, False, str(exc)
        results.append(CandidateResult(str(label), overall, significant, error))
    if not results:
        raise PnsError("no candidates to compare against the model")
    scored = [r for r in results if r.error is None]
    best = max((r.overall for r in scored), default=None)
    return SelectionReport(candidates=tuple(results),
                           selected=tuple(r.label for r in scored if r.overall == best),
                           significant=tuple(r.label for r in scored if r.significant),
                           p=p, threshold=threshold)
