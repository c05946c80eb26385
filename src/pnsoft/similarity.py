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

from .errors import DegenerateRowError, PnsError
from .sets import PnsSet, _require_same_labels
from .algebra import NeutrosophicTriple, as_unit


def phi(triple: NeutrosophicTriple) -> Fraction:
    """Collapse a triple to its mean membership."""
    return (triple.truth + triple.indeterminacy + triple.falsity) / 3


def _check_p(p):
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"p must be an integer >= 1, got {p!r}")


def value_similarity(f: PnsSet, g: PnsSet, p: int = 2):
    """Per parameter Minkowski similarity of the phi profiles over the universe.

    Returns (components, mean). With p=1 everything stays rational;
    for p >= 2 the root goes through floats.
    """
    _require_same_labels(f, g)
    _check_p(p)
    n = len(f.universe)
    components = []
    for fr, gr in zip(f.cells, g.cells):
        diffs = [abs(phi(a.triple) - phi(b.triple)) for a, b in zip(fr, gr)]
        if p == 1:
            m = 1 - sum(diffs) / n
        else:
            total = float(sum(d ** p for d in diffs))
            m = 1 - total ** (1 / p) / n ** (1 / p)
        components.append(m)
    return tuple(components), sum(components) / len(components)


def possibility_similarity(f: PnsSet, g: PnsSet):
    """Per parameter ratio similarity of the possibility rows.

    A parameter whose mu values vanish in both sets leaves the ratio
    undefined; that is reported, not patched over.
    """
    _require_same_labels(f, g)
    components = []
    for label, fr, gr in zip(f.parameters, f.cells, g.cells):
        num = sum(abs(a.mu - b.mu) for a, b in zip(fr, gr))
        den = sum(abs(a.mu + b.mu) for a, b in zip(fr, gr))
        if den == 0:
            raise DegenerateRowError(
                f"parameter {label!r}: all possibility degrees are zero in both sets")
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
    report: SimilarityReport | None
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

    Candidates that cannot be compared (label mismatch, degenerate rows, or
    a PnsError given in place of the set, such as a file that did not load)
    are carried in the report with their error instead of aborting the
    whole run. Ties for the best score are all selected.
    """
    threshold = as_unit(threshold, "threshold")
    candidates = list(candidates)
    if not candidates:
        raise PnsError("no candidates to compare against the model")
    results = []
    for label, candidate in candidates:
        try:
            if isinstance(candidate, PnsError):
                raise candidate
            report = similarity(model, candidate, p=p, threshold=threshold)
        except PnsError as exc:
            results.append(CandidateResult(label=str(label), report=None,
                                           overall=None, significant=False,
                                           error=str(exc)))
        else:
            results.append(CandidateResult(label=str(label), report=report,
                                           overall=report.overall,
                                           significant=report.significant,
                                           error=None))
    scored = [r for r in results if r.error is None]
    if scored:
        best = max(r.overall for r in scored)
        selected = tuple(r.label for r in scored if r.overall == best)
    else:
        selected = ()
    significant = tuple(r.label for r in scored if r.significant)
    return SelectionReport(candidates=tuple(results), selected=selected,
                           significant=significant, p=p, threshold=threshold)
