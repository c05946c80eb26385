from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnsoft import (
    IncompatibleError,
    PnsSet,
    WeightedMatrix,
    and_product,
    decide,
    decision_scores,
    row_scores,
    weighted_matrices,
)

from _reference import brute_decide
from conftest import load_fixture, mixed_pairs

units = st.integers(0, 20).map(lambda k: Fraction(k, 20))


@st.composite
def pns_sets(draw, n_params=2, n_elems=3):
    rows = [[(draw(units), draw(units), draw(units), draw(units))
             for _ in range(n_elems)] for _ in range(n_params)]
    return PnsSet.from_rows(
        [f"e{i + 1}" for i in range(n_params)],
        [f"u{j + 1}" for j in range(n_elems)],
        rows,
    )


@pytest.fixture(scope="module")
def houses():
    return load_fixture("houses_expert_a.json"), load_fixture("houses_expert_b.json")


def entry(w, pair, column):
    return w.entries[w.rows.index(pair)][w.columns.index(column)]


class TestWeightedMatrices:
    def test_example_entries(self, houses):
        f, g = houses
        wt, wi, wf = weighted_matrices(and_product(f, g))
        assert entry(wt, ("e1", "e1"), "u1") == Fraction("0.44")
        assert entry(wi, ("e2", "e1"), "u2") == Fraction("0.40")
        assert entry(wf, ("e1", "e3"), "u1") == Fraction("0.42")

    def test_truth_blend_bounds(self, houses):
        f, g = houses
        p = and_product(f, g)
        wt, wi, wf = weighted_matrices(p)
        for row_w, row_p in zip(wt.entries, p.cells):
            for v, c in zip(row_w, row_p):
                # t + m - t*m never drops below either ingredient
                assert v >= max(c.triple.truth, c.mu)
                assert 0 <= v <= 1
        for w in (wi, wf):
            assert all(0 <= v <= 1 for row in w.entries for v in row)

    @settings(max_examples=50)
    @given(pair=mixed_pairs())
    def test_mixed_denominator_entries_follow_the_formulas(self, pair):
        p = and_product(*pair)
        wt, wi, wf = weighted_matrices(p)
        for row, rt, ri, rf in zip(p.cells, wt.entries, wi.entries, wf.entries):
            for c, vt, vi, vf in zip(row, rt, ri, rf):
                t, i, fv, m = (c.triple.truth, c.triple.indeterminacy,
                               c.triple.falsity, c.mu)
                assert vt == t + m - t * m
                assert vi == i * m
                assert vf == fv * m
                assert type(vt) is type(vi) is type(vf) is Fraction


class TestRowScores:
    def test_ties_all_contribute(self):
        w = WeightedMatrix(rows=(("e1", "e1"),), columns=("u1", "u2", "u3"),
                           entries=((Fraction(1, 2), Fraction(1, 2), Fraction(1, 5)),))
        assert row_scores(w) == (Fraction(1, 2), Fraction(1, 2), 0)

    def test_single_column_collects_everything(self):
        w = WeightedMatrix(rows=(("a", "a"), ("a", "b")), columns=("u1",),
                           entries=((Fraction(1, 4),), (Fraction(3, 4),)))
        assert row_scores(w) == (Fraction(1),)

    def test_score_difference(self):
        assert decision_scores((1, 2), (0, 1), (1, 0)) == (0, 1)
        with pytest.raises(IncompatibleError, match="equal length"):
            decision_scores((1, 2), (0,), (0, 0))


class TestDecide:
    def test_full_pipeline_values(self, houses):
        f, g = houses
        r = decide(f, g)
        fr = Fraction
        assert r.truth_scores == (fr("1.18"), fr("2.93"), fr("2.68"))
        assert r.indeterminacy_scores == (fr("0.18"), fr("1.42"), fr("0.66"))
        assert r.falsity_scores == (fr("1.32"), fr("0.32"), fr("0.57"))
        assert r.decision_scores == (fr("-0.32"), fr("1.19"), fr("1.45"))
        assert r.ranking == ("u3", "u2", "u1")
        assert r.winners == ("u3",)

    def test_report_is_self_consistent(self, houses):
        f, g = houses
        r = decide(f, g)
        assert r.decision_scores == decision_scores(
            r.truth_scores, r.indeterminacy_scores, r.falsity_scores)
        assert r.truth_scores == row_scores(r.weighted_truth)
        assert r.universe == f.universe

    def test_relabeling_the_universe_permutes_the_scores(self, houses):
        f, g = houses
        perm = [2, 0, 1]

        def shuffle(s):
            universe = [s.universe[j] for j in perm]
            rows = [[s.cells[i][j] for j in perm] for i in range(len(s.parameters))]
            return PnsSet.from_rows(s.parameters, universe, rows)

        base = decide(f, g)
        moved = decide(shuffle(f), shuffle(g))
        assert moved.decision_scores == tuple(base.decision_scores[j] for j in perm)
        assert moved.winners == base.winners
        assert moved.ranking == base.ranking

    def test_all_equal_scores_tie(self):
        s = PnsSet.from_rows(["e1"], ["u1", "u2"],
                             [[(0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5)]])
        r = decide(s, s)
        assert r.winners == ("u1", "u2")
        assert r.ranking == ("u1", "u2")

    @settings(max_examples=60)
    @given(a=pns_sets(), b=pns_sets())
    def test_matches_the_longhand_oracle(self, a, b):
        assert_matches_oracle(a, b)

    @settings(max_examples=50)
    @given(pair=mixed_pairs())
    def test_mixed_denominators_match_the_longhand_oracle(self, pair):
        assert_matches_oracle(*pair)


def assert_matches_oracle(a, b):
    r = decide(a, b)
    o = brute_decide(a, b)
    for j, u in enumerate(r.universe):
        assert r.truth_scores[j] == o["st"][u]
        assert r.indeterminacy_scores[j] == o["si"][u]
        assert r.falsity_scores[j] == o["sf"][u]
        assert r.decision_scores[j] == o["ds"][u]
    assert list(r.winners) == o["winners"]
