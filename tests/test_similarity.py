from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pnsoft import (
    DegenerateRowError,
    NeutrosophicTriple,
    PnsError,
    PnsSet,
    SchemaError,
    phi,
    possibility_similarity,
    select_by_similarity,
    similarity,
    value_similarity,
)

from _reference import brute_similarity
from conftest import load_fixture

units = st.integers(0, 20).map(lambda k: Fraction(k, 20))


@st.composite
def pns_sets(draw, n_params=2, n_elems=2):
    rows = [[(draw(units), draw(units), draw(units), draw(units))
             for _ in range(n_elems)] for _ in range(n_params)]
    return PnsSet.from_rows(
        [f"e{i + 1}" for i in range(n_params)],
        [f"u{j + 1}" for j in range(n_elems)],
        rows,
    )


@pytest.fixture(scope="module")
def cars():
    return load_fixture("cars_assessment_a.json"), load_fixture("cars_assessment_b.json")


@pytest.fixture(scope="module")
def hiring():
    model = load_fixture("ideal_candidate.json")
    candidates = [(f"applicant_{k}", load_fixture(f"applicants/applicant_{k}.json"))
                  for k in range(1, 6)]
    return model, candidates


class TestComponents:
    def test_phi(self):
        assert phi(NeutrosophicTriple(0.5, 0.2, 0.6)) == Fraction(13, 30)
        assert phi(NeutrosophicTriple(1, 1, 1)) == 1

    def test_possibility_components_are_exact(self, cars):
        f, g = cars
        comps, mean = possibility_similarity(f, g)
        assert comps == (Fraction(15, 19), Fraction(26, 35), Fraction(3, 4))
        assert mean == (Fraction(15, 19) + Fraction(26, 35) + Fraction(3, 4)) / 3
        assert float(mean) == pytest.approx(0.7608, abs=5e-5)

    def test_value_components_at_p2(self, cars):
        f, g = cars
        comps, mean = value_similarity(f, g, p=2)
        assert comps[0] == pytest.approx(0.8752780871075353, abs=1e-12)
        assert comps[1] == pytest.approx(0.8625631458127446, abs=1e-12)
        assert comps[2] == pytest.approx(0.9361715261495774, abs=1e-12)
        assert mean == pytest.approx(0.8913375863566192, abs=1e-12)

    def test_value_p1_stays_rational(self):
        f = PnsSet.from_rows(["e1"], ["u1", "u2"],
                             [[(0.6, 0.3, 0.3, 1), (0.9, 0, 0, 1)]])
        g = PnsSet.from_rows(["e1"], ["u1", "u2"],
                             [[(0.3, 0.3, 0.3, 1), (0.3, 0.3, 0.3, 1)]])
        comps, mean = value_similarity(f, g, p=1)
        # |0.4 - 0.3| and |0.3 - 0.3| averaged over two elements
        assert comps == (Fraction(19, 20),)
        assert isinstance(mean, Fraction) and mean == Fraction(19, 20)

    def test_p_is_validated(self, cars):
        f, g = cars
        for bad in (0, -1, 2.5, True, "2"):
            with pytest.raises(ValueError, match="p must be"):
                value_similarity(f, g, p=bad)

    def test_degenerate_possibility_row(self):
        f = PnsSet.from_rows(["e1"], ["u1"], [[(0.5, 0.5, 0.5, 0)]])
        g = PnsSet.from_rows(["e1"], ["u1"], [[(0.1, 0.2, 0.3, 0)]])
        with pytest.raises(DegenerateRowError, match="'e1'"):
            possibility_similarity(f, g)


class TestSimilarity:
    def test_overall_on_the_worked_pair(self, cars):
        f, g = cars
        r = similarity(f, g, p=2)
        assert r.overall == pytest.approx(0.6781090835552676, abs=1e-12)
        assert r.significant is True
        assert r.p == 2 and r.threshold == Fraction(1, 2)

    def test_matches_the_longhand_oracle(self, cars):
        f, g = cars
        for p in (1, 2, 3):
            r = similarity(f, g, p=p)
            o = brute_similarity(f, g, p=p)
            if p == 1:
                assert r.overall == o["overall"]
            else:
                assert r.overall == pytest.approx(o["overall"], abs=1e-12)

    def test_threshold_is_inclusive(self):
        f = PnsSet.from_rows(["e1"], ["u1"], [[(0.5, 0.5, 0.5, "1/3")]])
        g = PnsSet.from_rows(["e1"], ["u1"], [[(0.5, 0.5, 0.5, 1)]])
        r = similarity(f, g, p=1)
        assert r.overall == Fraction(1, 2)
        assert r.significant is True
        assert similarity(f, g, p=1, threshold="0.51").significant is False

    def test_threshold_is_range_checked(self, cars):
        f, g = cars
        with pytest.raises(ValueError, match="threshold"):
            similarity(f, g, threshold=1.5)

    @given(a=pns_sets(), b=pns_sets())
    def test_symmetry_and_bounds(self, a, b):
        try:
            r1 = similarity(a, b)
        except DegenerateRowError:
            with pytest.raises(DegenerateRowError):
                similarity(b, a)  # undefined in one direction means both
            return
        r2 = similarity(b, a)
        assert r1.overall == r2.overall
        assert 0 <= r1.overall <= 1

    @given(a=pns_sets())
    def test_self_similarity_is_one(self, a):
        try:
            r = similarity(a, a)
        except DegenerateRowError:
            return  # an all zero mu row has no defined ratio, even to itself
        assert r.overall == 1
        assert r.significant is True


class TestSelection:
    def test_worked_selection(self, hiring):
        model, candidates = hiring
        s = select_by_similarity(model, candidates, p=2)
        assert s.selected == ("applicant_4",)
        assert s.significant == ()
        got = {c.label: c.overall for c in s.candidates}
        assert got["applicant_4"] == pytest.approx(0.4733587280802222, abs=1e-12)
        assert got["applicant_5"] == pytest.approx(0.4716295180936314, abs=1e-12)
        assert [c.label for c in s.candidates] == [lbl for lbl, _ in candidates]

    def test_threshold_moves_the_significant_line(self, hiring):
        model, candidates = hiring
        s = select_by_similarity(model, candidates, p=2, threshold="0.45")
        assert set(s.significant) == {"applicant_3", "applicant_4", "applicant_5"}

    def test_ties_select_everything(self, hiring):
        model, candidates = hiring
        doubled = candidates + [("again", candidates[3][1])]
        s = select_by_similarity(model, doubled)
        assert s.selected == ("applicant_4", "again")

    def test_broken_candidate_is_carried_not_fatal(self, hiring):
        model, candidates = hiring
        odd = PnsSet.from_rows(["x"], ["u1"], [[(0, 0, 0, 0)]])
        s = select_by_similarity(model, candidates + [("odd", odd)])
        by_label = {c.label: c for c in s.candidates}
        assert by_label["odd"].error is not None
        assert "share parameter" in by_label["odd"].error
        assert s.selected == ("applicant_4",)

    def test_error_in_place_of_a_set_is_carried(self, hiring):
        model, candidates = hiring
        failed = SchemaError("zz.json: JSON parse error at line 1, column 2")
        s = select_by_similarity(model, [("zz", failed)] + candidates)
        assert s.candidates[0].label == "zz"
        assert s.candidates[0].error == str(failed)
        assert s.candidates[0].overall is None
        assert s.selected == ("applicant_4",)

    def test_all_broken_selects_nothing(self, hiring):
        model, _ = hiring
        odd = PnsSet.from_rows(["x"], ["u1"], [[(0, 0, 0, 0)]])
        s = select_by_similarity(model, [("odd", odd)])
        assert s.selected == ()

    def test_empty_candidate_list_refused(self, hiring):
        model, _ = hiring
        with pytest.raises(PnsError, match="no candidates"):
            select_by_similarity(model, [])
