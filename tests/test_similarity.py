import copy
import dataclasses
import importlib
import pickle
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnsoft import (
    DegenerateRowError,
    IncompatibleError,
    NeutrosophicTriple,
    PnsError,
    PnsSet,
    SchemaError,
    is_subset,
    phi,
    possibility_similarity,
    select_by_similarity,
    similarity,
    value_similarity,
)
from pnsoft.cli import _num, _set_table, _six_decimals
from pnsoft.jsonio import _chunks, dumps_pns
from pnsoft.similarity import MAX_ORDER

from _reference import brute_similarity
from conftest import load_fixture, mixed_degrees

similarity_module = importlib.import_module("pnsoft.similarity")
sets_module = importlib.import_module("pnsoft.sets")

#: F in G in H over one parameter; inclusion is cellwise, mu and triple
CHAIN = tuple(
    PnsSet.from_rows(["e1"], ["u1", "u2", "u3"], [cells]) for cells in (
        [(.1, .2, .4, .8), (.7, .7, .6, 1), (.2, .6, 0, .9)],
        [(.2, .2, .1, .8), (.9, .6, .2, 1), (.8, .3, 0, .9)],
        [(.5, .2, .1, 1), (.9, .5, 0, 1), (.8, 0, 0, 1)],
    ))

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


@st.composite
def same_label_pairs(draw, max_params=3, max_elems=4):
    """Two sets over the same labels with mixed-denominator degrees."""
    degree = mixed_degrees()
    params = [f"e{k + 1}" for k in range(draw(st.integers(1, max_params)))]
    universe = [f"u{j + 1}" for j in range(draw(st.integers(1, max_elems)))]

    def one_set():
        rows = [[tuple(draw(degree) for _ in range(4)) for _ in universe]
                for _ in params]
        return PnsSet.from_rows(params, universe, rows)

    return one_set(), one_set()


def longhand_value_similarity(f, g, p):
    """value_similarity on Fraction arithmetic throughout, cell by cell."""
    n = len(f.universe)
    components = []
    for fr, gr in zip(f.cells, g.cells):
        diffs = [abs(phi(a.triple) - phi(b.triple)) for a, b in zip(fr, gr)]
        if p == 1:
            m = 1 - sum(diffs) / n
        else:
            top = max(diffs)
            scaled = float(sum(d ** p for d in diffs) / top ** p) if top else 0.0
            m = 1 - scaled ** (1 / p) * float(top) / n ** (1 / p)
        components.append(m)
    return tuple(components), sum(components) / len(components)


def longhand_possibility_similarity(f, g):
    """possibility_similarity on Fraction arithmetic throughout."""
    components = []
    for label, fr, gr in zip(f.parameters, f.cells, g.cells):
        num = sum(abs(a.mu - b.mu) for a, b in zip(fr, gr))
        den = sum(abs(a.mu + b.mu) for a, b in zip(fr, gr))
        if den == 0:
            raise DegenerateRowError(
                f"parameter {label!r}: all possibility degrees are zero in both sets")
        components.append(1 - num / den)
    return tuple(components), sum(components) / len(components)


def outcome(function, *args):
    try:
        return function(*args)
    except DegenerateRowError as exc:
        return "DegenerateRowError", str(exc)


def assert_identical(got, want, kind):
    """Equal components and mean, each of the type `kind`."""
    assert got == want
    components, mean = got
    assert all(type(c) is kind for c in components) and type(mean) is kind


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

    def test_p_is_checked_before_the_labels(self, cars):
        f, _ = cars
        other = PnsSet.from_rows(["x"], ["u1"], [[(0, 0, 0, 1)]])
        with pytest.raises(ValueError, match="p must be"):
            similarity(other, f, p=0)
        with pytest.raises(IncompatibleError):
            similarity(other, f, p=1)

    def test_order_is_capped(self, cars):
        f, g = cars
        value_similarity(f, g, p=MAX_ORDER)
        for too_large in (MAX_ORDER + 1, 10 ** 5000):  # the second too long to print
            with pytest.raises(ValueError, match=f"p must be an integer in \\[1, {MAX_ORDER}\\]"):
                value_similarity(f, g, p=too_large)

    @pytest.mark.parametrize("p", [2, 3, 50, 500, MAX_ORDER])
    def test_large_orders_do_not_underflow(self, cars, p):
        # below about 1e-308 a float sum of d**p reads 0 and every
        # component 1; the reference keeps 60 digits throughout
        f, g = cars
        expected = []
        with localcontext() as context:
            context.prec = 60
            for fr, gr in zip(f.cells, g.cells):
                total = sum(abs(phi(a.triple) - phi(b.triple)) ** p
                            for a, b in zip(fr, gr))
                mean = Decimal(total.numerator) / Decimal(total.denominator) / len(fr)
                expected.append(float(1 - mean ** (Decimal(1) / p)))
        comps, _ = value_similarity(f, g, p=p)
        assert comps == pytest.approx(expected, rel=0, abs=1e-12)
        assert all(c < 0.95 for c in comps)

    def test_degenerate_possibility_row(self):
        f = PnsSet.from_rows(["e1"], ["u1"], [[(0.5, 0.5, 0.5, 0)]])
        g = PnsSet.from_rows(["e1"], ["u1"], [[(0.1, 0.2, 0.3, 0)]])
        with pytest.raises(DegenerateRowError, match="'e1'"):
            possibility_similarity(f, g)


class TestIntegerKernel:
    """The int kernels give exactly what Fraction arithmetic gives."""

    @settings(max_examples=50, deadline=None)
    @given(pair=same_label_pairs(max_params=2, max_elems=3),
           p=st.sampled_from([1, 2, 3, 7, MAX_ORDER]))
    def test_value_factor_equals_the_fraction_longhand(self, pair, p):
        f, g = pair
        assert_identical(value_similarity(f, g, p), longhand_value_similarity(f, g, p),
                         Fraction if p == 1 else float)

    @settings(max_examples=50, deadline=None)
    @given(pair=same_label_pairs())
    def test_possibility_factor_equals_the_fraction_longhand(self, pair):
        f, g = pair
        got = outcome(possibility_similarity, f, g)
        want = outcome(longhand_possibility_similarity, f, g)
        if want[0] == "DegenerateRowError":
            assert got == want
        else:
            assert_identical(got, want, Fraction)

    @pytest.mark.parametrize("p", [1, 2, MAX_ORDER])
    def test_identical_rows(self, cars, p):
        # every difference is 0, so the row maximum is 0 for p >= 2
        f, _ = cars
        got = value_similarity(f, f, p)
        assert_identical(got, longhand_value_similarity(f, f, p),
                         Fraction if p == 1 else float)
        assert got[0] == (1,) * len(f.parameters)

    def test_mu_zero_in_one_set_only(self):
        f = PnsSet.from_rows(["e1"], ["u1", "u2"],
                             [[(0.5, 0.2, 0.1, 0), ("1/3", 0, 1, "2/7")]])
        g = PnsSet.from_rows(["e1"], ["u1", "u2"],
                             [[(0.1, 0.2, 0.3, "3/7"), (0, 0, 0, "1/3")]])
        got = possibility_similarity(f, g)
        assert_identical(got, longhand_possibility_similarity(f, g), Fraction)
        # |0 - 3/7| + |2/7 - 1/3| = 10/21 over (0 + 3/7) + (2/7 + 1/3) = 22/21
        assert got[0] == (Fraction(6, 11),)

    def test_all_zero_mu_row_raises_the_same_error(self):
        f = PnsSet.from_rows(["e1", "e2"], ["u1", "u2"],
                             [[(0.5, 0.2, 0.1, 0.5), (0, 0, 0, 1)],
                              [(0.5, 0.2, 0.1, 0), (0, 0, 0, 0)]])
        g = PnsSet.from_rows(["e1", "e2"], ["u1", "u2"],
                             [[(0.1, 0.2, 0.3, "3/7"), (0, 0, 0, 0)],
                              [("1/3", 0, 1, 0), (1, 1, 1, 0)]])
        got = outcome(possibility_similarity, f, g)
        assert got == outcome(longhand_possibility_similarity, f, g)
        assert got == ("DegenerateRowError",
                       "parameter 'e2': all possibility degrees are zero in both sets")


#: primes in [2**60, 2**61)
PRIMES_61 = (2**61 - 1, 2305843009213693921, 2305843009213693907, 2305843009213693723,
             2305843009213693693, 2305843009213693669, 2305843009213693613,
             2305843009213693561)
#: the denominators each kind of row draws its degrees over, and whether
#: a set of such rows has an int view: numerators over one lcm of at most
#: 64 bits
ROW_KINDS = {
    "two decimals": ((100,), True),
    "six decimals": ((10**6,), True),
    "two and six decimals": ((100, 10**6), True),
    "one prime": ((PRIMES_61[0],), True),                   # a 61-bit lcm
    "eighths and one prime": ((8, PRIMES_61[1]), True),     # 64 bits
    "sixteenths and one prime": ((16, PRIMES_61[1]), False),  # 65 bits
    "decimals and one prime": ((100, 10**6, PRIMES_61[2]), False),
    "primes": (PRIMES_61, False),
}


def kinds_set(rng, kinds, n_elems):
    """One row of each kind in `kinds`, each degree k/q with q drawn from
    the kind's denominators."""
    def degree(denominators):
        q = rng.choice(denominators)
        return Fraction(rng.randint(0, q), q)
    return PnsSet.from_rows(
        [f"e{k + 1}" for k in range(len(kinds))], [f"u{j + 1}" for j in range(n_elems)],
        [[tuple(degree(ROW_KINDS[kind][0]) for _ in range(4)) for _ in range(n_elems)]
         for kind in kinds])


def has_view(s):
    """Whether the measure read `s` into an int view."""
    return s.__dict__["_view"] is not None


class TestRowForms:
    """Sets read as int lists over one denominator and sets read cell by
    cell give what Fraction arithmetic gives, alone and against each
    other."""

    @pytest.fixture(scope="class", params=["shuffled kinds", "decimal against primes",
                                           "one prime against another"])
    def pair(self, request):
        rng = random.Random(f"row forms/{request.param}")
        kinds = list(ROW_KINDS)
        # three elements: at p = 1000 a pair of rows over distinct primes
        # takes up to a second
        if request.param == "shuffled kinds":
            f = kinds_set(rng, kinds, 3)
            g = kinds_set(rng, rng.sample(kinds, len(kinds)), 3)
        elif request.param == "decimal against primes":
            f = kinds_set(rng, ["two and six decimals"] * 2, 3)
            g = kinds_set(rng, ["primes"] * 2, 3)
        else:  # each view within the guard, their joint lcm of 125 bits past it
            f = kinds_set(rng, ["one prime"] * 2, 3)
            g = kinds_set(rng, ["eighths and one prime"] * 2, 3)
        return f, g

    @pytest.mark.parametrize("p", [1, 2, 3, 10, MAX_ORDER])
    def test_value_factor_equals_the_fraction_longhand(self, pair, p):
        f, g = pair
        assert repr(value_similarity(f, g, p)) == repr(longhand_value_similarity(f, g, p))

    def test_possibility_factor_equals_the_fraction_longhand(self, pair):
        f, g = pair
        assert repr(possibility_similarity(f, g)) == repr(longhand_possibility_similarity(f, g))

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_a_set_of_each_kind_has_a_view_only_within_the_guard(self, kind):
        s = kinds_set(random.Random(f"row forms/{kind}"), [kind] * 2, 4)
        similarity(s, s)
        assert has_view(s) is ROW_KINDS[kind][1]

    def test_no_set_with_a_prime_degree_past_the_guard_has_a_view(self):
        primes = kinds_set(random.Random("primes"), ["primes"] * 10, 100)
        decimals = kinds_set(random.Random("decimals"), ["two and six decimals"] * 10, 100)
        rows = [list(row) for row in decimals.cells]
        rows[9][99] = (Fraction(1, PRIMES_61[3]), 0, 0, 1)   # 81 bits with 10**6
        scattered = PnsSet.from_rows(decimals.parameters, decimals.universe, rows)
        for s in (primes, decimals, scattered):
            similarity(s, s, p=1)
        assert [has_view(s) for s in (primes, decimals, scattered)] == [False, True, False]

    @pytest.mark.parametrize("prime_row", [0, 1, 3, 9])
    def test_reading_stops_at_the_first_row_past_the_guard(self, prime_row):
        # decimal rows, then one row over primes, then rows that must not be read
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"a cell after row {prime_row} was read: {name}")
        kinds = ["two and six decimals"] * prime_row + ["primes"]
        read = kinds_set(random.Random(f"early/{prime_row}"), kinds, 100)
        rows = read.cells + ((Unread(),) * 100,) * (9 - prime_row)
        s = PnsSet(tuple(f"e{k}" for k in range(10)), read.universe, rows)
        assert sets_module._view(s) is None


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

    def test_similarity_one_does_not_mean_equal_sets(self):
        # phi keeps only (t + i + f)/3, so triples of one mean are alike
        a = PnsSet.from_rows(["e1"], ["u1"], [[(0.3, 0.3, 0.3, 0.5)]])
        b = PnsSet.from_rows(["e1"], ["u1"], [[(0.9, 0, 0, 0.5)]])
        assert a != b
        assert similarity(a, b, p=1).overall == 1
        assert similarity(a, b, p=2).overall == 1.0

    def test_inclusion_chain_counterexample(self):
        f, g, h = CHAIN
        assert is_subset(f, g) and is_subset(g, h)
        assert similarity(f, h, p=1).overall == Fraction(83, 95)
        assert similarity(g, h, p=1).overall == Fraction(81, 95)

    @pytest.mark.xfail(strict=True, reason="the measure breaks the inclusion "
                       "axiom of soft-set similarity: S(F, H) = 83/95 exceeds "
                       "S(G, H) = 81/95 for F in G in H")
    def test_inclusion_chains_keep_their_order(self):
        f, g, h = CHAIN
        assert similarity(f, h, p=1).overall <= similarity(g, h, p=1).overall


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

    def test_select_reaches_each_traced_stage_once_per_candidate(self, hiring,
                                                                  monkeypatch):
        # the benchmark's per-layer trace times these two stages by wrapping
        # their module-level names; a kernel that inlined them into
        # similarity() would read 0 there without any error
        model, candidates = hiring
        calls = Counter()
        for name in ("value_similarity", "possibility_similarity"):
            def counted(*args, _name=name, _stage=getattr(similarity_module, name)):
                calls[_name] += 1
                return _stage(*args)
            monkeypatch.setattr(similarity_module, name, counted)
        failed = SchemaError("zz.json: JSON parse error at line 1, column 2")
        s = select_by_similarity(model, candidates + [("zz", failed)])
        assert s.selected == ("applicant_4",)
        assert calls == {"value_similarity": len(candidates),
                         "possibility_similarity": len(candidates)}

    @pytest.mark.parametrize("p", [0, "x", 2.0, MAX_ORDER + 1])
    def test_p_is_checked_when_no_candidate_is_comparable(self, hiring, p):
        model, _ = hiring
        relabelled = PnsSet.from_rows(["x"], ["u1"], [[(0, 0, 0, 1)]])
        for candidates in ([("a", SchemaError("bad"))], [("a", relabelled)]):
            with pytest.raises(ValueError, match="p must be"):
                select_by_similarity(model, candidates, p=p)

    def test_p_is_checked_before_the_first_candidate_is_read(self, hiring):
        model, candidates = hiring
        read = []

        def loading():
            for label, candidate in candidates:
                read.append(label)
                yield label, candidate

        with pytest.raises(ValueError, match="p must be"):
            select_by_similarity(model, loading(), p=0)
        assert read == []

    def test_each_set_is_read_once(self, hiring, monkeypatch):
        # fresh objects: the fixture's sets may already hold their views
        model, candidates = hiring
        model = PnsSet(model.parameters, model.universe, model.cells)
        relabelled = PnsSet.from_rows(["x"], ["u1"], [[(0, 0, 0, 1)]])
        candidates = [(label, PnsSet(c.parameters, c.universe, c.cells))
                      for label, c in candidates] + [("odd", relabelled)]
        read = Counter()

        def counted(cell, _read=sets_module._degrees):
            read[id(cell)] += 1
            return _read(cell)
        monkeypatch.setattr(sets_module, "_degrees", counted)
        s = select_by_similarity(model, candidates)
        assert s.selected == ("applicant_4",)
        compared = [model] + [c for _, c in candidates[:-1]]
        assert read == Counter(id(cell) for c in compared for row in c.cells for cell in row)
        assert all(map(has_view, compared))
        assert "_view" not in relabelled.__dict__
        read.clear()
        assert select_by_similarity(model, candidates) == s
        assert read == Counter()

    def test_empty_candidate_list_refused(self, hiring):
        model, _ = hiring
        with pytest.raises(PnsError, match="no candidates"):
            select_by_similarity(model, [])

    def test_a_generator_of_candidates_reads_as_the_list(self, hiring):
        model, candidates = hiring
        failed = SchemaError("zz.json: JSON parse error at line 1, column 2")
        candidates = candidates + [("zz", failed)]
        assert (select_by_similarity(model, (c for c in candidates), p=1)
                == select_by_similarity(model, candidates, p=1))

    def test_an_empty_generator_is_refused_as_the_empty_list(self, hiring):
        model, _ = hiring
        with pytest.raises(PnsError) as from_list:
            select_by_similarity(model, [])
        with pytest.raises(PnsError) as from_generator:
            select_by_similarity(model, iter(()))
        assert str(from_generator.value) == str(from_list.value)


class TestRowsKeptOnASet:
    """The int rows the measure keeps on a set change nothing a caller sees."""

    def test_a_compared_set_looks_as_before(self, cars):
        f, g = (PnsSet(s.parameters, s.universe, s.cells) for s in cars)
        before = (repr(f), hash(f), dataclasses.asdict(f), pickle.dumps(f),
                  dumps_pns(f), "".join(_chunks(f, _six_decimals)), "\n".join(_set_table(f, _num)))
        similarity(f, g)
        assert f == cars[0]
        assert (repr(f), hash(f), dataclasses.asdict(f), pickle.dumps(f),
                dumps_pns(f), "".join(_chunks(f, _six_decimals)), "\n".join(_set_table(f, _num))) == before
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert twin == f
            assert similarity(twin, g) == similarity(f, g)

    @settings(max_examples=50, deadline=None)
    @given(pair=same_label_pairs(), p=st.sampled_from([1, 2, 3]))
    def test_a_second_comparison_reads_the_kept_rows(self, pair, p):
        f, g = pair
        for _ in range(2):  # the second pass reads the rows the first one kept
            assert value_similarity(f, g, p) == longhand_value_similarity(f, g, p)
            assert (outcome(possibility_similarity, f, g)
                    == outcome(longhand_possibility_similarity, f, g))
