import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings, strategies as st

import pnsoft.algebra
import pnsoft.sets
from pnsoft import (
    ONE,
    TCONORMS,
    TNORMS,
    ZERO,
    NeutrosophicTriple,
    PnsSet,
    ProfileError,
    as_unit,
    decide,
    load_pns,
    make_profile,
    n_conorm,
    n_norm,
    negate_triple,
    triple_leq,
)
from pnsoft.algebra import (
    DEFAULT_PROFILE,
    _exact,
    negation_standard,
    parse_decimal,
    tconorm_lukasiewicz,
    tconorm_max,
    tconorm_probsum,
    tnorm_lukasiewicz,
    tnorm_min,
    tnorm_product,
)
from pnsoft.cli import main

from conftest import PROFILES, TIED_DEGREES, fixture, mixed_degrees, two_decimal_pairs

units = st.integers(0, 20).map(lambda k: Fraction(k, 20))
triples = st.tuples(units, units, units).map(lambda t: NeutrosophicTriple(*t))
degrees = mixed_degrees()
mixed_triples = st.tuples(degrees, degrees, degrees).map(lambda t: NeutrosophicTriple(*t))

T = NeutrosophicTriple


class TestAsUnit:
    def test_float_reads_as_decimal(self):
        assert as_unit(0.7) == Fraction(7, 10)
        assert as_unit(0.1) + as_unit(0.2) == Fraction(3, 10)

    def test_strings_and_ints(self):
        assert as_unit("0.25") == Fraction(1, 4)
        assert as_unit("3/4") == Fraction(3, 4)
        assert as_unit(1) == 1
        assert as_unit(0) == 0

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, "7/5", 2])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            as_unit(bad)

    def test_rejects_bool_and_nan(self):
        with pytest.raises(ValueError, match="boolean"):
            as_unit(True)
        with pytest.raises(ValueError):
            as_unit(float("nan"))
        with pytest.raises(ValueError):
            as_unit(float("inf"))
        with pytest.raises(ValueError):
            as_unit("soon")
        with pytest.raises(ValueError):
            as_unit(None)

    def test_message_names_the_field(self):
        with pytest.raises(ValueError, match="mu"):
            as_unit(1.5, "mu")


class TestTriple:
    def test_range_checked_on_construction(self):
        with pytest.raises(ValueError, match="indeterminacy"):
            T(0.5, 1.2, 0.3)

    def test_tuple_round_trip(self):
        a = T(0.5, 0.2, 0.6)
        assert tuple(a) == (Fraction(1, 2), Fraction(1, 5), Fraction(3, 5))
        assert T(*a) == a

    def test_order_examples(self):
        assert triple_leq(T(0.5, 0.2, 0.6), T(0.6, 0.1, 0.5))
        # indeterminacy rises, so the pair is incomparable
        assert not triple_leq(T(0.5, 0.2, 0.6), T(0.6, 0.3, 0.5))
        assert not triple_leq(T(0.6, 0.1, 0.5), T(0.5, 0.2, 0.6))

    @given(triples)
    def test_bounds_of_the_order(self, a):
        assert triple_leq(ZERO, a)
        assert triple_leq(a, ONE)

    @given(triples, triples, triples)
    def test_partial_order_laws(self, a, b, c):
        assert triple_leq(a, a)
        if triple_leq(a, b) and triple_leq(b, a):
            assert a == b
        if triple_leq(a, b) and triple_leq(b, c):
            assert triple_leq(a, c)


class TestScalarNorms:
    def test_known_values(self):
        pmin = make_profile("min", "max")
        pprod = make_profile("product", "probsum")
        pluk = make_profile("lukasiewicz", "lukasiewicz")
        f = Fraction
        assert pmin.tnorm(f("0.5"), f("0.4")) == Fraction(2, 5)
        assert pmin.tconorm(f("0.5"), f("0.4")) == Fraction(1, 2)
        assert pprod.tnorm(f("0.5"), f("0.4")) == Fraction(1, 5)
        assert pprod.tconorm(f("0.5"), f("0.4")) == Fraction(7, 10)
        assert pluk.tnorm(f("0.7"), f("0.6")) == Fraction(3, 10)
        assert pluk.tnorm(f("0.3"), f("0.4")) == 0
        assert pluk.tconorm(f("0.7"), f("0.6")) == 1
        assert pluk.tconorm(f("0.3"), f("0.4")) == Fraction(7, 10)

    def test_lukasiewicz_clamps_call_no_comparison(self, monkeypatch):
        # past its bound a clamp returns one shared Fraction; within it, the sum
        f = Fraction
        pairs = [(f("0.7"), f("0.6")), (f("0.3"), f("0.4")), (f("0.5"), f("0.5")),
                 (f(1, 3), f(2, 3)), (0, 1), (1, 1)]
        before = [(tnorm_lukasiewicz(a, b), tconorm_lukasiewicz(a, b)) for a, b in pairs]

        def refuse(*args):
            raise AssertionError("a Lukasiewicz clamp called a Fraction comparison")
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name, refuse)
        after = [(tnorm_lukasiewicz(a, b), tconorm_lukasiewicz(a, b)) for a, b in pairs]
        assert after == before == [(f(3, 10), 1), (0, f(7, 10)), (0, 1),
                                   (0, 1), (0, 1), (1, 1)]
        assert tnorm_lukasiewicz(f("0.1"), f("0.2")) is tnorm_lukasiewicz(0, 0)
        assert tconorm_lukasiewicz(f("0.9"), f("0.2")) is tconorm_lukasiewicz(1, 1)

    # make_profile trusts the named families, and the set operators build
    # unchecked cells from what they return, so this is their check: each
    # result an exact Fraction in [0, 1]
    @pytest.mark.parametrize("tconorm", sorted(TCONORMS))
    @pytest.mark.parametrize("tnorm", sorted(TNORMS))
    @settings(max_examples=40, deadline=None)
    @given(x=degrees, y=degrees)
    def test_families_pass_the_axiom_check(self, tnorm, tconorm, x, y):
        p = make_profile(tnorm, tconorm)
        for value in (p.tnorm(x, y), p.tconorm(x, y)):
            assert type(value) is Fraction and 0 <= value <= 1

    # complement builds unchecked cells from 1 - x as well
    @settings(max_examples=40, deadline=None)
    @given(x=degrees, y=degrees)
    def test_standard_negation_passes_the_axiom_check(self, x, y):
        n = negation_standard
        assert type(n(x)) is Fraction and 0 <= n(x) <= 1
        assert n(Fraction(0)) == 1 and n(Fraction(1)) == 0
        if x <= y:
            assert n(x) >= n(y)

    @pytest.mark.parametrize("tconorm", sorted(TCONORMS))
    @pytest.mark.parametrize("tnorm", sorted(TNORMS))
    @settings(max_examples=40, deadline=None)
    @given(x=degrees, y=degrees, z=degrees)
    def test_axioms_hold_exactly(self, tnorm, tconorm, x, y, z):
        p = make_profile(tnorm, tconorm)
        t, s = p.tnorm, p.tconorm
        assert t(x, 1) == x and s(x, 0) == x
        assert t(x, y) == t(y, x) and s(x, y) == s(y, x)
        assert t(t(x, y), z) == t(x, t(y, z))
        assert s(s(x, y), z) == s(x, s(y, z))
        if y <= z:
            assert t(x, y) <= t(x, z) and s(x, y) <= s(x, z)
        assert t(x, y) <= min(x, y) <= max(x, y) <= s(x, y)


#: the plain Fraction expressions the arithmetic families compute from ints
PLAIN = {
    tnorm_product: lambda a, b: a * b,
    tconorm_probsum: lambda a, b: a + b - a * b,
    tnorm_lukasiewicz: lambda a, b: (
        lambda s: s if s.numerator >= 0 else pnsoft.algebra._ZERO_DEGREE)(a + b - 1),
    tconorm_lukasiewicz: lambda a, b: (
        lambda s: s if s.numerator <= s.denominator else pnsoft.algebra._ONE_DEGREE)(a + b),
    negation_standard: lambda a: 1 - a,
}

#: primes of 61 bits: no two of them share a factor with each other or with 10
PRIMES_61 = (2**61 - 1, 2**61 - 31, 2**60 + 33)


def over(q):
    return st.integers(0, q).map(lambda k: Fraction(k, q))


#: degrees in [0, 1]: both bounds, six and twelve decimals, 61-bit primes
kernel_degrees = (st.sampled_from([Fraction(0), Fraction(1)]) | over(10**6)
                  | over(10**12) | st.sampled_from(PRIMES_61).flatmap(over))


def outcome(function, *args):
    """What a call gives: its result's type and exact ratio (a Fraction's
    numerator and denominator), or the type of what it raised."""
    try:
        value = function(*args)
    except Exception as exc:
        return "raises", type(exc)
    return type(value), value.as_integer_ratio()


class TestIntegerKernels:
    """The product, probabilistic sum, Lukasiewicz and standard negation
    compute from Fraction's int slots; each must give the Fraction the
    plain operators give, and other operands must take those operators."""

    @pytest.mark.parametrize("kernel", [tnorm_product, tconorm_probsum,
                                        tnorm_lukasiewicz, tconorm_lukasiewicz],
                             ids=lambda f: f.__name__)
    @seed(20141)
    @settings(max_examples=300, deadline=None)
    @given(a=kernel_degrees, b=kernel_degrees)
    def test_binary_kernels_equal_the_plain_expression(self, kernel, a, b):
        assert outcome(kernel, a, b) == outcome(PLAIN[kernel], a, b)
        assert outcome(kernel, b, a) == outcome(PLAIN[kernel], b, a)

    @seed(20141)
    @settings(max_examples=300, deadline=None)
    @given(a=kernel_degrees)
    def test_negation_equals_the_plain_expression(self, a):
        assert outcome(negation_standard, a) == outcome(PLAIN[negation_standard], a)

    def test_every_kind_of_degree_is_drawn(self):
        drawn = []

        @seed(20141)
        @settings(max_examples=300, database=None)
        @given(x=kernel_degrees)
        def collect(x):
            drawn.append(x)
        collect()
        assert {0, 1} <= set(drawn)
        for q in (10**6, 10**12, *PRIMES_61):
            assert any(x.denominator == q for x in drawn), q

    @pytest.mark.parametrize("kernel", list(PLAIN), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("args", [
        (0, 1), (1, 1), (1, 0), (Fraction(1, 3), 1), (0, Fraction(2, 7)),
        (0.25, 0.5), (Fraction(1, 4), 0.5), (0.75, Fraction(1, 2)), (1.0, 1),
    ], ids=str)
    def test_ints_and_floats_take_the_plain_expression(self, kernel, args):
        # a float has no numerator, so on floats the clamps raise as before
        args = args[:1] if kernel is negation_standard else args
        assert outcome(kernel, *args) == outcome(PLAIN[kernel], *args)

    @pytest.mark.parametrize("a,b", [
        (Fraction(1, 10), Fraction(2, 10)), (Fraction(0), Fraction(0)), (0, 0),
        (Fraction(1, 2**61 - 1), Fraction(3, 2**60 + 33)),
        (Fraction(1, 3), Fraction(1, 3)),
    ], ids=str)
    def test_the_t_norm_clamp_returns_the_shared_zero(self, a, b):
        assert tnorm_lukasiewicz(a, b) is pnsoft.algebra._ZERO_DEGREE

    @pytest.mark.parametrize("a,b", [
        (Fraction(9, 10), Fraction(2, 10)), (Fraction(1), Fraction(1)), (1, 1),
        (Fraction(2**61 - 2, 2**61 - 1), Fraction(2**60, 2**60 + 33)),
        (Fraction(2, 3), Fraction(2, 3)),
    ], ids=str)
    def test_the_t_conorm_clamp_returns_the_shared_one(self, a, b):
        assert tconorm_lukasiewicz(a, b) is pnsoft.algebra._ONE_DEGREE

    def test_a_sum_on_the_bound_is_not_clamped(self):
        # a + b - 1 == 0 and a + b == 1 are in range: the sum itself, as before
        a, b = Fraction(1, 3), Fraction(2, 3)
        for value in (tnorm_lukasiewicz(a, b), tconorm_lukasiewicz(a, b)):
            assert type(value) is Fraction
            assert value is not pnsoft.algebra._ZERO_DEGREE
            assert value is not pnsoft.algebra._ONE_DEGREE
        assert (tnorm_lukasiewicz(a, b), tconorm_lukasiewicz(a, b)) == (0, 1)

    def test_complement_negates_through_the_standard_negation(self, monkeypatch):
        s = load_pns(fixture("cars_assessment_a.json"))
        calls = []
        real = pnsoft.sets.negation_standard
        monkeypatch.setattr(pnsoft.sets, "negation_standard",
                            lambda x: calls.append(x) or real(x))
        c = pnsoft.sets.complement(s)
        cells = [cell for row in s.cells for cell in row]
        assert calls == [x for cell in cells for x in (cell.indeterminacy, cell.mu)]
        assert [(x.falsity, 1 - x.indeterminacy, x.truth, 1 - x.mu) for x in cells] == [
            (y.truth, y.indeterminacy, y.falsity, y.mu) for row in c.cells for y in row]


def assert_reduced(x):
    """x is a plain Fraction whose slots are coprime over a positive
    denominator, as Fraction(n, d) leaves them: == and hash read the slots
    as they are, so an unreduced Fraction breaks both silently."""
    assert type(x) is Fraction
    n, d = x._numerator, x._denominator
    assert type(n) is int and type(d) is int
    assert d > 0 and gcd(n, d) == 1, (n, d)


#: factors a numerator is multiplied by, so that it shares some with the
#: denominator it is drawn over
COMMON_FACTORS = (1, 2, 4, 5, 10**3, 2**7 * 5**3, *PRIMES_61)


@st.composite
def exact_ints(draw):
    """(n, d): d one, six or twelve decimals or a 61-bit prime; n zero, or
    in [-d, d] times a factor that it may share with d."""
    d = draw(st.sampled_from([1, 10**6, 10**12, *PRIMES_61]))
    k = draw(st.just(0) | st.integers(-d, d))
    return k * draw(st.sampled_from(COMMON_FACTORS)), d


def assert_is_the_fraction_of(n, d):
    x, y = _exact(n, d), Fraction(n, d)
    assert type(x) is Fraction
    assert x == y and hash(x) == hash(y)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)   # repr of a 10**5-digit denominator
    try:
        assert repr(x) == repr(y)
    finally:
        sys.set_int_max_str_digits(limit)
    assert_reduced(x)


class TestExact:
    """`algebra._exact` builds a Fraction through its slots: it must be the
    Fraction that Fraction(n, d) builds, and every result built through it
    must have coprime slots over a positive denominator."""

    @seed(20141)
    @settings(max_examples=400, deadline=None)
    @given(nd=exact_ints())
    def test_is_the_fraction_of_its_ints(self, nd):
        assert_is_the_fraction_of(*nd)

    def test_every_kind_of_draw_is_made(self):
        drawn = []

        @seed(20141)
        @settings(max_examples=400, database=None)
        @given(nd=exact_ints())
        def collect(nd):
            drawn.append(nd)
        collect()
        assert any(n == 0 for n, _ in drawn)
        assert any(n < 0 and d > 1 for n, d in drawn)
        assert any(d == 1 and n for n, d in drawn)
        for q in (10**6, 10**12, *PRIMES_61):   # some draws reduce, some do not
            assert any(d == q and gcd(n, d) == 1 for n, d in drawn), q
            assert any(d == q and n and gcd(n, d) > 1 for n, d in drawn), q

    @pytest.mark.parametrize("n", [0, -(2**17 * 5**99_990 * 7), 3 * 10**99_999 + 1],
                             ids=["zero", "negative-shared-factors", "coprime"])
    def test_a_hundred_thousand_digit_power_of_ten(self, n):
        assert_is_the_fraction_of(n, 10**100_000)

    @seed(20141)
    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(r"-?[0-9]{1,8}\.[0-9]{1,14}", fullmatch=True))
    def test_parsed_decimals_are_reduced(self, literal):
        value = parse_decimal(literal)
        assert value == Fraction(literal)
        assert_reduced(value)

    @seed(20141)
    @settings(max_examples=300, deadline=None)
    @given(a=kernel_degrees, b=kernel_degrees)
    def test_kernel_results_are_reduced(self, a, b):
        for kernel in (tnorm_product, tconorm_probsum, tnorm_lukasiewicz,
                       tconorm_lukasiewicz):
            assert_reduced(kernel(a, b))
        assert_reduced(negation_standard(a))

    @pytest.mark.parametrize("denominators, kept", [
        ((100, 10**6), True), ((2, *PRIMES_61), False),
    ], ids=["decimals-int-rows", "primes-fallback"])
    def test_weighted_entries_and_row_scores_are_reduced(self, denominators, kept):
        rng = random.Random(f"exact/{denominators}")

        def one_set():
            return PnsSet.from_rows(
                ["e1", "e2", "e3"], ["u1", "u2", "u3", "u4"],
                [[tuple(Fraction(rng.randint(0, q), q)
                        for q in (rng.choice(denominators) for _ in range(4)))
                  for _ in range(4)] for _ in range(3)])
        report = decide(one_set(), one_set())
        assert ("_int_operands" in vars(report.product)) is kept
        for matrix in (report.weighted_truth, report.weighted_indeterminacy,
                       report.weighted_falsity):
            for row in matrix:
                for x in row:
                    assert_reduced(x)
        for x in (*report.truth_scores, *report.indeterminacy_scores,
                  *report.falsity_scores):
            assert_reduced(x)


def tied_set(degrees):
    """A 2x3 set whose degrees are the next 24 of the literals `degrees`."""
    return pnsoft.sets.PnsSet.from_rows(
        ["e1", "e2"], ["u1", "u2", "u3"],
        [[tuple(next(degrees) for _ in range(4)) for _ in range(3)]
         for _ in range(2)])


def cell_degrees(cell):
    return (cell.triple.truth, cell.triple.indeterminacy, cell.triple.falsity, cell.mu)


class TestMinMaxPick:
    """tnorm_min and tconorm_max are the one exact min/max: of equal degrees
    min keeps its first operand and max its second."""

    def test_ties_keep_distinct_objects_apart(self):
        x, y = Fraction(3, 10), Fraction("0.3")
        assert x == y and x is not y
        assert tnorm_min(x, y) is x and tnorm_min(y, x) is y
        assert tconorm_max(x, y) is y and tconorm_max(y, x) is x

    def test_strict_order_picks_the_right_operand(self):
        low, high = Fraction(1, 3), Fraction(3, 10) + Fraction(1, 10)
        for a, b in ((low, high), (high, low)):
            assert tnorm_min(a, b) is low
            assert tconorm_max(a, b) is high

    @pytest.mark.parametrize("a,b", [
        (Fraction(1, 2), 1), (1, Fraction(1, 2)), (0, Fraction(0)), (Fraction(0), 0),
        (Fraction(1, 4), 0.5), (0.25, Fraction(1, 4)), (1, 0), (0.5, 0.5),
    ])
    def test_other_operands_take_the_builtin(self, a, b):
        assert tnorm_min(a, b) is min(a, b)
        assert tconorm_max(a, b) is max(b, a)

    @settings(max_examples=50)
    @given(pair=two_decimal_pairs(same_parameters=True))
    def test_set_operators_keep_operand_degrees(self, pair):
        f, g = pair
        # union: max on truth and mu, min on the rest; intersection the reverse
        for combine, truth_tie, other_tie in ((pnsoft.sets.union, 1, 0),
                                              (pnsoft.sets.intersection, 0, 1)):
            ties = (truth_tie, other_tie, other_tie, truth_tie)
            h = combine(f, g, DEFAULT_PROFILE)
            for hr, fr, gr in zip(h.cells, f.cells, g.cells):
                for c, a, b in zip(hr, fr, gr):
                    for got, x, y, tie in zip(cell_degrees(c), cell_degrees(a),
                                              cell_degrees(b), ties):
                        assert got is x or got is y
                        if x == y:
                            assert got is (x, y)[tie]

    def test_fraction_keeps_the_slots_the_picks_read(self):
        # exactly these two: algebra._exact sets both, and would leave any
        # slot added beside them unset
        assert Fraction.__slots__ == ("_numerator", "_denominator"), (
            "the norm kernels, as_unit and the cell readers of decision, "
            "similarity and jsonio read Fraction._numerator and "
            "_denominator, and algebra._exact builds Fractions by setting "
            "them; without them every load and every operator fails")

    def test_picks_never_call_the_rich_comparisons(self, monkeypatch):
        degrees = itertools.cycle(TIED_DEGREES)
        f, g = tied_set(degrees), tied_set(degrees)
        operations = [
            lambda: pnsoft.sets.union(f, g, DEFAULT_PROFILE),
            lambda: pnsoft.sets.intersection(f, g, DEFAULT_PROFILE),
            lambda: pnsoft.sets.and_product(f, g),
            lambda: pnsoft.sets.or_product(f, g),
        ]
        before = [operation() for operation in operations]

        def refuse(*args):
            raise AssertionError("a min/max pick called a Fraction comparison")
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name, refuse)
        assert [operation() for operation in operations] == before


class TestProfileCheck:
    """Profiles come from family names only: an operation passed as a
    callable is refused, whether or not it keeps the axioms."""

    def test_non_commutative_tnorm_rejected(self):
        with pytest.raises(ProfileError, match="unknown t-norm .*known: "):
            make_profile(tnorm=lambda a, b: a)

    def test_wrong_identity_rejected(self):
        with pytest.raises(ProfileError, match="unknown t-conorm .*known: "):
            make_profile(tconorm=lambda a, b: min(a, b))

    def test_escaping_range_rejected(self):
        with pytest.raises(ProfileError, match="unknown t-conorm .*known: "):
            make_profile(tconorm=lambda a, b: a + b)

    def test_unknown_family_name(self):
        with pytest.raises(ProfileError, match="unknown t-norm"):
            make_profile(tnorm="geometric")
        with pytest.raises(ProfileError, match="known: "):
            make_profile(tconorm="sum")
        with pytest.raises(ProfileError, match=r"unknown t-norm \['min'\]"):
            make_profile(tnorm=["min"])


class TestWhereProfilesAreChecked:
    """make_profile checks that it was given names; the named families are
    checked by the tests above instead of on every call, and the set
    operators do not check the degrees those families return."""

    @pytest.mark.parametrize("given", [
        {"tnorm": tnorm_product},
        {"tconorm": tconorm_probsum},
    ], ids=["tnorm", "tconorm"])
    def test_a_callable_is_checked(self, given):
        # even the very function a family uses is refused: names only
        with pytest.raises(ProfileError, match="known: "):
            make_profile(**given)

    def test_a_named_family_on_the_command_line_is_not_rechecked(self, monkeypatch,
                                                                 capsys):
        paths = [fixture("cars_assessment_a.json"), fixture("cars_assessment_b.json")]
        loaded = sum(4 * len(s.parameters) * len(s.universe) for s in map(load_pns, paths))
        calls = []
        real = pnsoft.algebra.as_unit

        def counting(value, what="value"):
            calls.append(what)
            return real(value, what)

        # the constructors' checks call algebra.as_unit, the builder sets.as_unit
        monkeypatch.setattr(pnsoft.algebra, "as_unit", counting)
        monkeypatch.setattr(pnsoft.sets, "as_unit", counting)
        argv = ["union", *map(str, paths), "--tnorm", "product", "--tconorm", "probsum"]
        assert main(argv) == 0
        capsys.readouterr()
        # each loaded degree once, and not one for the union's cells
        assert len(calls) == loaded


class TestTripleNorms:
    def test_known_values(self):
        assert n_norm(T(0.5, 0.3, 0.7), T(0.4, 0.6, 0.2)) == T(0.4, 0.6, 0.7)
        assert n_conorm(T(0.5, 0.2, 0.6), T(0.6, 0.3, 0.8)) == T(0.6, 0.2, 0.6)

    def test_product_profile_values(self):
        p = make_profile("product", "probsum")
        assert n_norm(T(0.5, 0.3, 0.7), T(0.4, 0.6, 0.2), p) == T("1/5", "18/25", "19/25")
        assert n_conorm(T(0.5, 0.3, 0.7), T(0.4, 0.6, 0.2), p) == T("7/10", "9/50", "7/50")

    @given(a=triples, b=triples)
    def test_commutes(self, a, b):
        assert n_norm(a, b) == n_norm(b, a)
        assert n_conorm(a, b) == n_conorm(b, a)

    @settings(max_examples=60, deadline=None)
    @given(a=mixed_triples)
    def test_boundary_laws(self, a):
        for p in PROFILES:
            assert n_norm(a, ONE, p) == a
            assert n_norm(a, ZERO, p) == ZERO
            assert n_conorm(a, ZERO, p) == a
            assert n_conorm(a, ONE, p) == ONE
        assert negate_triple(ONE) == ZERO and negate_triple(ZERO) == ONE

    @given(a=triples, b=triples, c=triples)
    def test_monotone_in_the_triple_order(self, a, b, c):
        if triple_leq(b, c):
            assert triple_leq(n_norm(a, b), n_norm(a, c))
            assert triple_leq(n_conorm(a, b), n_conorm(a, c))

    @given(a=triples, b=triples)
    def test_norm_below_conorm(self, a, b):
        assert triple_leq(n_norm(a, b), n_conorm(a, b))


class TestNegation:
    def test_known_value(self):
        assert negate_triple(T(0.5, 0.2, 0.6)) == T(0.6, 0.8, 0.5)
        assert negate_triple(ONE) == ZERO
        assert negate_triple(ZERO) == ONE

    @given(a=triples)
    def test_involution(self, a):
        assert negate_triple(negate_triple(a)) == a

    @given(a=triples, b=triples)
    def test_order_reversing(self, a, b):
        if triple_leq(a, b):
            assert triple_leq(negate_triple(b), negate_triple(a))

    @given(a=triples, b=triples)
    def test_de_morgan_under_default_profile(self, a, b):
        na, nb = negate_triple(a), negate_triple(b)
        assert negate_triple(n_norm(a, b)) == n_conorm(na, nb)
        assert negate_triple(n_conorm(a, b)) == n_norm(na, nb)

    def test_scalar_negation_fixed_point(self):
        assert negation_standard(Fraction(1, 2)) == Fraction(1, 2)
