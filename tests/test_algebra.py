import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pnsoft import (
    ONE,
    TCONORMS,
    TNORMS,
    ZERO,
    NeutrosophicTriple,
    ProfileError,
    as_unit,
    check_profile,
    make_profile,
    n_conorm,
    n_norm,
    negate_triple,
    triple_leq,
)
import pnsoft.algebra
from pnsoft.algebra import (
    DEFAULT_PROFILE,
    NormProfile,
    negation_standard,
    tconorm_probsum,
    tnorm_product,
)
from pnsoft.cli import main

from conftest import fixture

units = st.integers(0, 20).map(lambda k: Fraction(k, 20))
triples = st.tuples(units, units, units).map(lambda t: NeutrosophicTriple(*t))

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
        assert a.as_tuple() == (Fraction(1, 2), Fraction(1, 5), Fraction(3, 5))
        assert tuple(a) == a.as_tuple()

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

    # make_profile trusts the named families, so this is their check
    @pytest.mark.parametrize("tconorm", sorted(TCONORMS))
    @pytest.mark.parametrize("tnorm", sorted(TNORMS))
    def test_families_pass_the_axiom_check(self, tnorm, tconorm):
        check_profile(make_profile(tnorm, tconorm))

    @pytest.mark.parametrize("tnorm,tconorm", [
        ("min", "max"), ("product", "probsum"), ("lukasiewicz", "lukasiewicz"),
    ])
    @given(x=units, y=units, z=units)
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


class TestProfileCheck:
    def test_non_commutative_tnorm_rejected(self):
        with pytest.raises(ProfileError, match="commutative"):
            make_profile(tnorm=lambda a, b: a)

    def test_wrong_identity_rejected(self):
        with pytest.raises(ProfileError):
            make_profile(tconorm=lambda a, b: min(a, b))

    def test_escaping_range_rejected(self):
        with pytest.raises(ProfileError, match="escapes"):
            make_profile(tconorm=lambda a, b: a + b)

    def test_frozen_negation_rejected(self):
        with pytest.raises(ProfileError, match="negation"):
            make_profile(negation=lambda x: x)

    def test_bad_triple_negation_rejected(self):
        with pytest.raises(ProfileError, match="triple negation"):
            make_profile(triple_negation=lambda a: a)

    def test_unknown_family_name(self):
        with pytest.raises(ProfileError, match="unknown t-norm"):
            make_profile(tnorm="geometric")
        with pytest.raises(ProfileError, match="known: "):
            make_profile(tconorm="sum")

    def test_float_valued_callable_accepted_within_tolerance(self):
        check_profile(NormProfile(
            tnorm=lambda a, b: float(min(a, b)),
            tconorm=lambda a, b: float(max(a, b)),
            scalar_negation=lambda x: 1.0 - float(x),
            triple_negation=DEFAULT_PROFILE.triple_negation,
        ))


class TestWhereProfilesAreChecked:
    """make_profile checks callables; the named families are checked by
    test_families_pass_the_axiom_check instead of on every call."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = pnsoft.algebra.check_profile

        def counting(profile):
            calls.append(profile)
            return real(profile)

        monkeypatch.setattr(pnsoft.algebra, "check_profile", counting)
        return calls

    def test_importing_the_package_checks_nothing(self):
        # a fresh interpreter, so that the import runs the module code
        code = ("import sys\n"
                "calls = []\n"
                "def spy(frame, event, arg):\n"
                "    if event == 'call' and frame.f_code.co_name == 'check_profile':\n"
                "        calls.append(event)\n"
                "sys.setprofile(spy)\n"
                "import pnsoft.cli\n"
                "sys.setprofile(None)\n"
                "print(len(calls))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(pnsoft.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    def test_a_named_family_on_the_command_line_is_not_rechecked(self, checks,
                                                                 capsys):
        argv = ["union", str(fixture("cars_assessment_a.json")),
                str(fixture("cars_assessment_b.json")),
                "--tnorm", "product", "--tconorm", "probsum"]
        assert main(argv) == 0
        capsys.readouterr()
        assert checks == []

    @pytest.mark.parametrize("given", [
        {"tnorm": tnorm_product},
        {"tconorm": tconorm_probsum},
        {"negation": negation_standard},
        {"triple_negation": DEFAULT_PROFILE.triple_negation},
    ], ids=["tnorm", "tconorm", "negation", "triple_negation"])
    def test_a_callable_is_checked(self, checks, given):
        profile = make_profile(**given)
        assert checks == [profile]


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

    @given(a=triples)
    def test_boundary_laws(self, a):
        for p in (DEFAULT_PROFILE, make_profile("product", "probsum")):
            assert n_norm(a, ONE, p) == a
            assert n_norm(a, ZERO, p) == ZERO
            assert n_conorm(a, ZERO, p) == a
            assert n_conorm(a, ONE, p) == ONE

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
