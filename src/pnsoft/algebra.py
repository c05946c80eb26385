"""Scalar and triple level algebra.

Membership degrees live on the unit interval. Internally every degree is an
exact `fractions.Fraction`, so algebraic identities (De Morgan, absorption,
involution and friends) hold exactly instead of up to float noise. Floats
are converted through their shortest decimal literal, so 0.7 means 7/10 and
not the nearest binary double.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from typing import Callable

from .errors import ProfileError, _listed, _plain


class _Memo(dict):
    """Key -> `make(key)`, made on a miss and kept while the memo holds
    fewer than `cap` entries, so a hit is one dict lookup in C: pass its
    `__getitem__` as the function. What `make` raises is raised, not kept."""

    __slots__ = ("make", "cap")

    def __init__(self, make, cap=inf):
        self.make, self.cap = make, cap

    def __missing__(self, key):
        make = self.make   # self.make(key) would look the slot up as a method, slower
        value = make(key)
        if len(self) < self.cap:
            self[key] = value
        return value


_new_object = object.__new__   # a global, cheaper to call than object.__new__


def _exact(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d > 0, built through its two slots.

    One gcd and two int divisions, without the type checks of
    `Fraction.__new__`: about 0.25 against 0.57 us a call on CPython
    3.11.7. The result is a plain Fraction in lowest terms with a positive
    denominator, equal to Fraction(n, d) in value, repr and hash. Callers
    guarantee the ints and the sign of d; nothing here checks them.
    """
    g = gcd(n, d)
    out = _new_object(Fraction)
    out._numerator = n // g
    out._denominator = d // g
    return out


#: Largest decimal exponent a number literal may carry. Fraction expands
#: 1e-N into an N-digit denominator, in time and memory that grow faster
#: than N; 1e-100000 still converts in milliseconds.
MAX_EXPONENT = 100_000


class ExponentError(ValueError):
    """A decimal literal whose exponent lies beyond MAX_EXPONENT."""


def parse_decimal(text: str) -> Fraction:
    """Exact value of a number literal: "0.7" is 7/10, "1/3" is 1/3.

    A plain `int.frac` literal skips the regular expression inside
    `Fraction(str)`; anything else goes through it, once its exponent is
    known to be within MAX_EXPONENT. Raises ExponentError, or ValueError
    and ZeroDivisionError as `Fraction(str)` does.
    """
    whole, dot, frac = text.partition(".")
    digits = whole[1:] if whole[:1] == "-" else whole
    if dot and digits.isdigit() and frac.isdigit() and text.isascii():
        return _exact(int(whole + frac), 10 ** len(frac))
    _, e, exponent = text.replace("E", "e").rpartition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:  # no exponent after all; Fraction says what is wrong
            too_large = False
        if too_large:
            raise ExponentError(
                f"decimal exponent out of range [-{MAX_EXPONENT}, {MAX_EXPONENT}] "
                f"in {_plain(text)}")
    return Fraction(text)


def as_unit(value, what: str = "value") -> Fraction:
    """Coerce a number to an exact Fraction and require it to lie in [0, 1].

    Accepts Fraction, int, float, decimal strings and `p/q` strings. Out of
    range input raises ValueError rather than being clamped: clamping would
    silently repair broken input data. An exact Fraction already in range,
    which is what every parsed degree is, is returned after one comparison
    of its int slots (see tnorm_min); an instance of a Fraction subclass
    becomes an exact Fraction of the same value.
    """
    if type(value) is Fraction and 0 <= value._numerator <= value._denominator:
        return value
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got a boolean")
    if isinstance(value, float):
        # repr(float) is the shortest round-tripping decimal, which is what
        # a person typing 0.7 meant.
        try:
            out = Fraction(repr(value))
        except ValueError:
            raise ValueError(f"{what} must be finite, got {value!r}") from None
    elif isinstance(value, str):
        try:
            out = parse_decimal(value)
        except ExponentError as exc:
            raise ValueError(f"{what}: {exc}") from None
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} is not a number: {_plain(value)}") from None
    else:  # an int, a Fraction subclass or another number
        try:
            out = Fraction(value)
        except (TypeError, ValueError):
            raise ValueError(f"{what} has unsupported type {type(value).__name__}") from None
    if not 0 <= out._numerator <= out._denominator:  # denominators are positive
        raise ValueError(f"{what} must lie in [0, 1], got {_plain(value)}")
    return out


@dataclass(frozen=True, slots=True)
class NeutrosophicTriple:
    """A point (truth, indeterminacy, falsity) in the unit cube."""

    truth: Fraction
    indeterminacy: Fraction
    falsity: Fraction

    def __post_init__(self):
        object.__setattr__(self, "truth", as_unit(self.truth, "truth"))
        object.__setattr__(self, "indeterminacy", as_unit(self.indeterminacy, "indeterminacy"))
        object.__setattr__(self, "falsity", as_unit(self.falsity, "falsity"))

    def __iter__(self):
        return iter((self.truth, self.indeterminacy, self.falsity))


#: top and bottom of the triple order
ONE = NeutrosophicTriple(1, 0, 0)
ZERO = NeutrosophicTriple(0, 1, 1)


def triple_leq(a: NeutrosophicTriple, b: NeutrosophicTriple) -> bool:
    """Componentwise order: truth grows, indeterminacy and falsity shrink."""
    return a.truth <= b.truth and a.indeterminacy >= b.indeterminacy and a.falsity >= b.falsity


# ---------------------------------------------------------------------------
# named norm families

# Every named family reads the int slots _numerator and _denominator of
# Fraction, the type of every degree of a checked cell (slots checked on
# CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0): the public properties cost a
# call each. tnorm_min and tconorm_max compare by cross multiplication, since
# the builtin min and max, through Fraction.__lt__, are three times slower; on
# a tie tnorm_min keeps `a` and tconorm_max keeps `b`. The arithmetic families
# and negation_standard compute their result's numerator over the product of
# the denominators in ints and build it with one _exact(n, d): one gcd, and
# the two slots set directly, where Fraction(n, d) adds the type checks of
# Fraction.__new__ and the Fraction operators take a gcd or two per operation;
# tests/test_algebra.py pins the two slots it sets, and checks it against
# Fraction(n, d), on every version CI runs, 3.14 included. The Lukasiewicz
# clamps compare that numerator against its positive denominator and, past a
# bound, return a shared one: they build and compare no Fraction of their own.
# Operands without the slots, such as ints and floats, take the plain
# expression: the builtin min(a, b) or max(b, a), which keep the same operand,
# or the Fraction operators.
_ZERO_DEGREE, _ONE_DEGREE = Fraction(0), Fraction(1)


def tnorm_min(a, b):
    try:
        # denominators are positive, so cross multiplication keeps the order
        return a if a._numerator * b._denominator <= b._numerator * a._denominator else b
    except AttributeError:
        return min(a, b)


def tnorm_product(a, b):
    try:
        return _exact(a._numerator * b._numerator, a._denominator * b._denominator)
    except AttributeError:
        return a * b


def tnorm_lukasiewicz(a, b):
    try:
        d = a._denominator * b._denominator
        n = a._numerator * b._denominator + b._numerator * a._denominator - d
    except AttributeError:
        s = a + b - 1
        return s if s.numerator >= 0 else _ZERO_DEGREE
    return _exact(n, d) if n >= 0 else _ZERO_DEGREE


def tconorm_max(a, b):
    try:
        return b if a._numerator * b._denominator <= b._numerator * a._denominator else a
    except AttributeError:
        return max(b, a)


def tconorm_probsum(a, b):
    try:
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    except AttributeError:
        return a + b - a * b
    return _exact(na * db + nb * da - na * nb, da * db)


def tconorm_lukasiewicz(a, b):
    try:
        d = a._denominator * b._denominator
        n = a._numerator * b._denominator + b._numerator * a._denominator
    except AttributeError:
        s = a + b
        return s if s.numerator <= s.denominator else _ONE_DEGREE
    return _exact(n, d) if n <= d else _ONE_DEGREE


def negation_standard(a):
    try:
        return _exact(a._denominator - a._numerator, a._denominator)
    except AttributeError:
        return 1 - a


TNORMS: dict[str, Callable] = {
    "min": tnorm_min,
    "product": tnorm_product,
    "lukasiewicz": tnorm_lukasiewicz,
}

TCONORMS: dict[str, Callable] = {
    "max": tconorm_max,
    "probsum": tconorm_probsum,
    "lukasiewicz": tconorm_lukasiewicz,
}

@dataclass(frozen=True)
class NormProfile:
    """The t-norm and t-conorm that union and intersection are parameterized by.

    Both combine scalar degrees; the complement is always the standard one.
    Like the bare PnsSet constructor, this stores what it is given: its
    norms must return exact Fractions in [0, 1], as the named families do,
    since the set operators keep what they return in cells unchecked.
    `make_profile` builds one from family names.
    """

    tnorm: Callable
    tconorm: Callable


def _resolve(table, name, kind):
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: not even hashable
        raise ProfileError(
            f"unknown {kind} {_plain(name)} (known: {_listed(sorted(table))})") from None


def make_profile(tnorm="min", tconorm="max") -> NormProfile:
    """Build a NormProfile from the names of its families.

    An unknown name, or anything that is not a name, raises ProfileError
    listing the known families. The test suite proves every pairing of the
    named families exact and closed on [0, 1], so the set operators trust
    the degrees they return.
    """
    return NormProfile(tnorm=_resolve(TNORMS, tnorm, "t-norm"),
                       tconorm=_resolve(TCONORMS, tconorm, "t-conorm"))


#: min/max, the family every worked dataset uses
DEFAULT_PROFILE = make_profile()


def n_norm(a: NeutrosophicTriple, b: NeutrosophicTriple,
           profile: NormProfile = DEFAULT_PROFILE) -> NeutrosophicTriple:
    """Lift the norms to triples: tnorm on truth, tconorm on the other two."""
    return NeutrosophicTriple(
        profile.tnorm(a.truth, b.truth),
        profile.tconorm(a.indeterminacy, b.indeterminacy),
        profile.tconorm(a.falsity, b.falsity),
    )


def n_conorm(a: NeutrosophicTriple, b: NeutrosophicTriple,
             profile: NormProfile = DEFAULT_PROFILE) -> NeutrosophicTriple:
    """Dual lifting: tconorm on truth, tnorm on indeterminacy and falsity."""
    return NeutrosophicTriple(
        profile.tconorm(a.truth, b.truth),
        profile.tnorm(a.indeterminacy, b.indeterminacy),
        profile.tnorm(a.falsity, b.falsity),
    )


def negate_triple(a: NeutrosophicTriple) -> NeutrosophicTriple:
    """Swap truth with falsity and negate indeterminacy."""
    return NeutrosophicTriple(a.falsity, negation_standard(a.indeterminacy), a.truth)
