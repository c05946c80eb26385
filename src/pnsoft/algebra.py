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
from typing import Callable

from .errors import ProfileError


def _plain(value) -> str:
    # error display only: echo 1.3 back as 1.3, not Fraction(13, 10), and
    # keep a hostile literal such as 1e5000 from flooding the message
    if isinstance(value, Fraction):
        try:
            return str(float(value))
        except OverflowError:
            return "-1e+308 or less" if value < 0 else "1e+308 or more"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _label(text) -> str:
    # error display only: a short printable label reads as it is, so
    # `cell (e1, u1)` stays plain; control characters are escaped as repr
    # escapes them, and long text is cut as `_plain` cuts it
    text = str(text)[:41]  # enough to know whether the result gets cut
    if not text.isprintable():
        text = "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)
    return text if len(text) <= 40 else text[:37] + "..."


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
        return Fraction(int(whole + frac), 10 ** len(frac))
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
    silently repair broken input data.
    """
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got a boolean")
    if isinstance(value, Fraction):
        out = value
    elif isinstance(value, int):
        out = Fraction(value)
    elif isinstance(value, float):
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
    else:
        try:
            out = Fraction(value)
        except (TypeError, ValueError):
            raise ValueError(f"{what} has unsupported type {type(value).__name__}") from None
    if not 0 <= out.numerator <= out.denominator:  # denominators are positive
        raise ValueError(f"{what} must lie in [0, 1], got {_plain(value)}")
    return out


@dataclass(frozen=True)
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

def tnorm_min(a, b):
    return min(a, b)


def tnorm_product(a, b):
    return a * b


def tnorm_lukasiewicz(a, b):
    return max(a + b - 1, Fraction(0))


def tconorm_max(a, b):
    return max(a, b)


def tconorm_probsum(a, b):
    return a + b - a * b


def tconorm_lukasiewicz(a, b):
    return min(a + b, Fraction(1))


def negation_standard(a):
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
    Like the bare PnsSet constructor, this stores what it is given;
    `make_profile` builds one from family names.
    """

    tnorm: Callable
    tconorm: Callable


def _resolve(table, name, kind):
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: not even hashable
        known = ", ".join(sorted(table))
        raise ProfileError(f"unknown {kind} {_plain(name)} (known: {known})") from None


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
