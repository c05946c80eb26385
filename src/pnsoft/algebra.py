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

    def as_tuple(self):
        return (self.truth, self.indeterminacy, self.falsity)

    def __iter__(self):
        return iter(self.as_tuple())


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

NEGATIONS: dict[str, Callable] = {
    "standard": negation_standard,
}


@dataclass(frozen=True)
class NormProfile:
    """The four operations every set operator is parameterized by.

    tnorm and tconorm combine scalar degrees, scalar_negation complements a
    degree, triple_negation maps a whole triple. The default triple negation
    swaps truth with falsity and complements indeterminacy.
    """

    tnorm: Callable
    tconorm: Callable
    scalar_negation: Callable
    triple_negation: Callable


def _default_triple_negation(scalar_negation):
    def negate(a: NeutrosophicTriple) -> NeutrosophicTriple:
        return NeutrosophicTriple(a.falsity, scalar_negation(a.indeterminacy), a.truth)

    return negate


def _resolve(table, name_or_fn, kind):
    if callable(name_or_fn):
        return name_or_fn
    try:
        return table[name_or_fn]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ProfileError(f"unknown {kind} {name_or_fn!r} (known: {known})") from None


_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
_TOL = Fraction(1, 10**12)


def _close(a, b):
    # builtin families are exact; user callables may return floats
    return abs(Fraction(a) - Fraction(b)) <= _TOL


def check_profile(profile: NormProfile) -> None:
    """Verify the axioms on a dense grid; raise ProfileError on the first failure.

    A user supplied operation that breaks commutativity, associativity,
    monotonicity, the unit laws or the negation boundary conditions fails
    here loudly instead of corrupting every downstream matrix.
    """
    t, s, n = profile.tnorm, profile.tconorm, profile.scalar_negation
    for x in _GRID:
        if not _close(t(x, 1), x):
            raise ProfileError(f"tnorm(x, 1) != x at x={x}")
        if not _close(s(x, 0), x):
            raise ProfileError(f"tconorm(x, 0) != x at x={x}")
        for y in _GRID:
            tv, sv = Fraction(t(x, y)), Fraction(s(x, y))
            if not (0 <= tv <= 1 and 0 <= sv <= 1):
                raise ProfileError(f"norm value escapes [0,1] at ({x},{y})")
            if not _close(t(x, y), t(y, x)):
                raise ProfileError(f"tnorm not commutative at ({x},{y})")
            if not _close(s(x, y), s(y, x)):
                raise ProfileError(f"tconorm not commutative at ({x},{y})")
            for z in _GRID:
                if not _close(t(t(x, y), z), t(x, t(y, z))):
                    raise ProfileError(f"tnorm not associative at ({x},{y},{z})")
                if not _close(s(s(x, y), z), s(x, s(y, z))):
                    raise ProfileError(f"tconorm not associative at ({x},{y},{z})")
                if y <= z:
                    if Fraction(t(x, y)) > Fraction(t(x, z)) + _TOL:
                        raise ProfileError(f"tnorm not monotone at ({x},{y}<={z})")
                    if Fraction(s(x, y)) > Fraction(s(x, z)) + _TOL:
                        raise ProfileError(f"tconorm not monotone at ({x},{y}<={z})")
    if not (_close(n(Fraction(0)), 1) and _close(n(Fraction(1)), 0)):
        raise ProfileError("scalar negation must map 0 to 1 and 1 to 0")
    for x in _GRID:
        for y in _GRID:
            if x <= y and Fraction(n(x)) + _TOL < Fraction(n(y)):
                raise ProfileError(f"scalar negation not non-increasing at ({x},{y})")
    nt = profile.triple_negation
    if nt(ZERO) != ONE or nt(ONE) != ZERO:
        raise ProfileError("triple negation must swap the top and bottom triples")
    # boundary laws of the lifted operations, asserted per profile rather
    # than assumed
    for x in _GRID:
        a = NeutrosophicTriple(x, 1 - x, x)
        if n_norm(a, ZERO, profile) != ZERO:
            raise ProfileError("n_norm(a, ZERO) must be ZERO")
        if n_norm(a, ONE, profile) != a:
            raise ProfileError("n_norm(a, ONE) must be a")
        if n_conorm(a, ONE, profile) != ONE:
            raise ProfileError("n_conorm(a, ONE) must be ONE")
        if n_conorm(a, ZERO, profile) != a:
            raise ProfileError("n_conorm(a, ZERO) must be a")


def make_profile(tnorm="min", tconorm="max", negation="standard",
                 triple_negation=None) -> NormProfile:
    """Build a NormProfile from family names or callables.

    `negation` names the scalar negation; unless `triple_negation` is given
    the triple negation is derived from it (swap truth/falsity, negate
    indeterminacy). A profile given any callable is checked against the
    axioms up front; the named families are verified by the test suite.
    """
    t = _resolve(TNORMS, tnorm, "t-norm")
    s = _resolve(TCONORMS, tconorm, "t-conorm")
    n = _resolve(NEGATIONS, negation, "negation")
    nt = triple_negation if triple_negation is not None else _default_triple_negation(n)
    profile = NormProfile(tnorm=t, tconorm=s, scalar_negation=n, triple_negation=nt)
    if triple_negation is not None or any(map(callable, (tnorm, tconorm, negation))):
        check_profile(profile)
    return profile


def n_norm(a: NeutrosophicTriple, b: NeutrosophicTriple,
           profile: NormProfile | None = None) -> NeutrosophicTriple:
    """Lift the norms to triples: tnorm on truth, tconorm on the other two."""
    p = profile if profile is not None else DEFAULT_PROFILE
    return NeutrosophicTriple(
        p.tnorm(a.truth, b.truth),
        p.tconorm(a.indeterminacy, b.indeterminacy),
        p.tconorm(a.falsity, b.falsity),
    )


def n_conorm(a: NeutrosophicTriple, b: NeutrosophicTriple,
             profile: NormProfile | None = None) -> NeutrosophicTriple:
    """Dual lifting: tconorm on truth, tnorm on indeterminacy and falsity."""
    p = profile if profile is not None else DEFAULT_PROFILE
    return NeutrosophicTriple(
        p.tconorm(a.truth, b.truth),
        p.tnorm(a.indeterminacy, b.indeterminacy),
        p.tnorm(a.falsity, b.falsity),
    )


def negate_triple(a: NeutrosophicTriple, profile: NormProfile | None = None) -> NeutrosophicTriple:
    p = profile if profile is not None else DEFAULT_PROFILE
    return p.triple_negation(a)


#: min/max with the standard negation, the family every worked dataset uses
DEFAULT_PROFILE = make_profile()
