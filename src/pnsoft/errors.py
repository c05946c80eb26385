"""Exception types shared across the package, and how their messages show outside text."""

import sys
from fractions import Fraction


def _cut(text) -> str:
    # a text of up to 40 characters as it is, a longer one cut to 40
    return text if len(text) <= 40 else text[:37] + "..."


def _plain(value) -> str:
    # error display only: echo 1.3 back as 1.3, not Fraction(13, 10), and
    # keep a hostile literal such as 1e5000 from flooding the message
    if isinstance(value, Fraction):
        try:
            return str(float(value))
        except OverflowError:
            return "-1e+308 or less" if value < 0 else "1e+308 or more"
    try:
        return _cut(repr(value))
    except ValueError:  # an int past the int-to-str limit: described, not converted
        if not isinstance(value, int):
            raise
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"


def _escaped(text) -> str:
    # display only: printable text reads as it is; control characters are
    # escaped as repr escapes them, so the text stays on one line
    text = str(text)
    if text.isprintable():
        return text
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)


def _label(text) -> str:
    # error display only: a short printable label reads as it is, so
    # `cell (e1, u1)` stays plain; control characters are escaped, and long
    # text is cut as `_plain` cuts it
    return _cut(_escaped(str(text)[:41]))  # enough to know whether it gets cut


def _listed(items, limit=6, show=_label, sep=", ") -> str:
    """Items in a message: the first `limit` through `show`, then how many more."""
    text = sep.join(map(show, items[:limit]))
    if len(items) > limit:
        text += f"{sep}and {len(items) - limit} more"
    return text


class PnsError(Exception):
    """Base class for all domain errors raised by this package."""


class ProfileError(PnsError):
    """A norm profile names a family this package does not have."""


class IncompatibleError(PnsError):
    """Two operands do not share the labels or shapes an operation needs."""


class SchemaError(PnsError):
    """A document or file does not conform to the expected layout or value ranges.

    `violations` is never empty: it defaults to [message], and the message
    to one bounded line of the violations."""

    def __init__(self, message=None, violations=()):
        self.violations = list(violations) or [message]
        super().__init__(message or _listed(self.violations, limit=5, show=str, sep="; "))


class DegenerateRowError(PnsError):
    """A computation hit a row whose denominator vanishes (all possibility degrees zero)."""
