"""Exception types shared across the package."""


class PnsError(Exception):
    """Base class for all domain errors raised by this package."""


class ProfileError(PnsError):
    """A norm profile names a family this package does not have."""


class IncompatibleError(PnsError):
    """Two operands do not share the labels or shapes an operation needs."""


class SchemaError(PnsError):
    """A document or file does not conform to the expected layout or value ranges."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class DegenerateRowError(PnsError):
    """A computation hit a row whose denominator vanishes (all possibility degrees zero)."""
