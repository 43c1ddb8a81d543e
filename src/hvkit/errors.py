"""Exception types shared across the toolkit."""


class HvkitError(Exception):
    """Base class for all errors raised by hvkit."""


class DimensionMismatchError(HvkitError):
    """Operands live over coefficient algebras with different variable counts."""


class ConfigurationError(HvkitError):
    """Invalid construction parameters (repeated quotient points, zero lambda, bad config fields)."""


class LevelOverflowError(HvkitError):
    """A lowering operator pushed a Verma vector past the truncation level, or
    straightening a monomial of about 1,000 factors passed the recursion limit.

    The module itself is fine; the caller must rebuild it with a larger
    ``max_level`` (or act on shorter monomials) to make the requested
    computation representable.
    """


class UnsupportedModuleError(HvkitError):
    """The requested analysis does not apply to this module family."""


class ParseError(HvkitError):
    """A scalar, element or config string did not match the expected grammar."""
