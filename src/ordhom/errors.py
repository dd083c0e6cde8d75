"""Exception types shared across the library."""


class OrdhomError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(OrdhomError):
    """The given cover relation has a directed cycle, so it is not a poset."""


class UnknownElement(OrdhomError):
    """A cover pair or map value references an element that does not exist."""


class NotTotallyOrdered(OrdhomError):
    """An operation that requires a chain was given a poset with incomparable
    elements."""


class DepthUnsupported(OrdhomError):
    """A lex depth the operation does not handle: ``--components`` at a
    depth other than 1, or a poset file with nonzero depth where a plain
    poset is needed."""


class MembershipError(OrdhomError):
    """A point does not lie in the space an operation requires it to be in."""


class DomainError(OrdhomError):
    """A function of one real variable was evaluated outside its domain."""


class FormatError(OrdhomError):
    """An input file does not match the documented schema."""
