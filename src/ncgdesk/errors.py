"""Exception hierarchy shared by all modules."""


class NcgError(Exception):
    """Base class for all package errors."""


class ValidationError(NcgError):
    """Malformed input data (wrong shapes, algebra mismatch, bad tables)."""


class DomainError(NcgError):
    """Input is well-formed but outside the operation's domain."""


class NumericalError(NcgError):
    """A numerical procedure failed (eigensolver, non-stabilizing refinement)."""


class ResourceError(NcgError):
    """A configured size budget was exceeded."""


class ConsistencyError(NcgError):
    """An internal cross-check failed (e.g. non-integral isotypic multiplicity)."""
