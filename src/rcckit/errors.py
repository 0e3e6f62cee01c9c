"""Exception types shared across the toolkit."""


class RccError(Exception):
    """Base class for all toolkit errors."""


class CalculusMismatchError(RccError):
    """Two operands belong to different calculi."""


class UnknownNameError(RccError, ValueError):
    """A calculus, basic relation or subalgebra name is not known."""


class MaskError(RccError, ValueError):
    """A relation mask is not an integer in 0..universal of its calculus."""


class EmptyPathError(RccError):
    """A path operation was given no relations."""


class NetworkFormatError(RccError):
    """Malformed network file. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConverseConflictError(NetworkFormatError):
    """Both (i,j) and (j,i) were given and they disagree."""


class NetworkShapeError(RccError):
    """Variable counts, labels, or indices do not line up."""


class InconsistentNetworkError(RccError):
    """The operation requires a consistent network (or produced an empty relation)."""


class NotAllDifferentError(RccError):
    """The network entails EQ between distinct variables."""


class MembershipError(RccError):
    """An entry lies outside the required subalgebra."""


class GuardExceededError(RccError):
    """The network is too large for the backtracking oracle; raise the guard or use a tractable subclass."""


class GeometryError(RccError):
    """Invalid region input: degenerate polygon, duplicate id, or label mismatch."""
