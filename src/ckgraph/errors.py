"""Exception types shared across the package, and the one count rule.

A count, length, budget, factor or divisor passed in from outside is checked
by :func:`require_int` and nowhere else: it must be an int and not a bool,
and, where the caller names a least value of 0 or 1, non-negative or
positive.  Each refusal is a ``bad-parameter`` precondition failure.
"""


class CkGraphError(Exception):
    """Base class for every error this package raises deliberately."""


class GraphFormatError(CkGraphError):
    """Malformed graph data: bad ids, duplicates, dangling endpoints, unparsable text."""


class PreconditionError(CkGraphError):
    """An operation's precondition does not hold for the given input.

    ``reason`` is a stable machine-readable code (``"not-hereditary"``,
    ``"has-sink"``, ...); the message carries the human-readable diagnosis.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


class CertificateError(CkGraphError):
    """An internal verification failed.  This signals a bug, not bad input."""


def require_int(x: object, what: str, least: int | None = None) -> None:
    """Refuse with ``bad-parameter`` a value that is not an int, or is a bool,
    or is below ``least`` (0 or 1) when that is given."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise PreconditionError("bad-parameter", f"{what} must be an int, got {x!r}")
    if least is not None and x < least:
        bound = "positive" if least else "non-negative"
        raise PreconditionError("bad-parameter", f"{what} must be {bound}, got {x}")
