"""Exception types shared across the package, and the one check that a
count or coefficient is an int."""


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


def require_int(x: object, what: str) -> None:
    """Refuse with ``bad-parameter`` a value that is not an int, or is a bool."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise PreconditionError("bad-parameter", f"{what} must be an int, got {x!r}")
