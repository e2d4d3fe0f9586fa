"""Exception types shared across the package, and the guards that raise them."""

import contextlib


class AnyonError(Exception):
    """Base class for all fibanyon errors."""


class FusionError(AnyonError, ValueError):
    """A charge combination is not allowed by the fusion rules."""


class ShapeError(AnyonError, ValueError):
    """A coupling-tree shape is malformed or unsuitable for the operation."""


class SuperselectionError(AnyonError, ValueError):
    """A state or operator mixes global-charge sectors.

    Coherent superpositions across different total charges are unphysical;
    raising instead of silently truncating keeps the constraint executable.
    """


class BasisMismatchError(AnyonError, ValueError):
    """Two objects refer to different bases (model or shape differ)."""


class ModelFormatError(AnyonError, ValueError):
    """A model/state/operator text file could not be parsed."""


class FibonacciOnlyError(FusionError):
    """A Fibonacci-only part of the package was given another model."""


class MemoryBudgetError(AnyonError):
    """An array would not fit in the memory this machine has available."""


def _available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where there is none."""
    try:
        with open("/proc/meminfo", "rb") as handle:
            head = handle.read(512)
    except OSError:
        return None
    _, found, rest = head.partition(b"MemAvailable:")
    return int(rest.split(None, 1)[0]) * 1024 if found else None


# Any machine has this much to spare.  A read of /proc/meminfo can cost
# as much as a whole small correlation test, so requests this small skip it.
_ALWAYS_FITS = 256 * 2**10


def require_memory(nbytes: int, what: str):
    """Raise MemoryBudgetError if `what` needs more than half of MemAvailable.

    Half leaves room for the rest of the process and for other processes.
    """
    if nbytes < _ALWAYS_FITS:
        return
    available = _available_bytes()
    if available is not None and nbytes > available // 2:
        raise MemoryBudgetError(
            f"{what} needs ~{nbytes / 2**30:.3g} GiB, {available / 2**30:.3g} GiB available"
            " (at most half may be used)"
        )


@contextlib.contextmanager
def fibonacci_only(what: str):
    """Re-raise a FusionError as one saying that `what` assumes Fibonacci; also a decorator."""
    try:
        yield
    except FusionError as exc:
        raise FibonacciOnlyError(
            f"{what} is defined for the Fibonacci charges e and tau: {exc}"
        ) from None
