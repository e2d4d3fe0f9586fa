"""Exception types shared across the package."""

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


@contextlib.contextmanager
def fibonacci_only(what: str):
    """Re-raise a FusionError as one saying that `what` assumes Fibonacci; also a decorator."""
    try:
        yield
    except FusionError as exc:
        raise FusionError(f"{what} is defined for the Fibonacci charges e and tau: {exc}") from None
