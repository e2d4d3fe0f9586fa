"""Exception types shared across the package, and the guards that raise them."""

import contextlib
import functools

try:
    import resource
except ImportError:  # Windows has none: no address-space limit is read there
    resource = None


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
    """A model or state text file could not be parsed."""


class FibonacciOnlyError(FusionError):
    """A Fibonacci-only part of the package was given another model."""


class MemoryBudgetError(AnyonError):
    """An array would not fit in the memory this machine has available."""


def _read_head(path: str, size: int = 512) -> bytes | None:
    """The first `size` bytes of a file (all of it for -1), or None where it
    cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read(size)
    except OSError:
        return None


# (limit, usage) of this process's memory cgroup: v2, then v1
_CGROUP_FILES = (("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current"),
                 ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
                  "/sys/fs/cgroup/memory/memory.usage_in_bytes"))


@functools.cache
def _cgroup_files() -> tuple[str, str] | None:
    """The first pair of :data:`_CGROUP_FILES` that can be read, or None.

    Which cgroup version a process sees does not change while it runs, so
    this is found once instead of opening missing files on every call.
    """
    for pair in _CGROUP_FILES:
        if all(_read_head(path) is not None for path in pair):
            return pair
    return None


def _available_bytes() -> int | None:
    """The smallest of MemAvailable from /proc/meminfo, the memory cgroup's
    limit minus its usage and the soft address-space limit (``ulimit -v``)
    minus the process's VmSize from /proc/self/status; None where none is
    known.

    A v2 limit of ``max`` is no limit, and so is any v1 limit of 2**62 or
    more: v1 writes none as the largest page-aligned int64
    (9223372036854771712 with 4 KiB pages).  An address-space limit of
    ``RLIM_INFINITY`` is none either.  VmSize is read from the whole status
    file, whose earlier lines (``Groups``, say) vary in length.
    """
    found = []
    _, key, rest = (_read_head("/proc/meminfo") or b"").partition(b"MemAvailable:")
    if key:
        found.append(int(rest.split(None, 1)[0]) * 1024)
    pair = _cgroup_files()
    if pair is not None:
        limit, usage = map(_read_head, pair)
        if limit is not None and usage is not None:
            if limit.strip() != b"max" and int(limit) < 2**62:
                found.append(max(int(limit) - int(usage), 0))
    if resource and (cap := resource.getrlimit(resource.RLIMIT_AS)[0]) != resource.RLIM_INFINITY:
        _, key, rest = (_read_head("/proc/self/status", -1) or b"").partition(b"VmSize:")
        if key:
            found.append(max(cap - int(rest.split(None, 1)[0]) * 1024, 0))
    return min(found, default=None)


# Any machine has this much to spare.  A read of /proc/meminfo and the cgroup
# files (and of /proc/self/status under an address-space limit) can cost as
# much as a whole small correlation test, so requests this small skip it.
_ALWAYS_FITS = 256 * 2**10


def require_memory(nbytes: int, what: str, *args):
    """Raise MemoryBudgetError if `what` needs more than half of the available
    memory (:func:`_available_bytes`).

    Half leaves room for the rest of the process and for other processes.
    With `args`, the message is ``what % args``, formatted only for a
    refusal: a warm caller checks on every call.
    """
    if nbytes < _ALWAYS_FITS:
        return
    available = _available_bytes()
    if available is not None and nbytes > available // 2:
        raise MemoryBudgetError(
            f"{what % args if args else what} needs ~{nbytes / 2**30:.3g} GiB,"
            f" {available / 2**30:.3g} GiB available (at most half may be used)"
        )


# The bytes one stack of a stacked pass may hold: the marginals report's
# entry chunks, verify's algebra samples and the pure correlation tables.
STACK_BYTES = 1 << 17


def stack_slices(count: int, unit_bytes: int):
    """Consecutive slices of ``range(count)``, each of at most
    ``max(1, STACK_BYTES // unit_bytes)`` items, for a pass whose items
    need `unit_bytes` each."""
    size = max(1, STACK_BYTES // unit_bytes)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


@contextlib.contextmanager
def fibonacci_only(what: str):
    """Re-raise a FusionError as one saying that `what` assumes Fibonacci; also a decorator."""
    try:
        yield
    except FusionError as exc:
        raise FibonacciOnlyError(
            f"{what} is defined for the Fibonacci charges e and tau: {exc}"
        ) from None
