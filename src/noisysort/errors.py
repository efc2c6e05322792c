"""Exception types shared across the package, and the physical-memory check of its caps."""

import os


class SizeMismatchError(ValueError):
    """Two objects that must share the same n do not."""


class ResourceCapError(RuntimeError):
    """A requested computation exceeds a resource cap: a configured limit, or
    the physical memory a run or a count is estimated to need.

    The message always names the cap so callers (and the CLI, which maps
    this to exit code 2) can report what to raise or shrink.
    """


def check_physical_memory(what: str, need: float) -> None:
    """ResourceCapError if the ``need`` bytes that ``what`` needs exceed physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ResourceCapError(f"{what} need about {need / 2**30:.3g} GiB, more than the "
                               f"{memory / 2**30:.3g} GiB of physical memory")
