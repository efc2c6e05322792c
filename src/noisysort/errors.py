"""Exception types shared across the package."""


class SizeMismatchError(ValueError):
    """Two objects that must share the same n do not."""


class ResourceCapError(RuntimeError):
    """A requested computation exceeds a resource cap: a configured limit, or
    the physical memory an experiment cell is estimated to need.

    The message always names the cap so callers (and the CLI, which maps
    this to exit code 2) can report what to raise or shrink.
    """
