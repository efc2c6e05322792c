"""Permutations of [n] and the three distances used throughout.

Permutations are 1-indexed in the external data model: ``pi.map[i-1] = pi(i)``
is the rank of item ``i``, with rank 1 the weakest; a permutation holds these as
one read-only array, of which ``map`` is a tuple view.  All operations are pure
and all types are immutable, so everything here is thread-safe.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .errors import ResourceCapError, SizeMismatchError

ENUMERATION_CAP = 10  # n! grows past 3.6M beyond this; oracles stay below it


def _immutable(self, *args) -> NoReturn:
    raise AttributeError("a Permutation is immutable")


class Permutation:
    """A bijection on {1, ..., n} in one-line notation, held as one read-only int64 rank
    array.  Built from a sequence of integers or a 1-D integer array: other entries
    (floats, strings, bools) or a non-bijection are a ValueError."""

    __slots__ = ("_ranks",)
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, map: Sequence[int] | np.ndarray) -> "Permutation":
        if isinstance(map, np.ndarray):  # one vectorised test
            if map.ndim != 1 or map.dtype.kind not in "iu":
                raise ValueError(f"not a permutation: a {map.ndim}-D {map.dtype} array")
            ranks, n = map.astype(np.int64), map.size
            if n and not (ranks.min() >= 1 and ranks.max() <= n
                          and np.bincount(ranks, minlength=n + 1)[1:].all()):
                raise ValueError(f"not a permutation of 1..{n}")
            return cls._of(ranks)
        n = len(map)  # O(n) in Python: a type test per entry, then one of set equality
        if (not all(type(v) is int or isinstance(v, np.integer) for v in map)
                or set(map) != set(range(1, n + 1))):
            raise ValueError(f"not a permutation of 1..{n} in integers")
        return cls._of(np.array(map, dtype=np.int64))

    @classmethod
    def _of(cls, ranks: np.ndarray) -> "Permutation":
        """Wrap a fresh int64 array already known to be a permutation."""
        pi = object.__new__(cls)
        ranks.setflags(write=False)
        object.__setattr__(pi, "_ranks", ranks)
        return pi

    def __reduce__(self):
        return Permutation, (self._ranks,)  # an unpickled array would be writable

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._ranks.tobytes() == other._ranks.tobytes()

    def __hash__(self) -> int:
        return hash(self.map)

    def __repr__(self) -> str:
        return f"Permutation(map={self.map!r})"

    @property
    def map(self) -> tuple[int, ...]:
        """The one-line map as a tuple of Python ints, built on demand."""
        return tuple(self._ranks.tolist())

    @property
    def n(self) -> int:
        return self._ranks.size

    def __call__(self, i: int) -> int:
        """Rank of item ``i`` (1-indexed)."""
        return int(self._ranks[i - 1])

    def to_array(self) -> np.ndarray:
        """1-indexed ranks as the read-only int64 array held (index 0 holds pi(1))."""
        return self._ranks

    def to_line(self) -> str:
        return " ".join(map(str, self._ranks.tolist()))

    @classmethod
    def from_line(cls, line: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in line.split()))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Permutation":
        return cls(np.asarray(arr))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._of(np.arange(1, n + 1, dtype=np.int64))

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls._of(np.arange(n, 0, -1, dtype=np.int64))


@dataclass(frozen=True)
class InversionTable:
    """Per-index inversion counts ``b[i-1] = #{j > i : pi(i) > pi(j)}``.

    Entries satisfy 0 <= b[i-1] <= n-i and the table determines the
    permutation uniquely; ``sum(b)`` is the Kendall tau distance to identity.
    """

    b: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.b)
        for i, v in enumerate(self.b, start=1):
            if not 0 <= v <= n - i:
                raise ValueError(f"entry b[{i}]={v} outside 0..{n - i}")

    @property
    def n(self) -> int:
        return len(self.b)


def _check_same_n(pi: Permutation, sigma: Permutation) -> int:
    if pi.n != sigma.n:
        raise SizeMismatchError(f"permutation sizes differ: {pi.n} vs {sigma.n}")
    return pi.n


def kendall_tau(pi: Permutation, sigma: Permutation) -> int:
    """Number of discordant pairs between ``pi`` and ``sigma``.

    Counts pairs (i, j) with sigma(i) < sigma(j) but pi(i) > pi(j), the inversions of
    w[k] = pi(sigma^-1(k)), by bottom-up merge levels over w's positions in value order:
    at width h a stable radix argsort of the block ids pos // 2h merges all h-block
    pairs, and a left element's merged index less the sum of the left positions (a
    closed form) counts the right ones below it.  Symmetric; ranges over 0 .. n(n-1)/2.
    """
    n = _check_same_n(pi, sigma)
    pos = np.empty(n, dtype=np.uint32)
    pos[pi.to_array() - 1] = sigma.to_array() - 1
    index, inv, level = np.arange(n), 0, 0
    while (h := 1 << level) < n:
        top = (n - 1) >> (level + 1)  # the last block id: one or two bytes below n = 2^17
        merged = pos[np.argsort((pos >> (level + 1)).astype(np.min_scalar_type(top)),
                                kind="stable")] if top else pos
        q, c = n // (2 * h), min(n % (2 * h), h)  # full blocks; left elements of the last
        inv += int(np.dot(index, (merged & h) == 0)) - (
            q * (q - 1) * h * h + q * h * (h - 1) // 2 + 2 * c * q * h + c * (c - 1) // 2)
        level += 1
    return inv


def l1_distance(pi: Permutation, sigma: Permutation) -> int:
    """Spearman's footrule: sum of absolute rank displacements."""
    _check_same_n(pi, sigma)
    return int(np.abs(pi.to_array() - sigma.to_array()).sum())


def linf_distance(pi: Permutation, sigma: Permutation) -> int:
    """Maximum rank displacement of any single item."""
    _check_same_n(pi, sigma)
    return int(np.abs(pi.to_array() - sigma.to_array()).max(initial=0))


def to_inversion_table(pi: Permutation) -> InversionTable:
    """Inversion table of ``pi``; entries sum to kendall_tau(pi, identity)."""
    seen, b = [], []  # from the right: the ranks passed, sorted, and how many lie below each
    for v in reversed(pi.to_array().tolist()):
        b.append(bisect_left(seen, v))
        seen.insert(b[-1], v)
    return InversionTable(tuple(reversed(b)))


def from_inversion_table(table: InversionTable) -> Permutation:
    """The unique permutation whose inversion table is ``table``.

    pi(i) is the (b[i]+1)-th smallest of the ranks not yet assigned.
    """
    remaining = list(range(1, table.n + 1))
    return Permutation(tuple(remaining.pop(bi) for bi in table.b))


def enumerate_maps(n: int) -> Iterator[tuple[int, ...]]:
    """All n! one-line maps in lexicographic order, as plain tuples."""
    if n > ENUMERATION_CAP:
        raise ResourceCapError(
            f"enumeration of S_{n} refused: n exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    yield from itertools.permutations(range(1, n + 1))


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations in lexicographic order of their one-line maps."""
    for tup in enumerate_maps(n):
        yield Permutation._of(np.array(tup, dtype=np.int64))


def compose(first: Permutation, then: Permutation) -> Permutation:
    """Apply ``first``, then ``then``: result(i) = then(first(i)).

    Under this (diagrammatic) order, kendall_tau(compose(rho, pi),
    compose(rho, sigma)) = kendall_tau(pi, sigma) for every rho.
    """
    _check_same_n(first, then)
    return Permutation._of(then.to_array()[first.to_array() - 1])


def invert(pi: Permutation) -> Permutation:
    inv = np.empty(pi.n, dtype=np.int64)
    inv[pi.to_array() - 1] = np.arange(1, pi.n + 1)
    return Permutation._of(inv)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation._of(rng.permutation(n) + 1)
