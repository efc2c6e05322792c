"""Permutations of [n] and the three distances used throughout.

Permutations are 1-indexed in the external data model: ``pi.map[i-1] = pi(i)``
is the rank of item ``i``, with rank 1 the weakest.  All operations are pure
and all types are immutable, so everything here is thread-safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ResourceCapError, SizeMismatchError

ENUMERATION_CAP = 10  # n! grows past 3.6M beyond this; oracles stay below it


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1, ..., n} in one-line notation."""

    map: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.map)
        if sorted(self.map) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.map}")

    @property
    def n(self) -> int:
        return len(self.map)

    def __call__(self, i: int) -> int:
        """Rank of item ``i`` (1-indexed)."""
        return self.map[i - 1]

    def to_array(self) -> np.ndarray:
        """1-indexed ranks as an int64 array (index 0 holds pi(1))."""
        return np.asarray(self.map, dtype=np.int64)

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.map)

    @classmethod
    def from_line(cls, line: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in line.split()))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Permutation":
        return cls(tuple(np.asarray(arr).astype(np.int64).tolist()))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))


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


def _count_inversions(values: np.ndarray) -> int:
    """Number of pairs k < l with values[k] > values[l], by bottom-up merging.

    Per width w, one stable sort of block-pair-offset keys merges all pairs of
    w-blocks; a right-block element jumps exactly the left ones greater than
    it.  Timsort merges presorted runs in linear time: O(m log m) in all.
    """
    m = values.size
    if m < 2:
        return 0
    a = values - values.min()
    span = int(a.max()) + 1
    inv, w = 0, 1
    while w < m:
        pair = np.arange(m) // (2 * w)
        keys = a + pair * span
        order = np.argsort(keys, kind="stable")  # ties keep left before right
        right = order // w % 2 == 1
        # left-block elements of the same pair merged up to each slot
        left_merged = np.cumsum(~right) - pair * w
        inv += int((w - left_merged[right]).sum())
        a = keys[order] - pair * span
        w *= 2
    return inv


def kendall_tau(pi: Permutation, sigma: Permutation) -> int:
    """Number of discordant pairs between ``pi`` and ``sigma``.

    Counts pairs (i, j) with sigma(i) < sigma(j) but pi(i) > pi(j), in
    O(n log n) by counting inversions of the word w[k] = pi(sigma^-1(k)).
    Symmetric in its arguments; ranges over 0 .. n(n-1)/2.
    """
    n = _check_same_n(pi, sigma)
    word = np.empty(n, dtype=np.int64)
    word[sigma.to_array() - 1] = pi.to_array()
    return _count_inversions(word)


def l1_distance(pi: Permutation, sigma: Permutation) -> int:
    """Spearman's footrule: sum of absolute rank displacements."""
    _check_same_n(pi, sigma)
    return int(np.abs(pi.to_array() - sigma.to_array()).sum())


def linf_distance(pi: Permutation, sigma: Permutation) -> int:
    """Maximum rank displacement of any single item."""
    n = _check_same_n(pi, sigma)
    if n == 0:
        return 0
    return int(np.abs(pi.to_array() - sigma.to_array()).max())


def to_inversion_table(pi: Permutation) -> InversionTable:
    """Inversion table of ``pi``; entries sum to kendall_tau(pi, identity)."""
    p = pi.map
    n = pi.n
    return InversionTable(tuple(
        sum(1 for j in range(i + 1, n) if p[i] > p[j]) for i in range(n)
    ))


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
        yield Permutation(tup)


def compose(first: Permutation, then: Permutation) -> Permutation:
    """Apply ``first``, then ``then``: result(i) = then(first(i)).

    Under this (diagrammatic) order, kendall_tau(compose(rho, pi),
    compose(rho, sigma)) = kendall_tau(pi, sigma) for every rho.
    """
    _check_same_n(first, then)
    return Permutation(tuple(then.map[v - 1] for v in first.map))


def invert(pi: Permutation) -> Permutation:
    inv = [0] * pi.n
    for i, v in enumerate(pi.map, start=1):
        inv[v - 1] = i
    return Permutation(tuple(inv))


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation(tuple((rng.permutation(n) + 1).tolist()))
