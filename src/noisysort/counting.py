"""Exact counting of permutations by inversions and metric-entropy machinery.

Counts are exact Python integers (n! overflows 64-bit words past n = 20).
The greedy constructions scan in a fixed lexicographic order so results are
reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import check_physical_memory
from .perms import Permutation, enumerate_permutations, kendall_tau


@dataclass(frozen=True)
class PackingSet:
    """A set of permutations that are pairwise more than ``epsilon`` apart."""

    n: int
    epsilon: int
    members: tuple[Permutation, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class InversionBoundsReport:
    """Closed-form sandwich for log #{pi : d_KT(pi, id) <= k} and its truth."""

    n: int
    k: int
    lower_bound: float
    log_count: float
    upper_bound: float
    holds: bool


@dataclass(frozen=True)
class EntropyBoundsReport:
    """Closed-form bounds on the metric entropy of a Kendall-tau ball.

    ``log_greedy_size`` is filled for n <= 6 by actually building a maximal
    packing of the ball; a maximal packing size sits between the covering and
    packing numbers, so it must land in the sandwich.
    """

    n: int
    r: int
    epsilon: int
    prop_lower: float
    prop_upper: float
    log_greedy_size: float | None
    within_bounds: bool | None


def max_inversions(n: int) -> int:
    return n * (n - 1) // 2


def count_at_most_k_inversions(n: int, k: int) -> int:
    """Exact #{pi in S_n : d_KT(pi, id) <= k}.

    Dynamic programming over inversion tables: entry i takes values in
    {0, ..., n-i}, and the count of tables with a given sum is accumulated
    row by row with a sliding-window prefix sum.  O(n*k) exact arithmetic.
    ResourceCapError, before anything is allocated, if the up to three lists of
    k + 1 integers alive at once would not fit in physical memory, each entry
    charged a list slot and a CPython int of n!'s 30-bit digits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= max_inversions(n):
        raise ValueError(f"k={k} outside 0..{max_inversions(n)}")
    need = 3 * (k + 1) * (32 + 4 * math.ceil(math.lgamma(n + 1) / math.log(2**30) + 1))
    check_physical_memory(f"counting n={n}, k={k}: the count tables", need)
    # counts[j] = number of partial tables with sum exactly j
    counts = [1] + [0] * k
    for i in range(1, n + 1):
        width = n - i  # b_i ranges over 0..width
        if width == 0:
            continue
        prefix = list(itertools.accumulate(counts))
        counts = [
            prefix[j] - (prefix[j - width - 1] if j > width else 0)
            for j in range(k + 1)
        ]
    return sum(counts)


def count_exactly_k_inversions(n: int, k: int) -> int:
    """Number of permutations of [n] with exactly k inversions."""
    if k == 0:
        return count_at_most_k_inversions(n, 0)
    return count_at_most_k_inversions(n, k) - count_at_most_k_inversions(n, k - 1)


def check_lemma_inversion_bounds(n: int, k: int) -> InversionBoundsReport:
    """Evaluate n*log(k/n) - n <= log(count) <= n*log(1 + k/n) + n."""
    if not 1 <= k <= max_inversions(n):
        raise ValueError(f"k={k} outside 1..{max_inversions(n)}")
    count = count_at_most_k_inversions(n, k)
    log_count = math.log(count)
    lower = n * math.log(k / n) - n
    upper = n * math.log(1 + k / n) + n
    return InversionBoundsReport(
        n=n, k=k, lower_bound=lower, log_count=log_count, upper_bound=upper,
        holds=lower <= log_count <= upper,
    )


def ball_members(center: Permutation, r: int) -> Iterator[Permutation]:
    """All permutations within Kendall tau distance ``r`` of ``center``.

    Yields in lexicographic order of the one-line maps; the stream length
    equals count_at_most_k_inversions(center.n, r).
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    for sigma in enumerate_permutations(center.n):
        if kendall_tau(center, sigma) <= r:
            yield sigma


def greedy_maximal_packing(
    n: int,
    epsilon: int,
    universe: Iterable[Permutation] | None = None,
) -> PackingSet:
    """Maximal epsilon-packing of ``universe`` (default: all of S_n).

    Scans candidates in the order given (lexicographic for the default
    universe) and keeps those more than epsilon from everything kept so far.
    Maximality makes the result an epsilon-net of the universe as well.

    Kept members are rows of pair orders (pi(a) > pi(b), a < b), so a
    candidate's Kendall distances to all of them take one numpy pass.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if universe is None:
        universe = enumerate_permutations(n)
    first, second = np.triu_indices(n, 1)  # the pairs a < b, 0-indexed
    orders = np.empty((0, len(first)), dtype=bool)
    kept: list[Permutation] = []
    for pi in universe:
        if pi.n != n:
            raise ValueError(f"universe member has n={pi.n}, expected {n}")
        ranks = pi.to_array()
        row = ranks[first] > ranks[second]
        if (np.count_nonzero(orders != row, axis=1) > epsilon).all():
            orders = np.vstack([orders, row])  # a copy costs no more than the check
            kept.append(pi)
    return PackingSet(n=n, epsilon=epsilon, members=tuple(kept))


def _swap_code_permutation(vec: tuple[int, ...]) -> Permutation:
    """Map a binary vector to a permutation swapping marked adjacent pairs.

    Coordinate i = 1 swaps ranks 2i-1 and 2i; each swap contributes exactly
    one inversion, so d_KT to identity equals the vector's weight and the
    Kendall tau distance between two images equals the Hamming distance of
    their sources.
    """
    return Permutation([r for i, b in enumerate(vec, start=1) for r in (2 * i - 1 + b, 2 * i - b)])


def sparse_vg_packing(n: int, r: int) -> PackingSet:
    """Well-separated packing of the radius-r ball around identity.

    The greedy code of minimum Hamming distance ceil(r/2) over the r-sparse vectors of
    {0,1}^(n/2), scanned lexicographically, as adjacent-swap permutations: the swap code
    maps Hamming to Kendall distance exactly, so greedy_maximal_packing at ceil(r/2) - 1
    keeps the code's images.  Members lie in the ball of radius r around identity and are
    pairwise at Kendall tau distance >= ceil(r/2); the cardinality should be checked against
    exp((r/5) * log(n/r)) by the caller, not assumed.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and positive, got {n}")
    if not 1 <= r < n // 2:
        raise ValueError(f"r={r} must satisfy 1 <= r < n/2 = {n // 2}")
    images = (_swap_code_permutation(vec) for vec in itertools.product((0, 1), repeat=n // 2)
              if sum(vec) <= r)
    return greedy_maximal_packing(n, math.ceil(r / 2) - 1, images)


def sparse_packing_cardinality_floor(n: int, r: int) -> float:
    """exp((r/5) * log(n/r)): the cardinality the construction must reach."""
    return math.exp((r / 5) * math.log(n / r))


def entropy_bounds(n: int, r: int, epsilon: int) -> EntropyBoundsReport:
    """Evaluate the ball metric-entropy sandwich, exactly where enumerable.

    prop_lower = n*log(r/(n+eps)) - 2n and prop_upper = n*log((2n+2r)/eps) + 2n
    bound log N(B(pi, r), eps) and log D(B(pi, r), eps) respectively.  For
    n <= 6 the greedy maximal packing of the ball is built and its log size
    checked against the sandwich.
    """
    if not 0 < epsilon < r <= max_inversions(n):
        raise ValueError(
            f"need 0 < epsilon < r <= n(n-1)/2, got epsilon={epsilon} r={r} n={n}"
        )
    prop_lower = n * math.log(r / (n + epsilon)) - 2 * n
    prop_upper = n * math.log((2 * n + 2 * r) / epsilon) + 2 * n
    log_size: float | None = None
    within: bool | None = None
    if n <= 6:
        ball = list(ball_members(Permutation.identity(n), r))
        packing = greedy_maximal_packing(n, epsilon, universe=ball)
        log_size = math.log(len(packing))
        within = prop_lower <= log_size <= prop_upper
    return EntropyBoundsReport(
        n=n, r=r, epsilon=epsilon,
        prop_lower=prop_lower, prop_upper=prop_upper,
        log_greedy_size=log_size, within_bounds=within,
    )
