"""Comparison laws and comparison-data generation.

The law is the star law: the stronger item wins with probability 1/2 + lam,
in closed form, with no n x n table (see ``ProbabilityMatrix``).  The samplers
read a law's ``n``, ``entries`` and ``win_prob``, so other law objects with a
2-D ``entries`` draw through them too.

Two sampling schemes produce a ``ComparisonDataset``:

* without replacement: every unordered pair is observed once with
  probability p, independently.  The observed pairs are one Bernoulli(p)
  process over the numbered pair cells, drawn as Geometric(p) gaps, and the
  multistage split gives each observed pair one uniform stage label (none
  at one stage).  The draw is held while its stages are built as its pairs
  per row, one column offset per pair in the narrowest unsigned type that
  holds n - 2, and the win bits and label bit planes packed eight to a byte;
* with replacement: a fixed number N of comparisons, each between a
  uniformly drawn pair.

Both ``StageSource`` constructors take the latent order, the law, the budget
and a seed, and draw their own stages.

Datasets store one record per compared unordered pair (i < j): the number of
comparisons and how many the smaller-index item won.  This matches the file
format, keeps memory proportional to the number of distinct compared pairs,
and makes the win-matrix identity A[i,j] + A[j,i] = N[i,j] true by
construction.  Generation is keyed entirely by (parameters, seed): the same
seed reproduces the dataset bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SizeMismatchError
from .perms import Permutation

WITH_REPLACEMENT = "with_replacement"
WITHOUT_REPLACEMENT = "without_replacement"


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic child seed for component ``key`` under ``master_seed``.

    Uses numpy's splittable SeedSequence with the key as spawn path, so
    distinct keys give statistically independent streams and the derivation
    is stable across runs and platforms.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class ProbabilityMatrix:
    """The star law on n ranked items: the stronger item wins with probability 1/2 + lam.

    ``win_prob(i, j)`` is the probability that the rank-i item beats the
    rank-j item: 1/2 + lam when i > j (stronger items rank higher), 1/2 - lam
    when i < j, exactly 1/2 when i == j.  ``entries``, derived from ``lam``, is
    the table it reads, the three values (1/2 - lam, 1/2, 1/2 + lam) indexed by
    sign(i - j) + 1, so the law takes O(1) memory at any n.
    """

    n: int
    lam: float
    entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.lam < 0.5:
            raise ValueError(f"lam must lie in (0, 1/2), got {self.lam}")
        object.__setattr__(self, "entries", np.array([0.5 - self.lam, 0.5, 0.5 + self.lam]))

    def win_prob(self, rank_i: np.ndarray, rank_j: np.ndarray) -> np.ndarray:
        """P(the rank_i item beats the rank_j item), elementwise (1-indexed ranks)."""
        return self.entries[np.sign(rank_i - rank_j) + 1]


def star_matrix(n: int, lam: float) -> ProbabilityMatrix:
    """The canonical law: the stronger item wins with probability 1/2 + lam."""
    return ProbabilityMatrix(n=n, lam=lam)


@dataclass(frozen=True)
class SamplingTag:
    """Which sampling scheme produced a dataset, and its budget (N or p)."""

    kind: str
    budget: float

    def __post_init__(self) -> None:
        if self.kind not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
            raise ValueError(f"unknown sampling kind {self.kind!r}")

    def budget_str(self) -> str:
        if self.kind == WITH_REPLACEMENT:
            return str(int(self.budget))
        return repr(float(self.budget))


# Records checked, drawn or decoded per pass over a record array: its temporaries stay a few MB
_WIN_CHUNK = 1 << 16


def _keep_freed_arrays() -> None:
    """Keep the arrays freed after one stage in glibc's heap for the next; no-op off glibc."""
    libc = None if hasattr(ctypes, "WinDLL") else ctypes.CDLL(None)  # Windows: no dlopen(NULL)
    if hasattr(libc, "gnu_get_libc_version"):
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        if libc.mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD at its 64-bit maximum
            libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD at twice that, as glibc's own rule


_keep_freed_arrays()


def _any_block(test: Callable[..., np.ndarray], *arrays: np.ndarray) -> bool:
    """Whether ``test`` of the equal-length ``arrays`` is true anywhere, applied to _WIN_CHUNK
    + 1 elements at a time; neighbouring blocks share an element, so a test may compare each
    element with the next."""
    return any(test(*(a[lo: lo + _WIN_CHUNK + 1] for a in arrays)).any()
               for lo in range(0, len(arrays[0]), _WIN_CHUNK))


def _counts(values: np.ndarray, size: int) -> np.ndarray:
    """np.bincount(values, minlength=size), int64, summed over blocks of max(_WIN_CHUNK, size)
    values: bincount copies its input to intp, so the copy is a block's, not the input's."""
    step = max(_WIN_CHUNK, size)
    return sum((np.bincount(values[lo: lo + step], minlength=size)
                for lo in range(0, len(values), step)), np.zeros(size, np.int64))


@dataclass(frozen=True, eq=False)
class ComparisonDataset:
    """Outcomes of pairwise comparisons among n items.

    Parallel arrays hold one entry per compared unordered pair: items
    ``first < second`` (1-indexed), the comparison count, and how many of
    those ``first`` won.  Pairs are strictly increasing in (first, second),
    and a without-replacement record holds exactly one comparison; both are
    checked at construction, _WIN_CHUNK records at a time.  The samplers and
    the reader hold the items in _item_dtype(n); a with-replacement sample holds
    its counts and wins in _count_dtype of its largest count, a
    without-replacement one its wins as bool and its counts as one read-only
    int64 1, broadcast.  So below n = 2**15 and 128 comparisons of one pair, a
    with-replacement record takes 6 bytes and a without-replacement one 5.
    """

    n: int
    first: np.ndarray = field(repr=False)
    second: np.ndarray = field(repr=False)
    num: np.ndarray = field(repr=False)
    first_wins: np.ndarray = field(repr=False)
    tag: SamplingTag = SamplingTag(WITH_REPLACEMENT, 0)
    seed: int = 0

    def __post_init__(self) -> None:
        f, s, m, w = self.first, self.second, self.num, self.first_wins
        if not (len(f) == len(s) == len(m) == len(w)):
            raise ValueError("pair arrays have mismatched lengths")
        if _any_block(lambda f, s, m, w: (f >= s) | (f < 1) | (s > self.n) | (m < 1) | (w < 0)
                      | (w > m), f, s, m, w):
            raise ValueError("invalid pair record (ordering, range, or win count)")
        if _any_block(lambda f, s: (f[1:] < f[:-1]) | ((f[1:] == f[:-1]) & (s[1:] <= s[:-1])),
                      f, s):
            raise ValueError("pairs are not strictly increasing in (first, second)")
        if self.tag.kind == WITHOUT_REPLACEMENT and _any_block(lambda m: m != 1, m):
            raise ValueError("a without-replacement record holds exactly one comparison")

    @property
    def num_pairs(self) -> int:
        return len(self.first)

    def total_comparisons(self) -> int:
        return int(self.num.sum()) if len(self.num) else 0

    def same_data(self, other: "ComparisonDataset") -> bool:
        return self.n == other.n and all(np.array_equal(getattr(self, k), getattr(other, k))
                                         for k in ("first", "second", "num", "first_wins"))


def _count_dtype(top: int) -> type:
    """The narrowest of int8, int16, int32 and int64 that holds 0..top: the type of a
    with-replacement sample's counts and wins, top its largest count.  The record types stay
    signed: numpy adds uint64 and int64 in float64."""
    return (np.int8 if top < 2**7 else np.int16 if top < 2**15 else np.int32 if top < 2**31
            else np.int64)


def _item_dtype(n: int) -> type:
    """The type of item indices 1..n: int16 to n = 32767, int32 below 2**31, else int64."""
    return np.int16 if n < 2**15 else np.int32 if n < 2**31 else np.int64


def _cell_dtype(n: int) -> type:
    """The type of a with-replacement draw's pair cells 0..C(n,2) - 1: uint32 while
    C(n,2) < 2**32, where numpy gives the int64 draw's values and stream, else int64."""
    return np.uint32 if n * (n - 1) // 2 < 2**32 else np.int64


def _row_starts(n: int) -> np.ndarray:
    """The first pair cell of each row, by item 1..n, and C(n,2) past them (int64): row i
    holds cells starts[i - 1]..starts[i] - 1."""
    return np.concatenate(([0], np.cumsum(np.arange(n - 1, -1, -1, dtype=np.int64))))


def _to_offsets(cells: np.ndarray, starts: np.ndarray, rows: np.ndarray) -> None:
    """Turn ascending pair cells (0..C(n,2)-1, in (first, second) order) into their column
    offsets second - first - 1, in place and _WIN_CHUNK at a time, adding their number per
    first item into ``rows`` (by item, 0..n).  ``starts`` is _row_starts(n) in the cells'
    dtype: a search or subtraction across dtypes would cast every cell."""
    for lo in range(0, len(cells), _WIN_CHUNK):
        block = cells[lo: lo + _WIN_CHUNK]
        a, b = np.searchsorted(starts, (block[0], block[-1]), side="right")
        per_row = np.diff(np.searchsorted(block, starts[a - 1: b + 1]))
        rows[a: b + 1] += per_row
        block -= np.repeat(starts[a - 1: b], per_row)


def _first(rows: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``first`` of pairs in (first, second) order, numbered ``rows`` per first item (by item
    0..n); ``second`` holds their column offsets in _item_dtype(n) and becomes their second."""
    first = np.repeat(np.arange(len(rows), dtype=second.dtype), rows)
    second += first
    second += 1
    return first


def _col_dtype(n: int) -> np.dtype:
    """The type of column offsets second - first - 1, 0..n - 2: the narrowest unsigned one."""
    return np.min_scalar_type(max(n - 2, 0))


def _row_bounds(ends: np.ndarray, lo: int, hi: int) -> tuple[int, np.ndarray]:
    """(a, bounds): held pairs lo..hi - 1, of cumulative per-row counts ``ends`` (by item,
    0..n), lie in rows a..a + len(bounds) - 2, row a + k's from lo + bounds[k] on."""
    a, b = np.searchsorted(ends, (lo, hi - 1), side="right")
    return int(a), np.clip(ends[a - 1: b + 1], lo, hi) - lo


def _unpack(bits: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The first-won bits of held pairs lo..hi - 1, of np.packbits' ``bits``, as new bools."""
    skip = lo % 8
    return np.unpackbits(bits[lo // 8: (hi + 7) // 8], count=skip + hi - lo)[skip:].view(bool)


def _draw_pairs(pi_star: Permutation, matrix: ProbabilityMatrix, p: float,
                seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sample_without_replacement's draw, held compact as (rows, cols, bits): the number of
    observed pairs whose first item is i, by i in 0..n (int64); each pair's column offset
    second - first - 1, in (first, second) order and _col_dtype(n); and whether first won
    each, packed eight to a byte by np.packbits.  The Geometric(p) gaps are drawn and summed
    into one block's pair cells, numbered 0..C(n,2)-1 in (first, second) order, which become
    its rows and cols; once every gap is drawn, the bits are drawn against their pairs.  Both
    go _WIN_CHUNK at a time (the bits in whole bytes): the generator's stream is the one of
    single calls."""
    if not 0 < p <= 1:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    n = pi_star.n
    if matrix.n != n:
        raise SizeMismatchError(f"matrix n={matrix.n} vs permutation n={n}")
    num_cells, starts = n * (n - 1) // 2, _row_starts(n)
    rng = np.random.default_rng(seed)
    # six standard deviations past the expected count: one round nearly always passes the last cell
    size = int(p * num_cells + 6 * math.sqrt(p * num_cells) + 10)
    rows, rounds, last = np.zeros(n + 1, np.int64), [], -1  # last: the last drawn cell
    while not rounds or last < num_cells - 1:  # a round draws every gap, past the last cell too
        cols, count = np.empty(size, dtype=_col_dtype(n)), 0
        for lo in range(0, size, _WIN_CHUNK):
            gaps = rng.geometric(p, size=min(_WIN_CHUNK, size - lo))
            # gaps cut to one past the last cell keep a tiny p's sums finite
            steps = np.cumsum(np.minimum(gaps, num_cells + 1, out=gaps), out=gaps)
            steps += last
            last, kept = int(steps[-1]), int(np.searchsorted(steps, num_cells))
            _to_offsets(steps[:kept], starts, rows)
            cols[count: count + kept] = steps[:kept]
            count += kept
        rounds.append(cols[:count])
    cols = rounds[0] if len(rounds) == 1 else np.concatenate(rounds)
    ends, ranks = np.cumsum(rows), np.concatenate(([0], pi_star.to_array()))  # ranks by item
    bits, step = np.empty((len(cols) + 7) // 8, np.uint8), -(-_WIN_CHUNK // 8) * 8
    for lo in range(0, len(cols), step):
        hi = min(lo + step, len(cols))
        a, bounds = _row_bounds(ends, lo, hi)
        first = np.repeat(np.arange(a, a + len(bounds) - 1), np.diff(bounds))  # intp: fast takes
        won = rng.random(hi - lo) < matrix.win_prob(
            ranks.take(first), ranks.take(first + cols[lo: hi] + 1))
        bits[lo // 8: (hi + 7) // 8] = np.packbits(won)
    return rows, cols, bits


def _decode(n: int, rows: np.ndarray, second: np.ndarray, won: np.ndarray, p: float,
            seed: int) -> ComparisonDataset:
    """The without-replacement dataset of the pairs that _first's ``rows`` and ``second``
    give, and their first-won bits (bool), which it keeps."""
    first = _first(rows, second)
    return ComparisonDataset(
        n=n, first=first, second=second, num=np.broadcast_to(np.int64(1), len(second)),
        first_wins=won, tag=SamplingTag(WITHOUT_REPLACEMENT, p), seed=seed,
    )


def sample_without_replacement(
    pi_star: Permutation, matrix: ProbabilityMatrix, p: float, seed: int
) -> ComparisonDataset:
    """Observe each unordered pair once with probability ``p``.

    The C(n,2) pair cells are numbered in (first, second) order.  The
    observed cells are the running sums of Geometric(p) gaps: an exact
    Bernoulli(p) process whose memory is proportional to the observed pairs,
    not to the cells.  One uniform draw per observed pair, against its
    ``win_prob``, then decides whether ``first`` won.
    """
    rows, cols, bits = _draw_pairs(pi_star, matrix, p, seed)
    won, second = _unpack(bits, 0, len(cols)), cols.astype(_item_dtype(pi_star.n))
    del cols, bits  # the draw is freed before first is made
    return _decode(pi_star.n, rows, second, won, p, seed)


# Largest comparison count whose star-law win draw is replayed from a table
_REPLAY_COUNT = 32
# numpy's largest uniform double, (2**53 - 1) / 2**53
_TOP_UNIFORM = 1.0 - 2.0**-53


def _inversion_tables(entries: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, int]:
    """numpy's binomial inversion on the star law's two sides, for counts 0..top.

    Rows 0..top invert at v = entries[0] (first weaker), the next top + 1 at
    v = 1.0 - entries[2] (first stronger: numpy inverts 1 - p, then returns c - X);
    ``top`` is cut to stay out of numpy's large-count branch, c * v > 30.  px[row, k]
    is the term that numpy subtracts from its uniform at step k, in its order of
    operations; past bound[row] it redraws.  ``floor`` is 1 if a count-1 pair settles
    at u > px[row, 0] even for the largest uniform, and so for every uniform (fl(u - x)
    is monotone in u), else 0."""
    sides = (float(entries[0]), 1.0 - float(entries[2]))
    while top * max(sides) > 30.0:
        top -= 1
    px, bound, floor = np.zeros((2 * top + 2, top + 1)), np.zeros(2 * top + 2, dtype=np.int64), 1
    for row, v in zip((0, top + 1), sides):
        q = 1.0 - v
        for c in range(1, top + 1):
            mean, term = c * v, math.exp(c * math.log(q))
            bound[row + c] = int(min(c, mean + 10.0 * math.sqrt(mean * q + 1)))
            for k in range(bound[row + c] + 1):
                px[row + c, k] = term
                term = ((c - k) * v * term) / ((k + 1) * q)
        u, k = _TOP_UNIFORM, 0
        while u > px[row + 1, k] and k < bound[row + 1]:
            u, k = u - px[row + 1, k], k + 1
        floor = min(floor, int(u <= px[row + 1, k]))
    return px, bound, floor


def _replay_star_wins(rng: np.random.Generator, counts: np.ndarray, stronger: np.ndarray,
                      tables: tuple[np.ndarray, np.ndarray, int], out: np.ndarray) -> bool:
    """``out[:] = rng.binomial(counts, p)`` for the star law, bit for bit and with the same
    stream, at one ``rng.random`` value per pair; p is 1/2 + lam where ``stronger`` (first
    ranks higher), else 1/2 - lam.  ``tables`` are _inversion_tables'.  False, with the
    stream advanced, where numpy would not invert once per pair: a count past the
    tables, or a uniform past its bound."""
    px, bound, floor = tables
    side = len(bound) // 2
    if counts.max() >= side:
        return False
    u = rng.random(len(counts))
    # a count-1 pair wins X = (u > px[1, 0]) of its side, or 1 - X where stronger; the
    # sides are selected by masks, since a select on the random side bits mispredicts
    out[:] = (stronger & (u <= px[side + 1, 0])) | (~stronger & (u > px[1, 0]))
    go = np.flatnonzero(counts > floor)  # the pairs that step through their rows
    row, u = counts[go] + stronger[go] * side, u[go]
    x, at = np.zeros(len(go), dtype=np.int64), np.arange(len(go))
    for k in range(px.shape[1]):
        term = px[row, k]
        more = u > term
        at, row, u = at[more], row[more], (u - term)[more]
        if not len(at):
            break
        if np.any(bound[row] <= k):  # X = k + 1 is past the bound: numpy redraws
            return False
        x[at] += 1
    out[go] = np.where(stronger[go], counts[go] - x, x)
    return True


def _compact_runs(cells: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The lengths of the runs of equal sorted ``cells``, in _count_dtype of the longest, once
    each run's first cell is moved to the front of ``cells`` in place and its start marked in
    the bools ``new``.  One pass, _WIN_CHUNK cells at a time, marks a block and writes its
    starts below its end once it is read, carrying its last cell to the next block's first
    mark.  A length, the next start less its own, is filled as int8, and again wider past 127."""
    kept, last, dtype = 0, None, np.int8
    for lo in range(0, len(cells), _WIN_CHUNK):
        block, mark = cells[lo: lo + _WIN_CHUNK], new[lo: lo + _WIN_CHUNK]
        np.not_equal(block[1:], block[:-1], out=mark[1:])
        mark[0] = last is None or block[0] != last
        starts, last = block[mark], block[-1]
        cells[kept: kept + len(starts)] = starts
        kept += len(starts)
    while True:
        counts, start, done, top = np.empty(kept, dtype), 0, 0, 0
        for lo in range(1, len(new), _WIN_CHUNK):
            starts = np.flatnonzero(new[lo: lo + _WIN_CHUNK])
            starts += lo  # in place, and the first length apart: np.diff's prepend would copy
            head, lengths = starts[:1] - start, np.diff(starts)
            top = max(top, int(head.max(initial=0)), int(lengths.max(initial=0)))
            counts[done: done + len(head)] = head  # both wrap past dtype, to be filled again
            counts[done + len(head): done + len(starts)] = lengths
            done, start = done + len(starts), starts[-1] if len(starts) else start
        top = max(top, len(new) - start)
        if top <= np.iinfo(dtype).max:
            counts[-1] = len(new) - start
            return counts
        dtype = _count_dtype(top)
        del counts


def sample_with_replacement(
    pi_star: Permutation, matrix: ProbabilityMatrix, total: int, seed: int
) -> ComparisonDataset:
    """Draw ``total`` comparisons between uniformly random pairs.

    The N drawn pair cells are sorted, and _compact_runs moves each drawn pair's first cell to
    their front: the call holds the drawn cells and a mark byte per draw, then what it returns.
    The marks are allocated before the draw, so they can take space that an earlier draw freed.
    Each drawn pair's wins are ``rng.binomial(count, p)``, _WIN_CHUNK pairs per call.
    Under the star law (a 1-D ``entries`` table) a chunk is replayed through numpy's own
    inversion sampler, at one uniform per pair; a chunk that numpy would draw otherwise
    (a count past _REPLAY_COUNT or its large-count branch, or a redraw) is drawn again by
    ``rng.binomial`` from the state before it, so the stream is the same either way."""
    if total < 1:
        raise ValueError(f"need at least one comparison, got {total}")
    n = pi_star.n
    if matrix.n != n:
        raise SizeMismatchError(f"matrix n={matrix.n} vs permutation n={n}")
    if n < 2:
        raise ValueError("need n >= 2 to compare anything")
    rng, new = np.random.default_rng(seed), np.empty(total, bool)  # new: where each run starts
    cells = rng.integers(0, n * (n - 1) // 2, size=total, dtype=_cell_dtype(n))
    cells.sort()  # the drawn pairs are the runs of equal cells
    counts = _compact_runs(cells, new)
    del new
    cells, rows, item = cells[:len(counts)], np.zeros(n + 1, np.int64), _item_dtype(n)
    _to_offsets(cells, _row_starts(n).astype(cells.dtype), rows)
    # offsets < n keep their values as signed items of the same width, so that width is a view
    second = cells.view(item) if cells.itemsize == np.dtype(item).itemsize else cells.astype(item)
    del cells  # the N draws are freed here, unless second is their view
    first = _first(rows, second)
    ranks = np.concatenate(([0], pi_star.to_array()), dtype=item)  # by item, 1-based
    wins, star = np.empty(len(first), dtype=counts.dtype), matrix.entries.ndim == 1
    if star:
        tables = _inversion_tables(matrix.entries, min(_REPLAY_COUNT, int(counts.max())))
    for lo in range(0, len(first), _WIN_CHUNK):  # as in _draw_pairs: one call's stream
        at = slice(lo, lo + _WIN_CHUNK)
        rank_first, rank_second = (ranks.take(a[at]) for a in (first, second))
        if star:
            state = rng.bit_generator.state
            if _replay_star_wins(rng, counts[at], rank_first > rank_second, tables, wins[at]):
                continue
            rng.bit_generator.state = state  # numpy draws this chunk itself
        wins[at] = rng.binomial(counts[at], matrix.win_prob(rank_first, rank_second))
    return ComparisonDataset(n=n, first=first, second=second, num=counts, first_wins=wins,
                             tag=SamplingTag(WITH_REPLACEMENT, total), seed=seed)


def stage_budgets(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal budgets.

    The remainder is distributed one comparison per part to the first
    total % parts parts.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    base, rem = divmod(total, parts)
    return [base + (1 if t < rem else 0) for t in range(parts)]


@dataclass(frozen=True, eq=False)
class StageSource:
    """A run's stage samples: ``n`` and the per-stage comparison ``counts`` up front, and
    per pass a fresh ``stages()`` iterator that builds each stage when it is pulled."""

    n: int
    counts: tuple[int, ...]
    stages: Callable[[], Iterator[ComparisonDataset]] = field(repr=False)

    def __iter__(self) -> Iterator[ComparisonDataset]:
        return self.stages()

    @classmethod
    def of(cls, samples: StageSource | Iterable[ComparisonDataset]) -> StageSource:
        """``samples`` if it is a source, else a source over the listed samples."""
        if isinstance(samples, StageSource):
            return samples
        samples = list(samples)
        if not samples:
            raise ValueError("got no stage samples")
        if any(s.n != samples[0].n for s in samples):
            raise SizeMismatchError("samples disagree on n")
        counts = tuple(s.total_comparisons() for s in samples)
        return cls(samples[0].n, counts, lambda: iter(samples))

    @classmethod
    def with_replacement(cls, pi_star: Permutation, matrix: ProbabilityMatrix,
                         budgets: list[int], master_seed: int, first_key: int = 0) -> StageSource:
        """With-replacement samples, one per budget entry; sample k is drawn from
        derive_seed(master_seed, first_key + k), so every pass replays the first."""
        if not budgets or any(b < 1 for b in budgets):
            raise ValueError(f"budgets must be positive, got {budgets}")
        return cls(pi_star.n, tuple(budgets), lambda: (  # the sampler is read from this module
            sample_with_replacement(pi_star, matrix, b, derive_seed(master_seed, first_key + k))
            for k, b in enumerate(budgets)))

    @classmethod
    def without_replacement(cls, pi_star: Permutation, matrix: ProbabilityMatrix, p: float,
                            parts: int, seed: int) -> StageSource:
        """The stages of one without-replacement draw from derive_seed(seed, 0), held as
        _draw_pairs' (rows, cols, bits) and the pairs' stage labels: each pair gets one of
        ``parts`` uniform labels, drawn once from derive_seed(seed, 1) and held as
        int(parts - 1).bit_length() bit planes packed by np.packbits, plane k the labels' bit
        k (none, and no draw, at one stage); stage t is the pairs labelled t, keyed
        derive_seed(derive_seed(seed, 1), t).  Each stage is decoded into new arrays and the
        draw is never written, so every pass replays the first."""
        if parts < 1:
            raise ValueError("parts must be positive")
        rows, cols, bits = _draw_pairs(pi_star, matrix, p, derive_seed(seed, 0))
        n, seed, ends = pi_star.n, derive_seed(seed, 1), np.cumsum(rows)
        planes, counts = np.empty((int(parts - 1).bit_length(), len(bits)), np.uint8), [len(cols)]
        if len(planes):  # the labels are freed on return: only the planes are held
            labels = np.random.default_rng(seed).integers(
                0, parts, size=len(cols), dtype=np.min_scalar_type(parts - 1))
            counts, step = _counts(labels, parts).tolist(), -(-_WIN_CHUNK // 8) * 8
            for lo in range(0, len(labels), step):  # whole bytes: no label-sized temporary
                for k, plane in enumerate(planes):
                    plane[lo // 8: (lo + step) // 8] = np.packbits(labels[lo: lo + step] & 1 << k)

        def stage(t: int) -> ComparisonDataset:
            # gathered a block at a time into arrays of the stage's count: no record-sized index
            part_rows, at = np.zeros(n + 1, np.int64), 0
            part, won = np.empty(counts[t], _item_dtype(n)), np.empty(counts[t], bool)
            flip = np.array([0 if t >> k & 1 else 255 for k in range(len(planes))], np.uint8)
            for lo in range(0, len(cols), _WIN_CHUNK):
                hi = min(lo + _WIN_CHUNK, len(cols))
                # the block's bits set where a pair's label bits all equal t's, unpacked once
                mine = np.bitwise_and.reduce(planes[:, lo // 8: (hi + 7) // 8] ^ flip[:, None],
                                             axis=0, initial=255)
                keep = np.flatnonzero(_unpack(mine, lo % 8, lo % 8 + hi - lo))
                a, bounds = _row_bounds(ends, lo, hi)
                part_rows[a: a + len(bounds) - 1] += np.diff(np.searchsorted(keep, bounds))
                for held, out in ((cols[lo: hi], part), (_unpack(bits, lo, hi), won)):
                    out[at: at + len(keep)] = held[keep]
                at += len(keep)
            return _decode(n, part_rows, part, won, p, derive_seed(seed, t))

        return cls(n, tuple(counts), lambda: map(stage, range(parts)))


def split_with_replacement(pi_star: Permutation, matrix: ProbabilityMatrix, budgets: list[int],
                           master_seed: int) -> list[ComparisonDataset]:
    """The samples of StageSource.with_replacement, keyed from 0, as a list."""
    return list(StageSource.with_replacement(pi_star, matrix, budgets, master_seed))


def _limb_words() -> tuple[np.ndarray, np.ndarray]:
    """A limb k < 10**4 as four ASCII digits in one uint32, at k + 10**4 * (a higher
    limb is not 0): bare (0 bytes for leading zeros), else zero-padded.  The second
    table serves the limbs above the lowest, where a bare 0 writes nothing."""
    k, places = np.arange(10**4)[:, None], np.array([1000, 100, 10, 1])
    padded = (k // places % 10 + ord("0")).astype(np.uint8)
    bare = np.where((k < places) & (places > 1), 0, padded).astype(np.uint8)
    low = np.concatenate([bare, padded]).view(np.uint32).ravel()
    return low, np.concatenate([[0], low[1:]]).astype(np.uint32)


_LOW_WORDS, _HIGH_WORDS = _limb_words()
# Lines formatted per pass of write_dataset: its temporaries stay a few MB
_WRITE_BLOCK_ROWS = 1 << 15


def _format_lines(columns: tuple[np.ndarray, ...]) -> np.ndarray:
    """ASCII text of the lines of non-negative integer ``columns``, space separated.

    Each column takes the base-10**4 limbs of its largest value: one unaligned
    uint32 word per limb and line, then a separator byte.  A value's missing
    top limbs and leading zeros are 0 bytes, dropped by one compress.  Limbs are
    computed in each column's own type, and cast to intp only to index a table."""
    limbs = [(len(str(values.max())) + 3) // 4 for values in columns]
    width = sum(4 * count + 1 for count in limbs)
    text = np.full((len(columns[0]), width), ord(" "), dtype=np.uint8)
    text[:, -1] = ord("\n")
    at = 0
    for values, count in zip(columns, limbs):
        for p in range(count - 1, -1, -1):  # limb p counted from the right
            rest = values // 10 ** (4 * p) if p else values
            if p < count - 1:
                limb = rest.dtype.type(10**4)  # a scalar of the column's type keeps its width
                rest = rest % limb + (rest >= limb) * limb
            word = np.ndarray(len(text), dtype=np.uint32, buffer=text, offset=at, strides=(width,))
            word[:] = (_HIGH_WORDS if p else _LOW_WORDS)[rest.astype(np.intp)]  # the fast gather
            at += 4
        at += 1
    return text[text != 0]


def _by_second(second: np.ndarray, per_item: np.ndarray) -> np.ndarray:
    """The places of records in (first, second) order sorted by (second, first), in the
    narrowest exact type: a counting sort by ``second``, whose ``per_item`` counts give each
    item's run, _WIN_CHUNK records at a time, so its only intp arrays are a block's."""
    order = np.empty(len(second), dtype=_item_dtype(len(second)))
    slot = np.cumsum(per_item) - per_item  # where the next record of each item goes
    key = np.min_scalar_type(len(per_item) - 1)  # the largest item: a radix sort below 2**16
    for lo in range(0, len(second), _WIN_CHUNK):
        block = second[lo: lo + _WIN_CHUNK]
        ranked = np.argsort(block.astype(key), kind="stable")
        items = block[ranked]
        runs = np.flatnonzero(np.diff(items, prepend=items[0] - 1))  # where each item's run starts
        sizes = np.diff(runs, append=len(items))
        order[np.repeat(slot[items[runs]] - runs, sizes) + np.arange(len(items))] = ranked + lo
        slot[items[runs]] += sizes
    return order


def write_dataset(dataset: ComparisonDataset, path: str | Path) -> None:
    """Write the documented text format.

    Header: ``n model_tag budget seed``; then one line ``i j N_ij A_ij``
    per ordered pair with N_ij > 0, 1-indexed, sorted by (i, j).  Item i's lines
    are its reverse lines (j < i), the pairs whose second is i by first, then
    its forward lines, the pairs whose first is i.  Per-item pair counts (of the
    items' ranks when pairs are fewer than items) place both runs, and blocks of
    whole items, _WRITE_BLOCK_ROWS lines or one item, are formatted at a time.
    """
    f, s, m, w = dataset.first, dataset.second, dataset.num, dataset.first_wins
    if dataset.tag.kind == WITHOUT_REPLACEMENT:  # every count is 1: int8 keeps the lines narrow
        m = np.broadcast_to(np.int8(1), len(f))
    n, keys = dataset.n, (f, s)
    if n > len(f):  # more items than pairs: ranks 1..(items named)
        names, ranks = np.unique(np.concatenate(keys), return_inverse=True)
        n, keys = len(names), (ranks[:len(f)] + 1, ranks[len(f):] + 1)
    per_first, per_second = (_counts(key, n + 1) for key in keys)
    back = _by_second(keys[1], per_second)
    upto_first, upto_second = np.cumsum(per_first), np.cumsum(per_second)  # by item
    lines = upto_first + upto_second
    header = f"{dataset.n} {dataset.tag.kind} {dataset.tag.budget_str()} {dataset.seed}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        a = 0
        while lines[a] < lines[-1]:  # items a + 1..b, at least one line
            b = max(int(np.searchsorted(lines, lines[a] + _WRITE_BLOCK_ROWS, side="right")) - 1,
                    int(np.searchsorted(lines, lines[a], side="right")))
            fwd = slice(upto_first[a], upto_first[b])
            rev = back[upto_second[a]: upto_second[b]].astype(np.intp)  # one index cast
            # per item, its reverse run then its forward run
            forward = np.repeat(np.tile([False, True], b - a), np.column_stack(
                (per_second[a + 1: b + 1], per_first[a + 1: b + 1])).ravel())
            columns = []
            for ahead, behind in ((f[fwd], s[rev]), (s[fwd], f[rev]), (m[fwd], m[rev]),
                                  (w[fwd], m[rev] - w[rev])):
                column = np.empty(len(forward), dtype=behind.dtype)
                column[forward], column[~forward] = ahead, behind
                columns.append(column)
            fh.write(_format_lines(tuple(columns)))
            a = b


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _int64(token: str) -> int | None:
    """``token`` as an int64 under np.loadtxt's rule for a record token
    (optional sign, ASCII decimal digits), or None if it breaks that rule."""
    if _DECIMAL.fullmatch(token) and -2**63 <= int(token) < 2**63:
        return int(token)
    return None


def read_dataset(path: str | Path) -> ComparisonDataset:
    """Read the write_dataset format; ValueError, naming the file, on any inconsistent file.

    Every line after the header must be exactly four integers: blank and
    ``#`` lines are errors, not skipped.  The header's n and with-replacement
    budget follow the records' integer rule (ASCII decimal int64), and its
    seed the same digits at any size; a bad record line is reported by its
    line number in the file.  The text is dropped before ``np.loadtxt`` parses
    the records from the file, as int32 where that holds every valid value
    (n and, with replacement, the budget, which no count exceeds), else int64;
    a wider value is a bad line.  The rows are dropped once oriented into columns
    with items in _item_dtype(n); counts and wins are then cast to _count_dtype
    of their largest magnitude, exactly, which for a valid file is its largest
    count.  One sort of a (first, second) key orders the records (``np.lexsort``
    from n = 2**32, past a uint64 key), and the dataset is built once.
    """
    text = Path(path).read_text()
    start, end = 0, len(text)  # the text strip() would leave, by index: no copy of it
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    if start == end:
        raise ValueError(f"empty dataset file {path}")
    skipped = text.count("\n", 0, start)  # lines before the header
    eol = text.find("\n", start, end)  # the header's end, -1 if no record line follows
    header = text[start: end if eol < 0 else eol]
    lines = 0 if eol < 0 else text.count("\n", eol, end)  # loadtxt skips blank lines: count
    del text
    head = header.split()
    if len(head) != 4:
        raise ValueError(f"bad header in {path!s}: {header!r}")
    n, kind = _int64(head[0]), head[1]
    # seeds such as derive_seed's reach 2**64: only the records' digit syntax applies
    seed = int(head[3]) if _DECIMAL.fullmatch(head[3]) else None
    try:  # N, or p, a float
        budget = _int64(head[2]) if kind == WITH_REPLACEMENT else float(head[2])
    except ValueError:
        budget = None
    ok = budget is not None and (0 <= budget if kind == WITH_REPLACEMENT else 0 < budget <= 1)
    if n is None or seed is None or not ok or kind not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ValueError(f"bad header in {path!s}: {header!r}")
    if n < 1:
        raise ValueError(f"bad header in {path!s}: n must be >= 1, got {n}")
    # no valid count exceeds the budget; a value past the parse type is named by its line
    parse = np.int32 if max(n, budget if kind == WITH_REPLACEMENT else 0) < 2**31 else np.int64
    rows = np.empty((0, 4), dtype=parse)
    if lines:
        try:  # the file itself, past the header: no copy of the body text
            rows = np.loadtxt(path, dtype=parse, ndmin=2, comments=None, skiprows=skipped + 1)
        except ValueError:
            rows = None
        if rows is None or rows.shape != (lines, 4):  # read again, to name the first bad line
            limits, body = np.iinfo(parse), Path(path).read_text()[eol + 1: end]
            for line_no, line in enumerate(body.split("\n"), start=skipped + 2):
                values = [_int64(token) for token in line.split()]
                if (len(values) != 4 or None in values or min(values) < limits.min
                        or max(values) > limits.max):
                    raise ValueError(f"{path!s}, line {line_no}: a record line must be four "
                                     f"integers of the header's width, {parse.__name__}, "
                                     f"got {line!r}")
            raise ValueError(f"every record line of {path!s} must be four integers")
    first, second, num, wins = _orient(rows, n, kind, path)
    del rows  # the loaded rows are freed here, before the sort
    if num is not None:  # the type of the largest magnitude holds every value exactly
        top = max((max(int(a.max()), -1 - int(a.min())) for a in (num, wins) if len(a)),
                  default=0)
        num, wins = num.astype(_count_dtype(top)), wins.astype(_count_dtype(top))
    # any sort by (first, second) does, since a pair's lines must agree
    if n < 2**32:  # one exact unsigned key: first * (n + 1) + second <= n * (n + 2) < 2**64
        key = first.astype(np.uint32 if n < 2**16 else np.uint64)
        key *= n + 1
        # the key's own loop: numpy adds uint64 and a signed int in float64, which rounds
        np.add(key, second, out=key, dtype=key.dtype, casting="unsafe")
        order = np.argsort(key, kind="stable")  # the fastest here: the lines come in runs
        del key
    else:
        order = np.lexsort((second, first))
    first = first[order]  # a column at a time, each freed as its gathered copy replaces it
    second = second[order]
    num = None if num is None else num[order]
    wins = wins[order]
    del order
    repeat = (first[1:] == first[:-1]) & (second[1:] == second[:-1])
    differ = wins[1:] != wins[:-1]
    if num is not None:
        differ |= num[1:] != num[:-1]
    clash = np.flatnonzero(repeat & differ)
    if len(clash):
        k = clash[0]
        raise ValueError(f"{path!s}: inconsistent records for pair ({first[k]}, {second[k]})")
    keep = np.ones(len(first), dtype=bool)
    keep[1:] = ~repeat
    first, second, wins = first[keep], second[keep], wins[keep]
    try:  # the dataset's record checks, which name no file
        dataset = ComparisonDataset(
            n=n, first=first, second=second, first_wins=wins, tag=SamplingTag(kind, budget),
            num=np.broadcast_to(np.int64(1), len(first)) if num is None else num[keep], seed=seed)
    except ValueError as exc:
        raise ValueError(f"{path!s}: {exc}") from None
    # counts are >= 1, so an int64 running sum that wraps turns negative where it does
    if kind == WITH_REPLACEMENT and np.cumsum(dataset.num).min(initial=0) < 0:
        raise ValueError(f"the comparison counts of {path!s} sum past int64")
    if kind == WITH_REPLACEMENT and budget != (total := dataset.total_comparisons()):
        raise ValueError(f"{path!s}: header budget {budget} but {total} comparisons")
    return dataset  # the samplers' types: a file with other values failed its checks


def _orient(rows: np.ndarray, n: int, kind: str, path: str | Path) -> tuple[np.ndarray, ...]:
    """(first, second, num, wins) of record rows (i, j, N_ij, A_ij), the items in _item_dtype(n),
    checked to lie in 1..n before the cast, and the rest in the rows' type; both lines of a pair
    state (count, wins of first).  A without-replacement file whose counts are all 1 and whose
    wins are all 0 or 1 gives no num (None) and bool wins; any other file keeps both columns,
    so a without-replacement one fails the later checks.  Oriented _WIN_CHUNK rows at a time."""
    item = _item_dtype(n)
    narrow = kind == WITHOUT_REPLACEMENT and not _any_block(
        lambda m, a: (m != 1) | ((a != 0) & (a != 1)), rows[:, 2], rows[:, 3])
    first, second = np.empty(len(rows), item), np.empty(len(rows), item)
    num = None if narrow else rows[:, 2].copy()
    wins = np.empty(len(rows), bool if narrow else rows.dtype)
    for lo in range(0, len(rows), _WIN_CHUNK):
        i, j, m, a = rows[lo: lo + _WIN_CHUNK].T
        low, high = np.minimum(i, j), np.maximum(i, j)
        if not (low.min() >= 1 and high.max() <= n):
            raise ValueError(f"{path!s}: invalid pair record (ordering, range, or win count)")
        at = slice(lo, lo + _WIN_CHUNK)
        first[at], second[at], wins[at] = low, high, np.where(i < j, a, m - a)
    return first, second, num, wins
