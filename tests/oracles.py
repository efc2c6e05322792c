"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes expected values from first principles
(enumeration, direct summation, explicit distributions) so the tests never
trust the code paths they check.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from noisysort import counting, estimators, model
from noisysort.counting import PackingSet
from noisysort.errors import SizeMismatchError
from noisysort.estimators import LAMBDA_CLAMP, borda_sort
from noisysort.model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ComparisonDataset,
    SamplingTag,
    _count_dtype,
    _DECIMAL,
    _int64,
    _item_dtype,
    _row_starts,
    derive_seed,
)
from noisysort.perms import Permutation, kendall_tau


def brute_inversions(values):
    """Pairwise count of out-of-order pairs in a one-line permutation."""
    return sum(
        1
        for a, b in itertools.combinations(range(len(values)), 2)
        if values[a] > values[b]
    )


def inversion_histogram(n):
    """#permutations of [n] by exact inversion count, by full enumeration."""
    hist = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        hist[brute_inversions(perm)] += 1
    return hist


def recursive_inversions(values):
    """Pairs k < l with values[k] > values[l], by recursive halving: the
    former library count, kept as the reference of the level-by-level one."""
    m = values.size
    if m <= 32:
        return int(np.sum(np.triu(values[:, None] > values[None, :], 1)))
    mid = m // 2
    left, right = values[:mid], values[mid:]
    inv = recursive_inversions(left) + recursive_inversions(right)
    # cross pairs: for each y in right, count x in left with x > y
    return inv + int(mid * right.size - np.searchsorted(np.sort(left), right, side="right").sum())


def merge_inversions(values):
    """Pairs k < l with values[k] > values[l], by bottom-up merging of any integer
    values: the former library count, kept as the reference of the radix-grouped one.

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


def adjacent_transposition(n, k):
    """The permutation swapping k and k+1, fixing everything else."""
    if not 1 <= k < n:
        raise ValueError(f"k={k} outside 1..{n - 1}")
    m = list(range(1, n + 1))
    m[k - 1], m[k] = m[k], m[k - 1]
    return Permutation(tuple(m))


def bernoulli_kl_lower_bound(p, q):
    """(p-q)^2 / (2 p (1-q)): a floor on KL(Ber(p) || Ber(q)) for q < p."""
    return (p - q) ** 2 / (2 * p * (1 - q))


def kendall_tau_brute(pi, sigma):
    """Quadratic pair-enumeration count of discordant pairs."""
    assert pi.n == sigma.n
    p, s = pi.to_array(), sigma.to_array()
    return int(np.sum((s[:, None] < s[None, :]) & (p[:, None] > p[None, :])))


# Dataset-file bodies whose two records of pair (1, 2) disagree, in three orders.
DISAGREEING_RECORDS = (
    ["2 1 3 1", "1 2 3 0"],  # reverse, then a forward line with other wins
    ["1 2 3 1", "1 2 3 2"],  # two forward lines
    ["1 2 3 1", "2 1 3 1"],  # forward, then a reverse line with other wins
)

# Dataset files whose header disagrees with their records.
BAD_HEADER_FILES = (
    ["3 with_replacement 99 0", "1 2 3 1"],  # budget 99 over 3 comparisons
    ["3 without_replacement 0.5 0", "1 2 3 1"],  # a pair compared 3 times
    ["3 without_replacement 7.5 0", "1 2 1 1"],  # p outside (0, 1]
    ["1_0 with_replacement 1 0", "1 2 1 1"],  # n = 10 to int(), not an ASCII decimal
    ["3 with_replacement 3 1_0", "1 2 3 1"],  # the seed, likewise
    ["3 without_replacement abc 0", "1 2 1 1"],  # p not a number
    ["3 foo 3 0", "1 2 3 1"],  # an unknown sampling kind
)

# Dataset files whose records break the dataset's own checks.
BAD_RECORD_FILES = (
    ["3 with_replacement 1 0", "1 1 1 0"],  # a pair of one item
    ["3 with_replacement 1 0", "1 4 1 0"],  # an item past n
    ["3 with_replacement 1 0", "1 2 1 2"],  # more wins than comparisons
    ["3 with_replacement 0 0", "1 2 0 0"],  # a pair compared no times
)

# Dataset files that break the line rules: every record line is exactly four
# integers, and the header's n is at least 1.
BAD_LINE_FILES = (
    ["3 with_replacement 6 0", "1 2 3 1", "", "2 1 3 2", "2 3 3 1"],  # a blank line
    ["3 with_replacement 3 0", "# comment", "1 2 3 1"],  # a comment line
    ["3 with_replacement 3 0", "1 2 3 1 5"],  # a fifth token
)
BAD_N_FILES = (
    ["-3 with_replacement 0 0"],
    ["0 with_replacement 0 0"],
)


def line_write_dataset(dataset, path):
    """Reference writer: one f-string per ordered-pair line."""
    lines = [f"{dataset.n} {dataset.tag.kind} {dataset.tag.budget_str()} {dataset.seed}"]
    fwd = np.stack([dataset.first, dataset.second, dataset.num, dataset.first_wins], axis=1)
    rev = np.stack([dataset.second, dataset.first, dataset.num,
                    dataset.num - dataset.first_wins], axis=1)
    both = np.concatenate([fwd, rev], axis=0)
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    lines.extend(f"{i} {j} {m} {a}" for i, j, m, a in both.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def line_read_dataset(path):
    """Reference reader: a dict of (smaller index, larger index) records
    filled one line at a time, each line split and converted with int()."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"empty dataset file {path}")
    head = text[0].split()
    if len(head) != 4:
        raise ValueError(f"bad header in {path!s}: {text[0]!r}")
    n, kind, seed = int(head[0]), head[1], int(head[3])
    budget = int(head[2]) if kind == WITH_REPLACEMENT else float(head[2])
    records = {}
    for line in text[1:]:
        i, j, m, a = map(int, line.split())
        key, record = ((i, j), (m, a)) if i < j else ((j, i), (m, m - a))
        if records.setdefault(key, record) != record:
            raise ValueError(f"inconsistent records for pair {key}")
    rows = [key + records[key] for key in sorted(records)]
    first, second, num, wins = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
    dataset = ComparisonDataset(
        n=n, first=first, second=second, num=num, first_wins=wins,
        tag=SamplingTag(kind, budget), seed=seed,
    )
    total = sum(row[2] for row in rows)  # exact, in Python ints
    if kind == WITH_REPLACEMENT and budget != total:
        raise ValueError(f"header budget {budget} but {total} comparisons")
    if kind == WITHOUT_REPLACEMENT and (not 0 < budget <= 1 or np.any(num != 1)):
        raise ValueError("without-replacement data needs p in (0, 1] and one comparison per pair")
    return dataset


def int64_read_dataset(path):
    """Reference reader: the library's reader as it was before it parsed at the records'
    width.  It loads every record as int64, orients and sorts int64 columns, and narrows
    to the samplers' types last; ValueError on any inconsistent file.

    Every line after the header must be exactly four integers: blank and
    ``#`` lines are errors, not skipped.  The header's n and with-replacement
    budget follow the records' integer rule (ASCII decimal int64), and its
    seed the same digits at any size; a bad record line is reported by its
    line number in the file.
    """
    text = Path(path).read_text()
    start, end = 0, len(text)
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    if start == end:
        raise ValueError(f"empty dataset file {path}")
    skipped = text.count("\n", 0, start)  # lines before the header
    eol = text.find("\n", start, end)  # the header's end, -1 if no record line follows
    header = text[start: end if eol < 0 else eol]
    head = header.split()
    if len(head) != 4:
        raise ValueError(f"bad header in {path!s}: {header!r}")
    n, kind = _int64(head[0]), head[1]
    # seeds such as derive_seed's reach 2**64: only the records' digit syntax applies
    seed = int(head[3]) if _DECIMAL.fullmatch(head[3]) else None
    budget = _int64(head[2]) if kind == WITH_REPLACEMENT else float(head[2])
    if n is None or seed is None or budget is None or kind == WITH_REPLACEMENT and budget < 0:
        raise ValueError(f"bad header in {path!s}: {header!r}")
    if n < 1:
        raise ValueError(f"bad header in {path!s}: n must be >= 1, got {n}")
    rows = np.empty((0, 4), dtype=np.int64)
    if eol >= 0:  # loadtxt warns on no data and skips blank lines: count the lines it parsed
        try:  # the file itself, past the header: no copy of the body text
            rows = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None, skiprows=skipped + 1)
        except ValueError:
            rows = None
        if rows is None or rows.shape != (text.count("\n", eol, end), 4):
            for line_no, line in enumerate(text[eol + 1: end].split("\n"), start=skipped + 2):
                tokens = line.split()
                if len(tokens) != 4 or any(_int64(t) is None for t in tokens):
                    raise ValueError(f"{path!s}, line {line_no}: a record line must be "
                                     f"four integers, got {line!r}")
            raise ValueError(f"every record line of {path!s} must be four integers")
    del text
    i, j, m, a = rows.T
    # both lines of a pair state (count, wins of the smaller index)
    fwd = i < j
    first, second, wins = np.where(fwd, i, j), np.where(fwd, j, i), np.where(fwd, a, m - a)
    if len(rows) and not (first.min() >= 1 and second.max() <= n):  # before the casts below
        raise ValueError("invalid pair record (ordering, range, or win count)")
    del fwd, i, j, a
    item = _item_dtype(n)
    first, second = first.astype(item), second.astype(item)
    # lexsort((second, first))'s order by two stable passes, radix sorts for n < 2**16
    key = np.min_scalar_type(n)
    order = np.argsort(second.astype(key), kind="stable")
    order = order[np.argsort(first.astype(key)[order], kind="stable")]
    num = m[order]
    del rows, m  # the loaded rows are freed here
    first, second, wins = first[order], second[order], wins[order]
    repeat = (first[1:] == first[:-1]) & (second[1:] == second[:-1])
    clash = np.flatnonzero(repeat & ((num[1:] != num[:-1]) | (wins[1:] != wins[:-1])))
    if len(clash):
        k = clash[0]
        raise ValueError(f"inconsistent records for pair {(int(first[k]), int(second[k]))}")
    keep = np.ones(len(first), dtype=bool)
    keep[1:] = ~repeat
    dataset = ComparisonDataset(
        n=n, first=first[keep], second=second[keep], num=num[keep], first_wins=wins[keep],
        tag=SamplingTag(kind, budget), seed=seed,
    )
    # counts are >= 1, so an int64 running sum that wraps turns negative where it does
    if kind == WITH_REPLACEMENT and np.cumsum(dataset.num).min(initial=0) < 0:
        raise ValueError(f"the comparison counts of {path!s} sum past int64")
    if kind == WITH_REPLACEMENT and budget != dataset.total_comparisons():
        raise ValueError(f"header budget {budget} but {dataset.total_comparisons()} comparisons")
    if kind == WITHOUT_REPLACEMENT and not 0 < budget <= 1:
        raise ValueError(f"without-replacement data needs p in (0, 1], got {budget}")
    if kind == WITH_REPLACEMENT:  # the samplers' types, which the checked values fit exactly
        top = int(dataset.num.max(initial=0))
        num, wins = (a.astype(_count_dtype(top)) for a in (dataset.num, dataset.first_wins))
        return replace(dataset, num=num, first_wins=wins)
    return replace(dataset, num=np.broadcast_to(np.int64(1), dataset.num_pairs),
                   first_wins=dataset.first_wins.astype(bool))


def wins_dense(dataset):
    """Full n x n win-count matrix A of a dataset."""
    a = np.zeros((dataset.n, dataset.n), dtype=np.int64)
    a[dataset.first - 1, dataset.second - 1] = dataset.first_wins
    a[dataset.second - 1, dataset.first - 1] = dataset.num - dataset.first_wins
    return a


def counts_dense(dataset):
    """Full n x n comparison-count matrix N of a dataset."""
    c = np.zeros((dataset.n, dataset.n), dtype=np.int64)
    c[dataset.first - 1, dataset.second - 1] = dataset.num
    c[dataset.second - 1, dataset.first - 1] = dataset.num
    return c


def membership_violation(entries, lam):
    """None if ``entries`` is a valid margin-``lam`` matrix, else a reason."""
    tol = 1e-12
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        return f"not square: shape {entries.shape}"
    if np.any(entries < -tol) or np.any(entries > 1 + tol):
        return "entries outside [0, 1]"
    if not np.allclose(np.diag(entries), 0.5, atol=tol):
        return "diagonal not 1/2"
    n = entries.shape[0]
    off = ~np.eye(n, dtype=bool)
    if not np.allclose((entries + entries.T)[off], 1.0, atol=1e-9):
        return "entries[j, i] != 1 - entries[i, j]"
    lower = np.tril_indices(n, -1)
    if np.any(entries[lower] < 0.5 + lam - tol):
        return f"a below-diagonal entry is under 1/2 + {lam}"
    return None


@dataclass(frozen=True, eq=False)
class MemberLaw:
    """A general member of the margin-``lam`` class: the n x n matrix
    entries[i-1, j-1] of P(rank i beats rank j), checked for membership at
    construction.  It has the library law's ``n``, ``lam``, ``entries`` and
    ``win_prob``, so the library samplers draw from it through rng.binomial."""

    n: int
    lam: float
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.n, self.n):
            raise ValueError(f"shape {self.entries.shape} for n={self.n}")
        err = membership_violation(self.entries, self.lam)
        if err is not None:
            raise ValueError(f"matrix not in the margin-{self.lam} class: {err}")

    def win_prob(self, rank_i, rank_j):
        return self.entries[rank_i - 1, rank_j - 1]


def random_member_matrix(n, lam, eta, seed):
    """A randomized member of the margin-``lam`` class.

    Below-diagonal entries are 1/2 + lam + U * (1/2 - lam - eta) with U
    uniform on [0, 1]; eta keeps them away from 1.  Used for robustness
    tests of estimators that only assume the margin class.
    """
    if not 0 <= eta < 0.5 - lam:
        raise ValueError(f"need 0 <= eta < 1/2 - lam, got eta={eta}")
    rng = np.random.default_rng(seed)
    entries = np.full((n, n), 0.5)
    lower = np.tril_indices(n, -1)
    entries[lower] = 0.5 + lam + rng.random(len(lower[0])) * (0.5 - lam - eta)
    entries[lower[1], lower[0]] = 1.0 - entries[lower]
    return MemberLaw(n=n, lam=lam, entries=entries)


def dense_law(law):
    """The n x n matrix of a law's win_prob, the star law's or a MemberLaw's."""
    ranks = np.arange(1, law.n + 1)
    return law.win_prob(ranks[:, None], ranks[None, :])


def relabel_items(dataset, rho):
    """Rename item i to rho(i) everywhere, keeping outcomes intact."""
    if rho.n != dataset.n:
        raise SizeMismatchError(f"relabeling size {rho.n} vs dataset n={dataset.n}")
    r = rho.to_array()
    a = r[dataset.first - 1]
    b = r[dataset.second - 1]
    flip = a > b
    first = np.where(flip, b, a)
    second = np.where(flip, a, b)
    wins = np.where(flip, dataset.num - dataset.first_wins, dataset.first_wins)
    order = np.lexsort((second, first))
    return ComparisonDataset(
        n=dataset.n, first=first[order], second=second[order], num=dataset.num[order],
        first_wins=wins[order], tag=dataset.tag, seed=dataset.seed,
    )


@dataclass(frozen=True)
class TrueScores:
    """Row sums of the probability matrix, indexed by rank (weakest first)."""

    n: int
    s_star: tuple[float, ...]


def true_scores(pi_star, matrix):
    """Expected-win scores by rank: s_star[r-1] = sum_{r' != r} M[r, r'].

    For the canonical matrix this equals lam*(2r - n - 1) + (n - 1)/2,
    strictly increasing in rank.
    """
    if matrix.n != pi_star.n:
        raise SizeMismatchError(f"matrix n={matrix.n} vs permutation n={pi_star.n}")
    entries = dense_law(matrix)
    sums = entries.sum(axis=1) - np.diag(entries)
    return TrueScores(n=matrix.n, s_star=tuple(float(v) for v in sums))


def merge_datasets(datasets):
    """Pool several datasets over the same items into one: the former
    library merge, kept as the reference the stage-sample estimators must match."""
    if not datasets:
        raise ValueError("nothing to merge")
    n = datasets[0].n
    if any(d.n != n for d in datasets):
        raise SizeMismatchError("datasets have different n")
    first, second, num, wins = (np.concatenate([getattr(d, k) for d in datasets]).astype(
        np.int64) for k in ("first", "second", "num", "first_wins"))  # no key wraps
    # collapse duplicate pairs
    key = (first - 1) * n + (second - 1)
    uniq, inverse = np.unique(key, return_inverse=True)
    num_m = np.bincount(inverse, weights=num).astype(np.int64)
    wins_m = np.bincount(inverse, weights=wins).astype(np.int64)
    first_m = (uniq // n + 1).astype(np.int64)
    second_m = (uniq % n + 1).astype(np.int64)
    total = sum(d.total_comparisons() for d in datasets)
    kind = datasets[0].tag.kind
    budget = total if kind == WITH_REPLACEMENT else datasets[0].tag.budget
    return ComparisonDataset(
        n=n, first=first_m, second=second_m, num=num_m, first_wins=wins_m,
        tag=SamplingTag(kind, budget), seed=datasets[0].seed,
    )


def unique_sample_with_replacement(pi_star, matrix, total, seed):
    """The former with-replacement sampler, kept as the reference of the
    run-length count: np.unique finds the drawn pair cells and their counts.  Row i
    holds the n - i cells from sum_{k < i} (n - k) on, in (first, second) order, which is
    np.triu_indices(n, 1)'s, without its C(n,2) arrays: n of 2**15 and more can be drawn."""
    n = pi_star.n
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, n * (n - 1) // 2, size=total)
    idx, counts = np.unique(cells, return_counts=True)
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))  # by row 1..n
    first = np.searchsorted(row_start, idx, side="right")
    second = idx - row_start[first - 1] + first + 1
    ranks = pi_star.to_array()
    wins = rng.binomial(counts, matrix.win_prob(ranks[first - 1], ranks[second - 1]))
    return ComparisonDataset(
        n=n, first=first, second=second, num=counts, first_wins=wins,
        tag=SamplingTag(WITH_REPLACEMENT, total), seed=seed,
    )


def whole_estimate_lambda(first, second):
    """The former library margin estimate, kept as the reference of the blocked
    one: the second half's win sum over whole-record rank gathers and np.where."""
    n, total = first.n, first.total_comparisons() + second.total_comparisons()
    ranks, gap = borda_sort([first]).to_array(), n // 2
    ra, rb = ranks[second.first - 1], ranks[second.second - 1]
    win_sum = int(np.where(ra - rb > gap, second.first_wins, 0).sum())
    win_sum += int(np.where(rb - ra > gap, second.num - second.first_wins, 0).sum())
    raw = (2.0 / total) * math.comb(n, 2) / math.comb(gap, 2) * win_sum - 0.5
    return float(min(max(raw, LAMBDA_CLAMP), 0.5 - LAMBDA_CLAMP))


def inversion_binomial(count, p, uniforms):
    """numpy's Generator.binomial(count, p) on its inversion branch (min(p, 1 - p) *
    count <= 30), transcribed from its C source one value at a time: each uniform is
    the next of the iterator ``uniforms``, and a walk past the bound draws another."""
    v = p if p <= 0.5 else 1.0 - p
    assert v * count <= 30.0
    q = 1.0 - v
    qn, mean = math.exp(count * math.log(q)), count * v
    bound = int(min(count, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, qn, next(uniforms)
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, next(uniforms)
        else:
            u -= px
            px = ((count - x + 1) * v * px) / (x * q)
    return x if p <= 0.5 else count - x


def row_sample_without_replacement(pi_star, matrix, p, seed):
    """The former library sampler, kept as the reference of the one-draw
    sampler: a Bernoulli(p) draw per pair and a win draw, row by row."""
    n = pi_star.n
    rng = np.random.default_rng(seed)
    ranks = pi_star.to_array()
    firsts, seconds, winss = [], [], []
    for i in range(1, n):
        row_second = np.arange(i + 1, n + 1, dtype=np.int64)
        observed = rng.random(n - i) < p
        js = row_second[observed]
        firsts.append(np.full(len(js), i, dtype=np.int64))
        seconds.append(js)
        winss.append(rng.binomial(1, matrix.win_prob(ranks[i - 1], ranks[js - 1])))
    first, second, wins = (np.concatenate(a) if a else np.empty(0, dtype=np.int64)
                           for a in (firsts, seconds, winss))
    return ComparisonDataset(
        n=n, first=first, second=second, num=np.ones(len(first), dtype=np.int64),
        first_wins=wins, tag=SamplingTag(WITHOUT_REPLACEMENT, p), seed=seed,
    )


def _pair_items(n, cells):
    """The former library decoder, kept as the reference of model._to_offsets and
    model._first: (first, second), in _item_dtype(n), of ascending pair cells (uint32 or
    int64) numbered 0..C(n,2)-1 in (first, second) order, second as each cell plus its
    row's shift, model._WIN_CHUNK cells at a time.  The cells are not written."""
    item, offsets = _item_dtype(n), _row_starts(n)
    items = np.arange(1, n + 1, dtype=item)
    first = np.repeat(items, np.diff(np.searchsorted(cells, offsets.astype(cells.dtype))))
    # row i's shift, by item, wrapped to the item width: a cell plus its shift fits it exactly
    shift = np.concatenate(([0], items + 1 - offsets[:-1])).astype(item)
    second = np.empty(len(cells), dtype=item)
    for lo in range(0, len(cells), model._WIN_CHUNK):
        at = slice(lo, lo + model._WIN_CHUNK)
        np.add(shift.take(first[at]), cells[at], out=second[at], casting="unsafe")
    return first, second


def pair_cells(n, first, second):
    """The pair cells of (first, second): the inverse of _pair_items, in int64."""
    first, second = np.asarray(first, dtype=np.int64), np.asarray(second, dtype=np.int64)
    rows_before = first - 1  # they hold (n - 1) + ... + (n - rows_before) cells
    return rows_before * (2 * n - 1 - rows_before) // 2 + second - first - 1


def split_without_replacement(dataset, parts, seed):
    """The stages of a without-replacement dataset as the library builds them from its draw:
    cells_stages of its pair cells, one uniform label per pair drawn from ``seed``, each
    stage in (first, second) order and keyed derive_seed(seed, t)."""
    if dataset.tag.kind != WITHOUT_REPLACEMENT:
        raise ValueError("expected a without-replacement dataset")
    return cells_stages(dataset.n, pair_cells(dataset.n, dataset.first, dataset.second),
                        dataset.first_wins.astype(bool), dataset.tag.budget, parts, seed)


def cells_draw_pairs(pi_star, matrix, p, seed):
    """The former library draw, kept as the reference of the held compact draw: the ascending
    observed pair cells (uint32 while C(n,2) < 2**32, else int64) and whether ``first`` won
    each (bool), the gaps summed and the bits drawn model._WIN_CHUNK at a time."""
    n, chunk = pi_star.n, model._WIN_CHUNK
    num_cells = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    size = int(p * num_cells + 6 * math.sqrt(p * num_cells) + 10)
    rounds, last = [], -1
    while not rounds or last < num_cells - 1:
        cells, count = np.empty(size, dtype=np.uint32 if num_cells < 2**32 else np.int64), 0
        for lo in range(0, size, chunk):
            gaps = rng.geometric(p, size=min(chunk, size - lo))
            steps = np.cumsum(np.minimum(gaps, num_cells + 1, out=gaps), out=gaps)
            steps += last
            last, kept = int(steps[-1]), int(np.searchsorted(steps, num_cells))
            cells[count: count + kept] = steps[:kept]
            count += kept
        rounds.append(cells[:count])
    cells = rounds[0] if len(rounds) == 1 else np.concatenate(rounds)
    ranks = np.concatenate(([0], pi_star.to_array()))
    won = np.empty(len(cells), dtype=bool)
    for lo in range(0, len(cells), chunk):
        first, second = _pair_items(n, cells[lo: lo + chunk])
        won[lo: lo + len(first)] = rng.random(len(first)) < matrix.win_prob(
            ranks.take(first.astype(np.intp)), ranks.take(second.astype(np.intp)))
    return cells, won


def cells_stages(n, cells, won, p, parts, seed):
    """The former library stages of a cells draw: one uniform label per pair, drawn from
    ``seed``; stage t is the pairs labelled t, decoded from their cells and keyed
    derive_seed(seed, t), one stage or many."""
    def decode(part, bits, key):
        first, second = _pair_items(n, part)
        return ComparisonDataset(
            n=n, first=first, second=second, num=np.broadcast_to(np.int64(1), len(part)),
            first_wins=bits, tag=SamplingTag(WITHOUT_REPLACEMENT, p), seed=key)

    labels = np.random.default_rng(seed).integers(0, parts, size=len(cells),
                                                  dtype=np.min_scalar_type(parts - 1))
    return [decode(cells[labels == t], won[labels == t], derive_seed(seed, t))
            for t in range(parts)]


def multinomial_split_without_replacement(dataset, parts, seed):
    """The former library split, kept as the reference of the stage labels:
    wins and losses of every pair scattered by two multinomial draws."""
    rng = np.random.default_rng(seed)
    pvals = np.full(parts, 1.0 / parts)
    wins_split = rng.multinomial(dataset.first_wins, pvals).reshape(-1, parts)
    losses_split = rng.multinomial(dataset.num - dataset.first_wins, pvals).reshape(-1, parts)
    stages = []
    for t in range(parts):
        num = wins_split[:, t] + losses_split[:, t]
        keep = num > 0
        stages.append(ComparisonDataset(
            n=dataset.n, first=dataset.first[keep], second=dataset.second[keep], num=num[keep],
            first_wins=wins_split[keep, t], tag=dataset.tag, seed=derive_seed(seed, t),
        ))
    return stages


def whole_sample_without_replacement(pi_star, matrix, p, seed):
    """The former library sampler, kept as the reference of the chunked win
    draw: the Geometric(p) gaps summed in one call, every pair decoded at once
    and its win bit drawn in one call."""
    n = pi_star.n
    num_cells = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    size = int(p * num_cells + 6 * math.sqrt(p * num_cells) + 10)
    cells = np.cumsum(rng.geometric(p, size=size)) - 1
    while cells[-1] < num_cells - 1:
        cells = np.concatenate([cells, cells[-1] + np.cumsum(rng.geometric(p, size=size))])
    cells = cells[: np.searchsorted(cells, num_cells)]
    rows, cols = np.triu_indices(n, 1)
    first, second = rows[cells] + 1, cols[cells] + 1
    ranks = pi_star.to_array()
    wins = rng.random(len(first)) < matrix.win_prob(ranks[first - 1], ranks[second - 1])
    return ComparisonDataset(
        n=n, first=first.astype(np.int64), second=second.astype(np.int64),
        num=np.ones(len(first), dtype=np.int64), first_wins=wins.astype(np.int64),
        tag=SamplingTag(WITHOUT_REPLACEMENT, p), seed=seed,
    )


def sorted_split_without_replacement(dataset, parts, seed):
    """The former library split, kept as the reference of the streamed stages:
    one uniform label per pair, the pairs ordered stably by label, and each
    stage one slice of that order."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, parts, size=dataset.num_pairs, dtype=np.min_scalar_type(parts - 1))
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=parts))))
    first, second, wins = (a[order] for a in (dataset.first, dataset.second, dataset.first_wins))
    return [
        ComparisonDataset(
            n=dataset.n, first=first[lo:hi], second=second[lo:hi], num=dataset.num[lo:hi],
            first_wins=wins[lo:hi], tag=dataset.tag, seed=derive_seed(seed, t),
        )
        for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def write_pbm(mask, path):
    """The former dense region writer, kept as the reference of the row-block
    one: plain PBM (P1), one text row per matrix row, 1 = black = uncertain."""
    n_rows, n_cols = mask.shape
    buf = np.full((n_rows, 2 * n_cols), ord(" "), dtype=np.uint8)
    buf[:, 0::2] = ord("0") + mask.astype(np.uint8)
    buf[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"P1\n{n_cols} {n_rows}\n".encode())
        fh.write(buf.tobytes())


def loop_mle_objective(dataset, pi):
    """Total wins along the order ``pi``, summed over the dense win matrix."""
    a = wins_dense(dataset)
    ranks = pi.to_array()
    return int(a[ranks[:, None] > ranks[None, :]].sum())


def loop_mle(dataset, members):
    """Reference maximizer: one objective call per member, keeping the
    lexicographically smallest maximizer."""
    best, best_obj = None, -1
    for pi in members:
        obj = loop_mle_objective(dataset, pi)
        if obj > best_obj or (obj == best_obj and pi.map < best.map):
            best, best_obj = pi, obj
    return best


def loop_greedy_packing(n, epsilon, universe):
    """Reference greedy packing: one kendall_tau call per (candidate, kept member)."""
    kept = []
    for pi in universe:
        if all(kendall_tau(pi, member) > epsilon for member in kept):
            kept.append(pi)
    return PackingSet(n=n, epsilon=epsilon, members=tuple(kept))


def loop_sparse_vg_packing(n, r):
    """The former library sparse packing, kept as the reference of the greedy packing of
    the swap-code images: the greedy binary code over the r-sparse vectors of {0,1}^(n/2),
    scanned lexicographically, at Hamming distance >= ceil(r/2) from every kept vector."""
    min_dist, code = math.ceil(r / 2), []
    for vec in itertools.product((0, 1), repeat=n // 2):
        if sum(vec) <= r and all(sum(a != b for a, b in zip(vec, kept)) >= min_dist
                                 for kept in code):
            code.append(vec)
    return PackingSet(n=n, epsilon=min_dist - 1,
                      members=tuple(map(counting._swap_code_permutation, code)))


def dense_star_entries(n, lam):
    """The star law as a dense n x n matrix, built the way it once was stored:
    1/2 + lam below the diagonal, 1/2 - lam above, exactly 1/2 on it."""
    entries = np.full((n, n), 0.5 - lam)
    entries[np.tril_indices(n, -1)] = 0.5 + lam
    np.fill_diagonal(entries, 0.5)
    return entries


def make_dataset(n, records, kind=WITH_REPLACEMENT, budget=None, seed=0):
    """records: list of (first, second, num, first_wins) with first < second."""
    if records:
        first, second, num, wins = (np.array(col, dtype=np.int64) for col in zip(*records))
    else:
        first = second = num = wins = np.empty(0, dtype=np.int64)
    total = int(num.sum()) if len(num) else 0
    return ComparisonDataset(
        n=n, first=first, second=second, num=num, first_wins=wins,
        tag=SamplingTag(kind, budget if budget is not None else total), seed=seed,
    )


def noise_free_full(pi_star):
    """Every pair compared once, stronger item always wins."""
    n = pi_star.n
    records = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            records.append((i, j, 1, 1 if pi_star(i) > pi_star(j) else 0))
    return make_dataset(n, records)


def categorical_kl(p_vec, q_vec):
    p_vec = np.asarray(p_vec, dtype=float)
    q_vec = np.asarray(q_vec, dtype=float)
    mask = p_vec > 0
    return float(np.sum(p_vec[mask] * np.log(p_vec[mask] / q_vec[mask])))


def observation_kl_oracle(pi, sigma, kind, n, budget, lam):
    """KL between the two models' observation laws, built outcome by outcome.

    Without replacement: every pair contributes the KL of its three-outcome
    law (unobserved / first wins / second wins).  With replacement: one draw
    is a (pair, winner) categorical over 2*C(n,2) outcomes, and the budget
    multiplies because independent draws tensorize.
    """
    win_prob = {}
    for perm in (pi, sigma):
        probs = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                probs[(i, j)] = 0.5 + lam if perm(i) > perm(j) else 0.5 - lam
        win_prob[perm] = probs
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if kind == WITHOUT_REPLACEMENT:
        p = budget
        return sum(
            categorical_kl(
                [1 - p, p * win_prob[pi][pair], p * (1 - win_prob[pi][pair])],
                [1 - p, p * win_prob[sigma][pair], p * (1 - win_prob[sigma][pair])],
            )
            for pair in pairs
        )
    m = len(pairs)
    p_vec, q_vec = [], []
    for pair in pairs:
        a, b = win_prob[pi][pair], win_prob[sigma][pair]
        p_vec += [a / m, (1 - a) / m]
        q_vec += [b / m, (1 - b) / m]
    return budget * categorical_kl(p_vec, q_vec)


def dense_ms_states(stage_samples, lam_hat, config):
    """Reference multistage sorter holding the certainty partition as dense
    n x n bool matrices, copied every stage and re-derived row by row from
    the stage scores wherever the gate fires.

    Returns (ranks, states): the final ranks (ascending score, ties by item
    index) and, for stages 0..T, dicts of scores, gate_fired, uncertain,
    below and above.
    """
    n = stage_samples[0].n
    totals = [s.total_comparisons() for s in stage_samples]
    big_n = sum(totals)
    t_count = config.stages
    log_nt = math.log(n * t_count)
    gate_floor = estimators.GATE_C1 * n * n * t_count / big_n * log_nt
    tau_coeff = config.threshold_scale * 12.0 * n
    uncertain = np.ones((n, n), dtype=bool)
    below = np.zeros((n, n), dtype=bool)
    above = np.zeros((n, n), dtype=bool)
    states = [dict(scores=None, gate_fired=None, uncertain=uncertain, below=below, above=above)]
    for t, sample in enumerate(stage_samples, start=1):
        scale = math.comb(n, 2) / totals[t - 1]
        fi, se = sample.first - 1, sample.second - 1
        wins = sample.first_wins.astype(np.float64)
        losses = (sample.num - sample.first_wins).astype(np.float64)
        keep_f = uncertain[fi, se]
        keep_s = uncertain[se, fi]
        raw = np.bincount(fi[keep_f], weights=wins[keep_f], minlength=n)
        raw += np.bincount(se[keep_s], weights=losses[keep_s], minlength=n)
        scores = (
            scale * raw
            + (0.5 + lam_hat) * below.sum(axis=1)
            + (0.5 - lam_hat) * above.sum(axis=1)
        )
        sizes = uncertain.sum(axis=1)
        fired = sizes >= gate_floor
        tau = tau_coeff * np.sqrt(sizes * t_count / big_n * log_nt)
        uncertain, below, above = uncertain.copy(), below.copy(), above.copy()
        for i in np.flatnonzero(fired):
            diff = scores - scores[i]
            below[i] = diff < -tau[i]
            above[i] = diff > tau[i]
            uncertain[i] = ~(below[i] | above[i])
        states.append(dict(scores=scores, gate_fired=fired, uncertain=uncertain,
                           below=below, above=above))
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(scores, kind="stable")] = np.arange(1, n + 1)
    return ranks, states


def uncertain(state):
    """The dense n x n uncertain mask of an MsState: |fl(S_j - S_i)| <= tau[i]."""
    return state.uncertain_rows(slice(None))


def _score_gaps(state):
    """The dense n x n fl(S_j - S_i) of an MsState, S the scores of stage last[i]."""
    held = np.stack(state.history)[state.last]
    return held - np.diag(held)[:, None]


def certain_below(state):
    """The items certainly below each row of an MsState: fl(S_j - S_i) < -tau[i]."""
    return _score_gaps(state) < -state.tau[:, None]


def certain_above(state):
    """The items certainly above each row of an MsState: fl(S_j - S_i) > tau[i]."""
    return _score_gaps(state) > state.tau[:, None]
