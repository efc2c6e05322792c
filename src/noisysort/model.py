"""Comparison laws and comparison-data generation.

A law gives the win probability of any two ranks; the star law is closed
form and stores no n x n table (see ``ProbabilityMatrix``).

Two sampling schemes produce a ``ComparisonDataset``:

* without replacement: every unordered pair is observed once with
  probability p, independently;
* with replacement: a fixed number N of comparisons, each between a
  uniformly drawn pair.

Datasets store one record per compared unordered pair (i < j): the number of
comparisons and how many the smaller-index item won.  This matches the file
format, keeps memory proportional to the number of distinct compared pairs,
and makes the win-matrix identity A[i,j] + A[j,i] = N[i,j] true by
construction.  Generation is keyed entirely by (parameters, seed): the same
seed reproduces the dataset bit for bit.
"""

from __future__ import annotations

import io
import re
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
    """A win-probability law on n ranked items with margin ``lam`` around 1/2.

    ``win_prob(i, j)`` is the probability that the rank-i item beats the
    rank-j item: at least 1/2 + lam when i > j (stronger items rank higher),
    one minus that when i < j, exactly 1/2 when i == j.  ``entries`` is the
    table it reads.  For a general member of the class that is the n x n
    matrix, entries[i-1, j-1], checked for membership once at construction.
    For the star law it is the three values (1/2 - lam, 1/2, 1/2 + lam),
    indexed by sign(i - j) + 1, so the law takes O(1) memory at any n.
    ``dense()`` builds the n x n matrix of either on demand.
    """

    n: int
    lam: float
    entries: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.lam < 0.5:
            raise ValueError(f"lam must lie in (0, 1/2), got {self.lam}")
        if self.entries.ndim == 1:
            star = np.array([0.5 - self.lam, 0.5, 0.5 + self.lam])
            err = None if np.array_equal(self.entries, star) else "1-D table is not the star law"
        elif self.entries.shape != (self.n, self.n):
            err = f"shape {self.entries.shape} for n={self.n}"
        else:
            err = membership_violation(self.entries, self.lam)
        if err is not None:
            raise ValueError(f"matrix not in the margin-{self.lam} class: {err}")

    def win_prob(self, rank_i: np.ndarray, rank_j: np.ndarray) -> np.ndarray:
        """P(the rank_i item beats the rank_j item), elementwise (1-indexed ranks)."""
        if self.entries.ndim == 1:
            return self.entries[np.sign(rank_i - rank_j) + 1]
        return self.entries[rank_i - 1, rank_j - 1]

    def dense(self) -> np.ndarray:
        """The n x n matrix of win_prob (memory n^2; intended for small n)."""
        ranks = np.arange(1, self.n + 1)
        return self.win_prob(ranks[:, None], ranks[None, :])


def membership_violation(entries: np.ndarray, lam: float) -> str | None:
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


def star_matrix(n: int, lam: float) -> ProbabilityMatrix:
    """The canonical law: the stronger item wins with probability 1/2 + lam."""
    return ProbabilityMatrix(n=n, lam=lam, entries=np.array([0.5 - lam, 0.5, 0.5 + lam]))


def random_member_matrix(n: int, lam: float, eta: float, seed: int) -> ProbabilityMatrix:
    """A randomized member of the margin-``lam`` class.

    Below-diagonal entries are 1/2 + lam + U * (1/2 - lam - eta) with U
    uniform on [0, 1]; eta keeps them away from 1.  Useful for robustness
    tests of estimators that only assume the margin class.
    """
    if not 0 <= eta < 0.5 - lam:
        raise ValueError(f"need 0 <= eta < 1/2 - lam, got eta={eta}")
    rng = np.random.default_rng(seed)
    entries = np.full((n, n), 0.5)
    lower = np.tril_indices(n, -1)
    entries[lower] = 0.5 + lam + rng.random(len(lower[0])) * (0.5 - lam - eta)
    entries[lower[1], lower[0]] = 1.0 - entries[lower]
    return ProbabilityMatrix(n=n, lam=lam, entries=entries)


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


@dataclass(frozen=True, eq=False)
class ComparisonDataset:
    """Outcomes of pairwise comparisons among n items.

    Parallel arrays hold one entry per compared unordered pair: items
    ``first < second`` (1-indexed), the comparison count, and how many of
    those ``first`` won.  Pairs are stored sorted by (first, second).
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
        if len(f) and (
            np.any(f >= s) or np.any(f < 1) or np.any(s > self.n)
            or np.any(m < 1) or np.any(w < 0) or np.any(w > m)
        ):
            raise ValueError("invalid pair record (ordering, range, or win count)")

    @property
    def num_pairs(self) -> int:
        return len(self.first)

    def total_comparisons(self) -> int:
        return int(self.num.sum()) if len(self.num) else 0

    def win_totals(self) -> np.ndarray:
        """Total wins per item (length n, index = item - 1)."""
        totals = np.bincount(self.first - 1, weights=self.first_wins, minlength=self.n)
        totals += np.bincount(
            self.second - 1, weights=self.num - self.first_wins, minlength=self.n
        )
        return totals.astype(np.int64)

    def same_data(self, other: "ComparisonDataset") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.first, other.first)
            and np.array_equal(self.second, other.second)
            and np.array_equal(self.num, other.num)
            and np.array_equal(self.first_wins, other.first_wins)
        )


def _sorted_pair_dataset(
    n: int,
    first: np.ndarray,
    second: np.ndarray,
    num: np.ndarray,
    wins: np.ndarray,
    tag: SamplingTag,
    seed: int,
) -> ComparisonDataset:
    """The records with num > 0, of pairs already strictly increasing in (first, second)."""
    keep = num > 0
    return ComparisonDataset(
        n=n,
        first=first[keep].astype(np.int64, copy=False),
        second=second[keep].astype(np.int64, copy=False),
        num=num[keep].astype(np.int64, copy=False),
        first_wins=wins[keep].astype(np.int64, copy=False),
        tag=tag,
        seed=seed,
    )


def sample_without_replacement(
    pi_star: Permutation, matrix: ProbabilityMatrix, p: float, seed: int
) -> ComparisonDataset:
    """Observe each unordered pair once with probability ``p``.

    Draws go row by row (pairs (i, i+1), ..., (i, n) for i = 1..n-1), which
    pins the consumption order of the random stream.
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    n = pi_star.n
    if matrix.n != n:
        raise SizeMismatchError(f"matrix n={matrix.n} vs permutation n={n}")
    rng = np.random.default_rng(seed)
    ranks = pi_star.to_array()
    firsts, seconds, winss = [], [], []
    for i in range(1, n):
        row_second = np.arange(i + 1, n + 1, dtype=np.int64)
        observed = rng.random(n - i) < p
        if not observed.any():
            continue
        js = row_second[observed]
        q = matrix.win_prob(ranks[i - 1], ranks[js - 1])
        wins = rng.binomial(1, q)
        firsts.append(np.full(len(js), i, dtype=np.int64))
        seconds.append(js)
        winss.append(wins)
    if firsts:
        first = np.concatenate(firsts)
        second = np.concatenate(seconds)
        wins = np.concatenate(winss)
    else:
        first = second = wins = np.empty(0, dtype=np.int64)
    return _sorted_pair_dataset(
        n, first, second, np.ones(len(first), dtype=np.int64), wins,
        SamplingTag(WITHOUT_REPLACEMENT, p), seed,
    )


def _pair_row_offsets(n: int) -> np.ndarray:
    """offsets[i] = number of pairs (a, b), a < b, with a <= i (1-indexed i)."""
    counts = np.arange(n - 1, -1, -1, dtype=np.int64)  # row i has n - i pairs
    return np.concatenate(([0], np.cumsum(counts)))


def sample_with_replacement(
    pi_star: Permutation, matrix: ProbabilityMatrix, total: int, seed: int
) -> ComparisonDataset:
    """Draw ``total`` comparisons between uniformly random pairs."""
    if total < 1:
        raise ValueError(f"need at least one comparison, got {total}")
    n = pi_star.n
    if matrix.n != n:
        raise SizeMismatchError(f"matrix n={matrix.n} vs permutation n={n}")
    if n < 2:
        raise ValueError("need n >= 2 to compare anything")
    num_cells = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, num_cells, size=total)
    idx, counts = np.unique(cells, return_counts=True)
    offsets = _pair_row_offsets(n)
    first = np.searchsorted(offsets, idx, side="right").astype(np.int64)
    second = (idx - offsets[first - 1] + first + 1).astype(np.int64)
    ranks = pi_star.to_array()
    q = matrix.win_prob(ranks[first - 1], ranks[second - 1])
    wins = rng.binomial(counts, q)
    return _sorted_pair_dataset(
        n, first, second, counts, wins, SamplingTag(WITH_REPLACEMENT, total), seed,
    )


def stage_budgets(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal budgets.

    The remainder is distributed one comparison per part to the first
    total % parts parts.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    base, rem = divmod(total, parts)
    return [base + (1 if t < rem else 0) for t in range(parts)]


def split_with_replacement(
    pi_star: Permutation,
    matrix: ProbabilityMatrix,
    budgets: list[int],
    master_seed: int,
) -> list[ComparisonDataset]:
    """Independent with-replacement datasets, one per budget entry.

    All share pi_star and the matrix; dataset k uses the child seed derived
    from (master_seed, k), so the streams are independent and auditable.
    """
    if not budgets or any(b < 1 for b in budgets):
        raise ValueError(f"budgets must be positive, got {budgets}")
    return [
        sample_with_replacement(pi_star, matrix, b, derive_seed(master_seed, k))
        for k, b in enumerate(budgets)
    ]


def split_without_replacement(
    dataset: ComparisonDataset, parts: int, seed: int
) -> list[ComparisonDataset]:
    """Assign each observed comparison to one of ``parts`` buckets uniformly.

    Win and loss outcomes of every pair are multinomially scattered, so
    per-pair counts across buckets sum to the originals and wins partition
    likewise.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    if dataset.tag.kind != WITHOUT_REPLACEMENT:
        raise ValueError("expected a without-replacement dataset")
    if parts == 1:
        return [dataset]
    rng = np.random.default_rng(seed)
    pvals = np.full(parts, 1.0 / parts)
    if dataset.num_pairs:
        wins_split = rng.multinomial(dataset.first_wins, pvals)
        losses_split = rng.multinomial(dataset.num - dataset.first_wins, pvals)
    else:
        wins_split = losses_split = np.zeros((0, parts), dtype=np.int64)
    out = []
    for t in range(parts):
        wins_t = wins_split[:, t]
        num_t = wins_t + losses_split[:, t]
        out.append(_sorted_pair_dataset(
            dataset.n, dataset.first, dataset.second, num_t, wins_t,
            dataset.tag, derive_seed(seed, t),
        ))
    return out


def relabel_items(dataset: ComparisonDataset, rho: Permutation) -> ComparisonDataset:
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
    return _sorted_pair_dataset(
        dataset.n, first[order], second[order], dataset.num[order], wins[order],
        dataset.tag, dataset.seed,
    )


def write_dataset(dataset: ComparisonDataset, path: str | Path) -> None:
    """Write the documented text format.

    Header: ``n model_tag budget seed``; then one line ``i j N_ij A_ij``
    per ordered pair with N_ij > 0, 1-indexed, sorted by (i, j).
    """
    f, s, m, w = dataset.first, dataset.second, dataset.num, dataset.first_wins
    rows = np.concatenate([np.stack([f, s, m, w], axis=1), np.stack([s, f, m, m - w], axis=1)])
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    header = f"{dataset.n} {dataset.tag.kind} {dataset.tag.budget_str()} {dataset.seed}\n"
    Path(path).write_text(header + ("%d %d %d %d\n" * len(rows)) % tuple(rows.ravel().tolist()))


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _int64(token: str) -> int | None:
    """``token`` as an int64 under np.loadtxt's rule for a record token
    (optional sign, ASCII decimal digits), or None if it breaks that rule."""
    if _DECIMAL.fullmatch(token) and -2**63 <= int(token) < 2**63:
        return int(token)
    return None


def read_dataset(path: str | Path) -> ComparisonDataset:
    """Read the write_dataset format; ValueError on any inconsistent file.

    Every line after the header must be exactly four integers: blank and
    ``#`` lines are errors, not skipped.  The header's n and with-replacement
    budget follow the records' integer rule (ASCII decimal int64), and its
    seed the same digits at any size; a bad record line is reported by its
    line number in the file.
    """
    text = Path(path).read_text()
    skipped = text.count("\n", 0, len(text) - len(text.lstrip()))  # lines before the header
    text = text.strip()
    if not text:
        raise ValueError(f"empty dataset file {path}")
    header, _, body = text.partition("\n")
    head = header.split()
    if len(head) != 4:
        raise ValueError(f"bad header in {path!s}: {header!r}")
    n, kind = _int64(head[0]), head[1]
    # seeds such as derive_seed's reach 2**64: only the records' digit syntax applies
    seed = int(head[3]) if _DECIMAL.fullmatch(head[3]) else None
    budget = _int64(head[2]) if kind == WITH_REPLACEMENT else float(head[2])
    if n is None or seed is None or budget is None:
        raise ValueError(f"bad header in {path!s}: {header!r}")
    if n < 1:
        raise ValueError(f"bad header in {path!s}: n must be >= 1, got {n}")
    rows = np.empty((0, 4), dtype=np.int64)
    if body:  # loadtxt warns on no data and skips blank lines: count the lines it parsed
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            rows = None
        if rows is None or rows.shape != (body.count("\n") + 1, 4):
            for line_no, line in enumerate(body.split("\n"), start=skipped + 2):
                tokens = line.split()
                if len(tokens) != 4 or any(_int64(t) is None for t in tokens):
                    raise ValueError(f"{path!s}, line {line_no}: a record line must be "
                                     f"four integers, got {line!r}")
            raise ValueError(f"every record line of {path!s} must be four integers")
    i, j, m, a = rows.T
    # both lines of a pair state (count, wins of the smaller index)
    fwd = i < j
    first, second, wins = np.where(fwd, i, j), np.where(fwd, j, i), np.where(fwd, a, m - a)
    order = np.lexsort((second, first))
    first, second, num, wins = first[order], second[order], m[order], wins[order]
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
    if kind == WITH_REPLACEMENT and budget != dataset.total_comparisons():
        raise ValueError(f"header budget {budget} but {dataset.total_comparisons()} comparisons")
    if kind == WITHOUT_REPLACEMENT and (not 0 < budget <= 1 or np.any(num != 1)):
        raise ValueError("without-replacement data needs p in (0, 1] and one comparison per pair")
    return dataset
