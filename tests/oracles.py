"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes expected values from first principles
(enumeration, direct summation, explicit distributions) so the tests never
trust the code paths they check.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from noisysort.counting import PackingSet
from noisysort.errors import SizeMismatchError
from noisysort.model import WITH_REPLACEMENT, WITHOUT_REPLACEMENT, ComparisonDataset, SamplingTag
from noisysort.perms import kendall_tau


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
    if kind == WITH_REPLACEMENT and budget != dataset.total_comparisons():
        raise ValueError(f"header budget {budget} but {dataset.total_comparisons()} comparisons")
    if kind == WITHOUT_REPLACEMENT and (not 0 < budget <= 1 or np.any(num != 1)):
        raise ValueError("without-replacement data needs p in (0, 1] and one comparison per pair")
    return dataset


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
    entries = matrix.dense()
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
    first = np.concatenate([d.first for d in datasets])
    second = np.concatenate([d.second for d in datasets])
    num = np.concatenate([d.num for d in datasets])
    wins = np.concatenate([d.first_wins for d in datasets])
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
    gate_floor = config.c1 * n * n * t_count / big_n * log_nt
    tau_coeff = config.threshold_scale * (10.0 + 2.0 * config.c0) * n
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
