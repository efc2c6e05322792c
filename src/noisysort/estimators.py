"""Estimators of the latent order: score-sort, margin estimation, multistage
sorting, and likelihood maximizers over permutation nets.

The multistage sorter works in stages over independent sub-samples.  Each
stage scores every item; once two items' scores separate by more than a
threshold, their relative order is marked certain and later stages replace
the corresponding noisy comparisons by their (estimated) expected values,
shrinking the score variance stage over stage.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import model
from .counting import PackingSet
from .errors import SizeMismatchError
from .model import WITH_REPLACEMENT, ComparisonDataset, StageSource
from .perms import Permutation, enumerate_maps, invert

LAMBDA_CLAMP = 1e-6

# Multiplier on the score-deviation threshold, as a fraction of the
# theoretical coefficient 12, and MsConfig's default.  1.0 is the literal
# theoretical value; it is provably inert at any feasible scale (the threshold
# then exceeds the entire score range), so the sorter runs with the calibrated
# value below, which keeps the threshold at ~5-6 standard deviations of score
# noise: conservative enough that certainty stays sound, small enough that
# stages actually resolve pairs.
CALIBRATED_THRESHOLD_SCALE = 0.125
# Gate constant c1: a stage re-decides item i's certainties only while its uncertain set
# is larger than c1 * n^2 * (T/N) * log(nT)
GATE_C1 = 8.0

# Candidates per numpy pass of the maximizers: memory stays a few (chunk x C(n,2)) arrays
_CANDIDATE_CHUNK = 4096


def _ranks_from_scores(scores: np.ndarray) -> Permutation:
    """Ascending score order, ties broken by ascending item index."""
    return invert(Permutation.from_array(np.argsort(scores, kind="stable") + 1))


def _win_sums(sample: ComparisonDataset, held: list[tuple[np.ndarray, np.ndarray]],
              sums: np.ndarray, pooled: np.ndarray | None = None) -> None:
    """Add each item's wins in ``sample`` against its open set into ``sums``, and against
    every item into ``pooled`` if given (n + 1 long, by item).  j is open for i iff
    |fl(score[j] - score[i])| <= limit[i] for each (score, limit) in ``held``.  Records
    are read in place, model._WIN_CHUNK at a time; the sums are of whole numbers: exact."""
    for lo in range(0, sample.num_pairs, model._WIN_CHUNK):
        fi, se, num, fw = (a[lo: lo + model._WIN_CHUNK] for a in (
            sample.first, sample.second, sample.num, sample.first_wins))
        fi, se = fi.astype(np.intp), se.astype(np.intp)  # int32 indices gather slowly
        open_fi = open_se = True  # whether each record is open for its fi's, se's row
        for score, limit in held:  # masks first: the weights are not yet held beside them
            gap = score[se]  # |fl(a-b)| = |fl(b-a)|, computed in place
            np.abs(np.subtract(gap, score[fi], out=gap), out=gap)
            open_fi, open_se = open_fi & (gap <= limit[fi]), open_se & (gap <= limit[se])
            del gap
        wins, losses = fw.astype(np.float64), np.subtract(num, fw, dtype=np.float64)
        if pooled is not None:  # every record, before the closed ones are zeroed
            pooled += np.bincount(fi, weights=wins, minlength=len(pooled))
            pooled += np.bincount(se, weights=losses, minlength=len(pooled))
        if held:  # closed records weigh 0.0, which changes no sum's bits
            wins *= open_fi
            losses *= open_se
        sums += np.bincount(fi, weights=wins, minlength=len(sums))
        sums += np.bincount(se, weights=losses, minlength=len(sums))
        del fi, se, wins, losses  # before the next block's are made


def borda_sort(samples: StageSource | Iterable[ComparisonDataset]) -> Permutation:
    """Rank items by their wins summed over the stages of ``samples``, weakest first:
    ms_sort's kernel with nothing held, one pass and no combined copy (StageSource.of)."""
    source = StageSource.of(samples)
    wins = np.zeros(source.n + 1)
    for stage in source:
        _win_sums(stage, [], wins)
        del stage  # stage t is released before t + 1 is built
    return _ranks_from_scores(wins[1:])


def estimate_lambda(halves: StageSource | Iterable[ComparisonDataset]) -> float:
    """Estimate the win margin from two independent with-replacement samples.

    Sorts items by win count in the first half; pairs separated by more
    than n/2 positions in that order are near-certainly ordered correctly, so
    their win frequency in the second concentrates at 1/2 + margin.  The
    win sum over those pairs is rescaled by the index-set size and recentred:

        lambda_hat = (2/N) * C(n,2) / C(n//2, 2) * win_sum - 1/2

    with N the combined size of the two halves.  The result is clamped into
    (1e-6, 1/2 - 1e-6) so downstream corrections stay well-defined.  The halves
    are one pass over StageSource.of(halves), the first ranked by borda_sort.
    """
    source = StageSource.of(halves)
    n, total = source.n, sum(source.counts)
    if n < 4 or len(source.counts) != 2:
        raise ValueError(f"margin estimation takes two samples of n >= 4, got "
                         f"{len(source.counts)} of n={n}")
    if total < 1:
        raise ValueError("empty samples")
    ranks = None
    for second in source:  # the first half is reduced to its ranks before the second is pulled
        if second.tag.kind != WITH_REPLACEMENT:
            raise ValueError("margin estimation expects with-replacement samples")
        if ranks is None:
            ranks, second = borda_sort([second]).to_array(), None
    gap, win_sum, ranks = n // 2, 0, np.concatenate(([0], ranks))  # by item, 1-based
    for lo in range(0, second.num_pairs, model._WIN_CHUNK):  # integer sums: blocks are exact
        fi, se, num, fw = (a[lo: lo + model._WIN_CHUNK] for a in (
            second.first, second.second, second.num, second.first_wins))
        d = ranks[fi.astype(np.intp)] - ranks[se.astype(np.intp)]
        win_sum += int(fw[d > gap].sum()) + int((num - fw)[-d > gap].sum())
    raw = (2.0 / total) * math.comb(n, 2) / math.comb(gap, 2) * win_sum - 0.5
    return float(min(max(raw, LAMBDA_CLAMP), 0.5 - LAMBDA_CLAMP))


@dataclass(frozen=True)
class MsConfig:
    """Settings of the multistage sorter; the CLI and the experiment harness set only
    ``stages`` and run the calibrated constants.

    stages: number of stages (each consumes one sub-sample).
    threshold_scale: multiplier on the threshold coefficient, by default
        CALIBRATED_THRESHOLD_SCALE (1.0 is the literal theoretical constant).
    """

    stages: int
    threshold_scale: float = CALIBRATED_THRESHOLD_SCALE

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if not 0 < self.threshold_scale < math.inf:  # NaN fails
            raise ValueError(f"threshold_scale must be finite and positive, "
                             f"got {self.threshold_scale}")


@dataclass(frozen=True, eq=False)
class MsState:
    """Snapshot of one stage: scores, gate outcome and certainty partition.

    Row i splits [n] into items certainly weaker than i (below), certainly
    stronger (above) and still open (uncertain, always holding i).  A row
    changes only when its gate fires, and is then re-derived from that stage's
    scores alone (so certain sets need not grow monotonically); per row the
    state keeps the stage ``last[i]`` of its last firing (0: never), that
    stage's ``tau[i]`` (+inf: never) and the certain-set sizes.  With S the
    scores of stage last[i], j is below i iff fl(S_j - S_i) < -tau[i] and
    above iff fl(S_j - S_i) > tau[i]: the very comparison that decided it, so
    ``uncertain_rows``, built on demand, is exact.  ``history`` holds the scores of
    stages 0..stage (stage 0 all zero, no ``scores``), shared between states.
    """

    stage: int
    history: tuple[np.ndarray, ...]
    last: np.ndarray
    tau: np.ndarray
    below_counts: np.ndarray
    above_counts: np.ndarray
    gate_fired: np.ndarray | None

    @property
    def n(self) -> int:
        return len(self.last)

    @property
    def scores(self) -> np.ndarray | None:
        return self.history[self.stage] if self.stage else None

    def region_size(self) -> int:
        """|{(i, j) : j still uncertain relative to i}|, diagonal included."""
        return self.n * self.n - int(self.below_counts.sum() + self.above_counts.sum())

    def uncertain_rows(self, rows: slice) -> np.ndarray:
        """The rows ``rows`` of the n x n uncertain mask, in O(rows x n) memory."""
        held = np.stack(self.history)[self.last[rows]]
        gaps = held - held[np.arange(len(held)), np.arange(self.n)[rows]][:, None]
        return np.abs(gaps) <= self.tau[rows, None]


def initial_ms_state(n: int) -> MsState:
    none = np.zeros(n, dtype=np.int64)  # never fired, nothing certain; read-only
    return MsState(stage=0, history=(np.zeros(n),), last=none, tau=np.full(n, np.inf),
                   below_counts=none, above_counts=none, gate_fired=None)


def _count_below(ordered: np.ndarray, centre: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Per entry r: #{x in sorted ``ordered`` : fl(x - centre[r]) < limit[r]}.

    fl(x - c) is monotone in x, so these x are a prefix.  searchsorted on the
    rounded bound c + limit lands within rounding of its end; the fix-up
    steps over runs of equal scores until the exact test agrees.
    """
    padded = np.concatenate(([-np.inf], ordered, [np.inf]))  # always / never below
    k = np.searchsorted(padded, centre + limit)
    while True:
        down = np.flatnonzero(padded[k - 1] - centre >= limit)
        k[down] = np.searchsorted(padded, padded[k[down] - 1])
        up = np.flatnonzero(padded[k] - centre < limit)
        k[up] = np.searchsorted(padded, padded[k[up]], side="right")
        if not (len(down) or len(up)):
            return k - 1


def ms_sort(
    stage_samples: StageSource | Iterable[ComparisonDataset],
    lambda_hat: float | None,
    config: MsConfig,
    totals: np.ndarray | None = None,
) -> tuple[Permutation, list[MsState]]:
    """Multistage sorting over per-stage comparison samples.

    Stage t scores item i as

        S_i = (C(n,2)/N_t) * sum of wins of i against its uncertain set
              + (1/2 + lambda_hat) * |certainly below|
              + (1/2 - lambda_hat) * |certainly above|

    then, where the uncertain set is still large enough (the gate), marks j
    certainly below/above i when S_j - S_i exits +-tau_i with

        tau_i = scale * 12 * n * sqrt(|uncertain_i| * T/N * log(nT));

    rows failing the gate carry their partition over unchanged.  The final
    permutation sorts the last scores ascending (ties by item index).
    Returns the permutation and the per-stage states, starting with the
    all-uncertain stage 0.

    One pass reads StageSource.of(stage_samples), whose counts give N before
    stage 1; stage t + 1 is pulled once stage t's records are dropped.  If given,
    ``totals`` (float64, length n) gains borda_sort's scores from the same pass (see
    _win_sums): free where no row holds a fired stage, two bincounts per block elsewhere.
    """
    source = StageSource.of(stage_samples)
    counts, t_count = source.counts, config.stages
    if len(counts) != t_count:
        raise ValueError(f"got {len(counts)} stage samples for {t_count} stages")
    if lambda_hat is None or not 0 < lambda_hat < 0.5:
        raise ValueError(f"need an estimated margin in (0, 1/2), got {lambda_hat}")
    n = source.n
    states = [initial_ms_state(n)]
    if n == 1:
        return Permutation.identity(1), states

    if min(counts) < 1:
        raise ValueError(f"stage {counts.index(min(counts)) + 1} sample has no comparisons")
    big_n = sum(counts)
    log_nt = math.log(n * t_count)
    gate_floor = GATE_C1 * n * n * t_count / big_n * log_nt
    tau_coeff = config.threshold_scale * 12.0 * n

    prev = states[0]
    stages = iter(source)
    for t, n_t in enumerate(counts, start=1):
        sample = next(stages, None)  # pulled with no record of stage t - 1 alive
        if sample is None:
            raise ValueError(f"got {t - 1 or 'no'} stage samples for {t_count} stages")
        if sample.n != n:
            raise SizeMismatchError("samples disagree on n")
        if sample.tag.kind == WITH_REPLACEMENT and max(counts) - min(counts) > 1:
            raise ValueError(f"stage budgets differ by more than one: {list(counts)}")
        if sample.total_comparisons() != n_t:
            raise ValueError(f"stage {t} holds {sample.total_comparisons()} comparisons, not {n_t}")
        scale = math.comb(n, 2) / n_t
        # per held stage s: its scores, and tau of the rows holding it (others inf), padded at 0
        held = [(np.concatenate(([0.0], prev.history[s])),
                 np.concatenate(([np.inf], np.where(prev.last == s, prev.tau, np.inf))))
                for s in np.unique(prev.last[prev.last > 0])]
        raw = np.zeros(n + 1)
        pooled = np.zeros(n + 1) if held and totals is not None else None
        _win_sums(sample, held, raw, pooled)
        del sample  # none of stage t lives on into t + 1
        if totals is not None:  # with nothing held every record is open: raw is the pooled sum
            totals += (raw if pooled is None else pooled)[1:]
        scores = (
            scale * raw[1:]
            + (0.5 + lambda_hat) * prev.below_counts
            + (0.5 - lambda_hat) * prev.above_counts
        )

        sizes_prev = n - prev.below_counts - prev.above_counts
        fired = sizes_prev >= gate_floor
        tau = tau_coeff * np.sqrt(sizes_prev * t_count / big_n * log_nt)
        rows = np.flatnonzero(fired)
        ordered = np.sort(scores)
        below = prev.below_counts.copy()
        below[rows] = _count_below(ordered, scores[rows], -tau[rows])
        above = prev.above_counts.copy()
        # fl(S_j - S_i) > tau iff fl((-S_j) - (-S_i)) < -tau: rounding is symmetric
        above[rows] = _count_below(-ordered[::-1], -scores[rows], -tau[rows])
        prev = MsState(stage=t, history=prev.history + (scores,),
                       last=np.where(fired, t, prev.last), tau=np.where(fired, tau, prev.tau),
                       below_counts=below, above_counts=above, gate_fired=fired)
        states.append(prev)
    if next(stages, None) is not None:
        raise ValueError(f"more than {t_count} stage samples")
    return _ranks_from_scores(scores), states


def _best_candidate(
    samples: Iterable[ComparisonDataset], maps: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], int]:
    """The one-line map maximizing the objective summed over ``samples``, and
    the maximum; ties go to the lexicographically smallest map, whatever the
    candidate order.  Candidates are scored as stacked rank vectors, and
    ``samples`` is read once per chunk of them."""
    best: tuple[int, ...] | None = None
    best_obj = -1
    maps = iter(maps)
    while chunk := list(itertools.islice(maps, _CANDIDATE_CHUNK)):
        ranks = np.array(chunk, dtype=np.int64)
        objective = np.zeros(len(chunk), dtype=np.int64)
        for s in samples:
            ahead = ranks[:, s.first - 1] > ranks[:, s.second - 1]
            objective += np.where(ahead, s.first_wins, s.num - s.first_wins).sum(axis=1)
        top = int(objective.max())
        if top >= best_obj:
            tied = [chunk[k] for k in np.flatnonzero(objective == top)]
            if top == best_obj:
                tied.append(best)
            best, best_obj = min(tied), top
    assert best is not None
    return best, best_obj


def brute_force_mle(samples: StageSource | Iterable[ComparisonDataset]) -> Permutation:
    """Exhaustive maximizer of the objective summed over ``samples`` (no combined
    copy is built); ties go to the lexicographically smallest one-line map."""
    source = StageSource.of(samples)
    return Permutation(_best_candidate(source, enumerate_maps(source.n))[0])


def sieve_mle(samples: StageSource | Iterable[ComparisonDataset], net: PackingSet) -> Permutation:
    """Maximizer of the objective summed over ``samples``, restricted to a net
    of the permutation space; ties resolve to the lexicographically smallest
    maximizer regardless of member order."""
    samples = StageSource.of(samples)
    if net.n != samples.n:
        raise SizeMismatchError(f"net n={net.n} vs dataset n={samples.n}")
    if not net.members:
        raise ValueError("empty net")
    return Permutation(_best_candidate(samples, (pi.map for pi in net.members))[0])
