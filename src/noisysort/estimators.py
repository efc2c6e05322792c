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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .counting import PackingSet
from .errors import SizeMismatchError
from .model import WITH_REPLACEMENT, WITHOUT_REPLACEMENT, ComparisonDataset
from .perms import ENUMERATION_CAP, Permutation, enumerate_permutations

LAMBDA_CLAMP = 1e-6

# Multiplier on the score-deviation threshold, as a fraction of the
# theoretical coefficient (10 + 2*c0).  1.0 is the literal theoretical value;
# it is provably inert at any feasible scale (the threshold then exceeds the
# entire score range), so the harness runs with the calibrated value below,
# which keeps the threshold at ~5-6 standard deviations of score noise:
# conservative enough that certainty stays sound, small enough that stages
# actually resolve pairs.
CALIBRATED_THRESHOLD_SCALE = 0.125

# Candidates per numpy pass of the maximizers: memory stays a few (chunk x C(n,2)) arrays
_CANDIDATE_CHUNK = 4096


def _ranks_from_scores(scores: np.ndarray) -> Permutation:
    """Ascending score order, ties broken by ascending item index."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.arange(1, len(scores) + 1)
    return Permutation.from_array(ranks)


def _sample_n(samples: Sequence[ComparisonDataset]) -> int:
    """The n shared by a non-empty sequence of samples."""
    if not samples:
        raise ValueError("no samples")
    n = samples[0].n
    if any(s.n != n for s in samples):
        raise SizeMismatchError("samples disagree on n")
    return n


def borda_sort(samples: Sequence[ComparisonDataset]) -> Permutation:
    """Rank items by their win totals summed over ``samples`` (no combined copy
    of the samples is built), weakest first."""
    _sample_n(samples)
    return _ranks_from_scores(sum(s.win_totals() for s in samples).astype(np.float64))


def estimate_lambda(sample1: ComparisonDataset, sample2: ComparisonDataset) -> float:
    """Estimate the win margin from two independent with-replacement samples.

    Sorts items by win count in ``sample1``; pairs separated by more than
    n/2 positions in that order are near-certainly ordered correctly, so
    their win frequency in ``sample2`` concentrates at 1/2 + margin.  The
    win sum over those pairs is rescaled by the index-set size and recentred:

        lambda_hat = (2/N) * C(n,2) / C(n//2, 2) * win_sum - 1/2

    with N the combined size of the two samples.  The result is clamped into
    (1e-6, 1/2 - 1e-6) so downstream corrections stay well-defined.
    """
    n = _sample_n([sample1, sample2])
    if n < 4:
        raise ValueError(f"margin estimation needs n >= 4, got n={n}")
    for s in (sample1, sample2):
        if s.tag.kind != WITH_REPLACEMENT:
            raise ValueError("margin estimation expects with-replacement samples")
    total = sample1.total_comparisons() + sample2.total_comparisons()
    if total < 1:
        raise ValueError("empty samples")
    gap = n // 2
    norm = math.comb(gap, 2)
    if norm == 0:
        raise ValueError(f"n={n} leaves no pairs beyond the n/2 rank gap")
    ranks = borda_sort([sample1]).to_array()
    ra = ranks[sample2.first - 1]
    rb = ranks[sample2.second - 1]
    win_sum = int(np.where(ra - rb > gap, sample2.first_wins, 0).sum())
    win_sum += int(np.where(rb - ra > gap, sample2.num - sample2.first_wins, 0).sum())
    raw = (2.0 / total) * math.comb(n, 2) / norm * win_sum - 0.5
    return float(min(max(raw, LAMBDA_CLAMP), 0.5 - LAMBDA_CLAMP))


@dataclass(frozen=True)
class MsConfig:
    """Tuning knobs of the multistage sorter.

    stages: number of stages (each consumes one sub-sample).
    c0: margin-estimation deviation constant; enters the score threshold
        through the coefficient (10 + 2*c0).
    c1: gate constant; a stage only re-decides certainties for item i when
        its uncertain set is still larger than c1 * n^2 * (T/N) * log(nT).
    threshold_scale: multiplier on the threshold coefficient (see
        CALIBRATED_THRESHOLD_SCALE; 1.0 is the literal theoretical constant).
    """

    stages: int
    c0: float = 1.0
    c1: float = 8.0
    threshold_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if self.c0 <= 0 or self.c1 <= 0 or self.threshold_scale <= 0:
            raise ValueError("constants must be positive")


@dataclass(frozen=True, eq=False)
class MsState:
    """Snapshot of one stage: scores, gate outcome and certainty partition.

    Row i splits [n] into items certainly weaker than i (``below``),
    certainly stronger (``above``) and still open (``uncertain``, always
    holding i).  A row changes only when its gate fires, and is then
    re-derived from that stage's scores alone (so certain sets need not grow
    monotonically); per row the state keeps the stage ``last[i]`` of its last
    firing (0: never), that stage's ``tau[i]`` (+inf: never) and the
    certain-set sizes.  With S the scores of stage last[i], j is below i iff
    fl(S_j - S_i) < -tau[i] and above iff fl(S_j - S_i) > tau[i]: the very
    comparison that decided it, so the dense views built on demand are exact.
    ``history`` holds the scores of stages 0..stage (stage 0 all zero, no
    ``scores``), shared between states.
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

    def _gaps(self) -> np.ndarray:
        held = np.stack(self.history)[self.last]
        return held - held.diagonal()[:, None]

    @property
    def below(self) -> np.ndarray:
        return self._gaps() < -self.tau[:, None]

    @property
    def above(self) -> np.ndarray:
        return self._gaps() > self.tau[:, None]

    @property
    def uncertain(self) -> np.ndarray:
        return np.abs(self._gaps()) <= self.tau[:, None]


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
    stage_samples: list[ComparisonDataset],
    lambda_hat: float | None,
    config: MsConfig,
) -> tuple[Permutation, list[MsState]]:
    """Multistage sorting over per-stage comparison samples.

    Stage t scores item i as

        S_i = (C(n,2)/N_t) * sum of wins of i against its uncertain set
              + (1/2 + lambda_hat) * |certainly below|
              + (1/2 - lambda_hat) * |certainly above|

    then, where the uncertain set is still large enough (the gate), marks j
    certainly below/above i when S_j - S_i exits +-tau_i with

        tau_i = scale * (10 + 2*c0) * n * sqrt(|uncertain_i| * T/N * log(nT));

    rows failing the gate carry their partition over unchanged.  The final
    permutation sorts the last scores ascending (ties by item index).
    Returns the permutation and the per-stage states, starting with the
    all-uncertain stage 0.
    """
    if len(stage_samples) != config.stages:
        raise ValueError(
            f"got {len(stage_samples)} stage samples for {config.stages} stages"
        )
    n = _sample_n(stage_samples)
    if lambda_hat is None or not 0 < lambda_hat < 0.5:
        raise ValueError(f"need an estimated margin in (0, 1/2), got {lambda_hat}")

    states = [initial_ms_state(n)]
    if n == 1:
        return Permutation.identity(1), states

    totals = [s.total_comparisons() for s in stage_samples]
    if all(s.tag.kind == WITH_REPLACEMENT for s in stage_samples):
        if max(totals) - min(totals) > 1:
            raise ValueError(f"stage budgets differ by more than one: {totals}")
    big_n = sum(totals)
    if big_n < 1:
        raise ValueError("no comparisons across stages")
    t_count = config.stages
    log_nt = math.log(n * t_count)
    gate_floor = config.c1 * n * n * t_count / big_n * log_nt
    tau_coeff = config.threshold_scale * (10.0 + 2.0 * config.c0) * n

    prev = states[0]
    for t, sample in enumerate(stage_samples, start=1):
        n_t = totals[t - 1]
        if n_t < 1:
            raise ValueError(f"stage {t} sample has no comparisons")
        scale = math.comb(n, 2) / n_t
        fi = sample.first - 1
        se = sample.second - 1
        wins = sample.first_wins.astype(np.float64)
        losses = (sample.num - sample.first_wins).astype(np.float64)
        # j is open for i iff |fl(S_j - S_i)| <= tau_i at stage last[i]
        past = np.stack(prev.history)
        at_f, at_s = prev.last[fi], prev.last[se]
        keep_f = np.abs(past[at_f, se] - past[at_f, fi]) <= prev.tau[fi]
        keep_s = np.abs(past[at_s, fi] - past[at_s, se]) <= prev.tau[se]
        raw = np.bincount(fi[keep_f], weights=wins[keep_f], minlength=n)
        raw += np.bincount(se[keep_s], weights=losses[keep_s], minlength=n)
        scores = (
            scale * raw
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
        prev = MsState(
            stage=t,
            history=prev.history + (scores,),
            last=np.where(fired, t, prev.last),
            tau=np.where(fired, tau, prev.tau),
            below_counts=below,
            above_counts=above,
            gate_fired=fired,
        )
        states.append(prev)

    return _ranks_from_scores(scores), states


def _best_candidate(
    samples: Sequence[ComparisonDataset], candidates: Iterable[Permutation]
) -> tuple[Permutation, int]:
    """The candidate maximizing the objective summed over ``samples``, and the
    maximum; ties go to the lexicographically smallest one-line map, whatever
    the candidate order.  Candidates are scored as stacked rank vectors."""
    best: Permutation | None = None
    best_obj = -1
    candidates = iter(candidates)
    while chunk := list(itertools.islice(candidates, _CANDIDATE_CHUNK)):
        ranks = np.array([pi.map for pi in chunk], dtype=np.int64)
        objective = np.zeros(len(chunk), dtype=np.int64)
        for s in samples:
            ahead = ranks[:, s.first - 1] > ranks[:, s.second - 1]
            objective += np.where(ahead, s.first_wins, s.num - s.first_wins).sum(axis=1)
        top = int(objective.max())
        if top >= best_obj:
            tied = [chunk[k] for k in np.flatnonzero(objective == top)]
            if top == best_obj:
                tied.append(best)
            best, best_obj = min(tied, key=lambda pi: pi.map), top
    assert best is not None
    return best, best_obj


def mle_objective(dataset: ComparisonDataset, pi: Permutation) -> int:
    """Total wins along the order ``pi``: sum of A[i, j] over pi(i) > pi(j)."""
    if pi.n != dataset.n:
        raise SizeMismatchError(f"permutation n={pi.n} vs dataset n={dataset.n}")
    return _best_candidate([dataset], [pi])[1]


def brute_force_mle(samples: Sequence[ComparisonDataset],
                    cap: int = ENUMERATION_CAP) -> Permutation:
    """Exhaustive maximizer of the objective summed over ``samples`` (no combined
    copy is built); ties go to the lexicographically smallest one-line map."""
    return _best_candidate(samples, enumerate_permutations(_sample_n(samples), cap=cap))[0]


def sieve_mle(samples: Sequence[ComparisonDataset], net: PackingSet) -> Permutation:
    """Maximizer of the objective summed over ``samples``, restricted to a net
    of the permutation space; ties resolve to the lexicographically smallest
    maximizer regardless of member order."""
    n = _sample_n(samples)
    if net.n != n:
        raise SizeMismatchError(f"net n={net.n} vs dataset n={n}")
    if not net.members:
        raise ValueError("empty net")
    return _best_candidate(samples, net.members)[0]


def theoretical_phi(kind: str, n: int, budget: float, lam: float) -> float:
    """Net radius for the sieve estimator: n/(p lam^2) or n^3/(N lam^2)."""
    if not 0 < lam < 0.5:
        raise ValueError(f"lam must lie in (0, 1/2), got {lam}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if kind == WITH_REPLACEMENT:
        return n ** 3 / (budget * lam ** 2)
    if kind == WITHOUT_REPLACEMENT:
        return n / (budget * lam ** 2)
    raise ValueError(f"unknown sampling kind {kind!r}")
