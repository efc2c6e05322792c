"""Experiment orchestration: seeded grids of simulated instances, estimator
runs, CSV emission, and uncertainty-region bitmaps.

Every (grid cell, replicate) pair gets its own seed derived from the master
seed, so replicates can run on any number of workers and still produce
byte-identical output: rows are sorted into a canonical order before they
are written.  Wall-clock timings are kept out of the canonical CSV (they are
not reproducible) and can be written to a sidecar file instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .counting import PackingSet, greedy_maximal_packing
from .errors import ResourceCapError, check_physical_memory
from .estimators import (
    MsConfig,
    MsState,
    _ranks_from_scores,
    borda_sort,
    brute_force_mle,
    estimate_lambda,
    ms_sort,
    sieve_mle,
)
from .model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ProbabilityMatrix,
    StageSource,
    _WIN_CHUNK,
    _WRITE_BLOCK_ROWS,
    _cell_dtype,
    _col_dtype,
    _item_dtype,
    derive_seed,
    stage_budgets,
    star_matrix,
)
from .perms import (
    ENUMERATION_CAP,
    Permutation,
    compose,
    kendall_tau,
    l1_distance,
    linf_distance,
    random_permutation,
)
from .theory import rate_curve

EXPERIMENT_KINDS = (
    "scaling_n", "scaling_budget", "region_snapshot", "lambda_accuracy", "mle_small_n",
)
ESTIMATOR_IDS = ("ms", "borda", "random", "mle", "sieve")
RESULT_COLUMNS = ("kind", "n", "sampling", "budget", "lam", "seed", "estimator",
                  "d_kt", "l1", "linf")
WORKERS_ENV_VAR = "NOISYSORT_WORKERS"
# Peak bytes per record of a run's largest draw, per record of its first _WIN_CHUNK (the
# block temporaries), per item and per item per ms stage: the largest tracemalloc peaks,
# rounded up, of one ms + borda + random replicate after a warm-up run (n = 50-60000, on
# both sides of 2**15, alpha = 0.01-1, T = 1-3, fixed and estimated margins; the item and
# stage bytes at N of a few hundred, n = 2*10^4-2*10^5, their sum at T = 1, 228, fitted
# with the rest at n = 358, p = 1).  Each stage keeps an MsState, five n-arrays and a score
# row: 41 bytes per item traced at T = 1-40.  A record also holds its two items,
# _item_dtype(n) wide; a with-replacement one its drawn cell, _cell_dtype(n) wide, as the
# sampler holds the drawn cells, a run-mark byte per draw and its counts, then the cells,
# counts and int32 seconds (8 + 1 + 1, then 8 + 1 + 4 bytes per comparison from n = 92683,
# traced); and a without-replacement one its column offset, _col_dtype(n) wide, beside 1/8
# byte of win bit and 1/8 per stage-label bit plane, ceil(log2 T) planes (T = 257's nine
# traced at 0.97 of the term, n = 4000, p = 1).  WRITTEN records are a simulated dataset's,
# with its two items, held beside a place per pair while the writer formats a block (two
# lines per record, _WRITE_BLOCK_ROWS at most; simulate's write at n = 50-100000, traced);
# DATASET_LINES the lines of run-ms's files, one per 8 bytes at most, held once read;
# READ_LINES the largest file's, read on top; then a run's fixed costs (README "Scale and memory").
WRITTEN, DATASET_LINES, READ_LINES = "written", "dataset_lines", "read_lines"
_RECORD_BYTES = {WITH_REPLACEMENT: 1, WITHOUT_REPLACEMENT: 3, WRITTEN: 6,
                 DATASET_LINES: 9, READ_LINES: 26}
_BLOCK_BYTES = {WITH_REPLACEMENT: 40, WITHOUT_REPLACEMENT: 48, WRITTEN: 78}
_ITEM_BYTES, _STAGE_BYTES, _FIXED_BYTES = 186, 42, 32 * 1024


def default_stage_count(n: int) -> int:
    """floor(log2 log2 n), at least 1; 3 for n in the thousands."""
    if n < 5:
        return 1
    return max(1, int(math.floor(math.log2(math.log2(n)))))


@dataclass(frozen=True)
class ExperimentSpec:
    """A seeded experiment grid.

    Budgets come either as fractions ``alphas`` of the number of pairs or as
    absolute comparison counts ``budgets`` (exactly one must be given).  For
    without-replacement sampling the per-pair probability is the fraction
    (or budget / C(n,2)).  ``lambda_hat`` fixes the margin handed to the
    multistage sorter; None estimates it from an extra sample of equal size
    (with-replacement sampling only, so ms with without-replacement sampling
    needs a fixed margin).  ``stages`` of None picks
    default_stage_count(n) per cell.
    """

    kind: str
    n_values: tuple[int, ...]
    alphas: tuple[float, ...] | None = None
    budgets: tuple[int, ...] | None = None
    lam: float = 0.25
    lambda_hat: float | None = 0.25
    stages: int | None = None
    replicates: int = 10
    master_seed: int = 0
    estimators: tuple[str, ...] = ("ms", "borda", "random")
    sampling: tuple[str, ...] = (WITH_REPLACEMENT,)
    workers: int | None = None
    pi_star: str = "identity"
    regions_dir: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.n_values:
            raise ValueError("empty n grid")
        if (self.alphas is None) == (self.budgets is None):
            raise ValueError("give exactly one of alphas / budgets")
        if self.replicates < 1 or self.stages is not None and self.stages < 1:
            raise ValueError("replicates and stages must be >= 1")
        bad = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if bad:
            raise ValueError(f"unknown estimators {bad}; know {ESTIMATOR_IDS}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError(f"duplicate estimators in {list(self.estimators)}")
        if not 0 < self.lam < 0.5 or self.lambda_hat is not None and not 0 < self.lambda_hat < 0.5:
            raise ValueError(f"lam and lambda_hat must lie in (0, 1/2): {self.lam}, {self.lambda_hat}")
        for s in self.sampling:
            if s not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
                raise ValueError(f"unknown sampling model {s!r}")
        if self.pi_star not in ("identity", "random"):
            raise ValueError("pi_star must be 'identity' or 'random'")
        if self.workers is not None and (type(self.workers) is not int or self.workers < 1):
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")
        if type(self.master_seed) is not int or self.master_seed < 0:
            raise ValueError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        cells = list(itertools.product(self.n_values, self.budget_params(), self.sampling))
        if self.kind == "region_snapshot" and (
            len(cells) != 1 or "ms" not in self.estimators or self.pi_star != "identity"
            or self.regions_dir is None
        ):
            raise ValueError("region snapshots take one grid cell, the ms estimator, "
                             "the identity pi_star and a regions_dir")
        if self.regions_dir is not None and self.kind != "region_snapshot":
            raise ValueError(f"--regions-dir is written by region snapshots, not by {self.kind}")
        if self.kind == "lambda_accuracy" and tuple(self.sampling) != (WITH_REPLACEMENT,):
            raise ValueError("lambda_accuracy samples with replacement only")
        ms_without = "ms" in self.estimators and WITHOUT_REPLACEMENT in self.sampling
        if self.lambda_hat is None and ms_without:
            raise ValueError("ms without replacement needs a fixed lambda_hat, an explicit margin "
                             "(--lambda-hat): the margin is estimated with replacement only")
        for n, (bkind, bval), sampling in cells:  # a cell that cannot run raises here
            _cell_plan(self, n, bkind, bval, sampling)

    def budget_params(self) -> tuple[tuple[str, float], ...]:
        if self.alphas is not None:
            return tuple(("alpha", a) for a in self.alphas)
        big = sys.float_info.max  # an int past float range reads as +-inf: _cell_plan names it
        return tuple(("absolute", math.inf if b > big else -math.inf if b < -big else float(b))
                     for b in self.budgets or ())

    def effective_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not env:
            return 1
        if not env.isdecimal() or int(env) < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {env!r}")
        return int(env)


@dataclass(frozen=True)
class ResultRow:
    """One estimator run on one simulated instance."""

    kind: str
    n: int
    sampling: str
    budget: float
    lam: float
    seed: int
    estimator: str
    d_kt: int
    l1: int
    linf: int
    runtime_ms: float

    def __post_init__(self) -> None:
        if not self.d_kt <= self.l1 <= 2 * self.d_kt:
            raise ValueError(
                f"distance sandwich violated: d_kt={self.d_kt} l1={self.l1}"
            )


@dataclass(frozen=True)
class LambdaResult:
    """One margin-estimation run."""

    n: int
    budget: int
    lam: float
    seed: int
    lambda_hat: float
    abs_error: float


def _replicates(spec: ExperimentSpec) -> Iterator[tuple[int, str, float, int, int]]:
    """(n, sampling, budget, stages, seed) of every (cell, replicate), each cell planned once."""
    for (i_n, n), (i_b, (bkind, bval)), (i_s, sampling) in itertools.product(
            enumerate(spec.n_values), enumerate(spec.budget_params()), enumerate(spec.sampling)):
        budget, stages = _cell_plan(spec, n, bkind, bval, sampling)
        for rep in range(spec.replicates):
            yield n, sampling, budget, stages, derive_seed(spec.master_seed, i_n, i_b, i_s, rep)


def _map_replicates(spec: ExperimentSpec, run) -> list:
    """``run(index, replicate)`` over every planned replicate of ``spec``, results in order:
    serially at one worker, else on a pool of ``spec.effective_workers()`` threads."""
    jobs = list(_replicates(spec))
    workers = spec.effective_workers()
    if workers == 1:
        return [run(index, job) for index, job in enumerate(jobs)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(len(jobs)), jobs))


def _pi_star(spec: ExperimentSpec, n: int, seed: int) -> Permutation:
    if spec.pi_star == "identity":
        return Permutation.identity(n)
    return random_permutation(n, np.random.default_rng(derive_seed(seed, 8)))


def _cell_plan(spec: ExperimentSpec, n: int, kind: str, value: float,
               sampling: str) -> tuple[float, int]:
    """A cell's (budget: N comparisons as a whole float, or p without replacement; stages).
    Refusals name the cell, in this order: n; a budget that is not finite; mle or sieve past
    perms.ENUMERATION_CAP (ResourceCapError); p outside (0, 1]; the replicates of all workers
    at once past physical memory (ResourceCapError); then fewer comparisons, or pairs
    expected, than the stages and the margin need.  The others are ValueErrors."""
    cell = f"cell n={n}, {kind}={value:g}, {sampling}"
    estimated = spec.kind == "lambda_accuracy" or spec.lambda_hat is None
    least_n = 4 if estimated and sampling == WITH_REPLACEMENT else 2
    if n < least_n:
        raise ValueError(f"{cell}: n must be >= {least_n}")
    pairs = math.comb(n, 2)
    if not math.isfinite(value * pairs if kind == "alpha" else value):
        raise ValueError(f"{cell}: the budget is not a finite number")
    if n > ENUMERATION_CAP and {"mle", "sieve"} & set(spec.estimators):
        raise ResourceCapError(f"{cell}: mle and sieve enumerate S_n, n > cap {ENUMERATION_CAP}")
    stages = spec.stages if spec.stages is not None else default_stage_count(n)
    if sampling == WITHOUT_REPLACEMENT:
        budget = value if kind == "alpha" else value / pairs
        if not 0 < budget <= 1:
            raise ValueError(f"{cell}: per-pair probability {budget} outside (0, 1]")
        count, least = budget * pairs, stages if "ms" in spec.estimators else 0
        short = f"{count:g} pairs expected, fewer than the {stages} stages of ms"
    else:
        budget = count = float(round(value * pairs) if kind == "alpha" else int(value))
        least = 2 if spec.kind == "lambda_accuracy" else max(stages, 1 + estimated)
        short = f"{budget:g} comparisons, fewer than the {least} it needs"
    check_memory(cell, n, {sampling: largest_draw(n, sampling, budget, stages, estimated)},
                 spec.effective_workers(), stages)
    if count < least:
        raise ValueError(f"{cell}: {short}")
    return budget, stages


def largest_draw(n: int, sampling: str, budget: float, stages: int, estimated: bool) -> float:
    """Records of the largest draw one run of ``stages`` stages holds at once: without
    replacement the whole draw (p * C(n,2)), which lives while its stages are decoded;
    with replacement (N comparisons) a stage or, if the margin is estimated, a half."""
    if sampling == WITHOUT_REPLACEMENT:
        return budget * math.comb(n, 2)
    return max(math.ceil(budget / stages), math.ceil(budget / 2) if estimated else 0)


def check_memory(what: str, n: int, records: dict[str, float], workers: int = 1,
                 stages: int = 0) -> None:
    """ResourceCapError, naming ``what``, if ``workers`` runs at once, each on n items with
    ``records[kind]`` records of each kind (a sampling, WRITTEN, DATASET_LINES or
    READ_LINES) and ms's state of ``stages`` stages, would not fit in physical memory."""
    items = 2 * np.dtype(_item_dtype(n)).itemsize
    width = {WITH_REPLACEMENT: items + np.dtype(_cell_dtype(n)).itemsize,
             WITHOUT_REPLACEMENT: items + _col_dtype(n).itemsize, WRITTEN: items}
    need = workers * (_FIXED_BYTES + n * (_ITEM_BYTES + stages * _STAGE_BYTES) + sum(
        count * (_RECORD_BYTES[kind] + width.get(kind, 0))
        + (min(2 * count, _WRITE_BLOCK_ROWS) if kind == WRITTEN else min(count, _WIN_CHUNK))
        * _BLOCK_BYTES.get(kind, 0)
        for kind, count in records.items()))
    check_physical_memory(f"{what}: {workers} replicate(s) at once", need)


def draw_stages(
    pi_star: Permutation,
    matrix: ProbabilityMatrix,
    sampling: str,
    budget: float,
    stages: int,
    seed: int,
    lambda_hat: float | None = None,
) -> tuple[StageSource, float]:
    """The stage samples of one multistage run, and the margin to sort them with.

    With replacement, ``budget`` is the number N of comparisons, split evenly
    across the stages; with no margin given, an extra N comparisons are drawn
    first, in two halves one after the other, and the margin is estimated from
    them.  Without replacement, ``budget`` is the per-pair probability p of one
    draw whose pairs each get one uniform stage label, and the margin is the one
    given, None if none (the estimator's contract covers with-replacement only).
    """
    if sampling == WITH_REPLACEMENT:
        total, master = int(budget), derive_seed(seed, 0)
        halves = [] if lambda_hat is not None else [total - total // 2, total // 2]
        source = StageSource.with_replacement(pi_star, matrix, stage_budgets(total, stages),
                                              master, len(halves))
        if halves:
            lambda_hat = estimate_lambda(
                StageSource.with_replacement(pi_star, matrix, halves, master))
        return source, lambda_hat
    if sampling == WITHOUT_REPLACEMENT:
        return StageSource.without_replacement(pi_star, matrix, budget, stages, seed), lambda_hat
    raise ValueError(f"unknown sampling model {sampling!r}")


def _sieve_net(n: int, sampling: str, budget: float, lam: float, seed: int) -> PackingSet:
    """Greedy packing of S_n at radius rate_curve's minimax rate (capped at n(n-1)/2), at
    least 1, relabelled by a random rho drawn from the replicate's ``seed``.

    The greedy scan keeps the identity first, so without the relabelling a
    one-member net would be {identity} whatever the data.  Left
    multiplication preserves Kendall distances, so the result is still a
    maximal packing at the same radius.
    """
    kind = "minimax_o2" if sampling == WITH_REPLACEMENT else "minimax_o1"
    radius = int(max(rate_curve(kind, n, budget, lam), 1))
    rho = random_permutation(n, np.random.default_rng(derive_seed(seed, 10)))
    return PackingSet(n, radius, tuple(compose(rho, pi) for pi in _packing(n, radius).members))


@functools.lru_cache(maxsize=16)
def _packing(n: int, radius: int) -> PackingSet:
    """greedy_maximal_packing of all of S_n, built once per (n, radius) for every replicate."""
    return greedy_maximal_packing(n, radius)


def _run_cell_replicate(
    spec: ExperimentSpec,
    n: int,
    sampling: str,
    budget: float,
    stages: int,
    seed: int,
) -> tuple[list[ResultRow], list[MsState] | None]:
    rng_misc = np.random.default_rng(derive_seed(seed, 9))
    pi_star = _pi_star(spec, n, seed)
    matrix = star_matrix(n, spec.lam)
    # ms first: when borda runs too, ms's own pass sums its win totals
    estimators = sorted(spec.estimators, key=lambda e: e != "ms")
    if "random" not in estimators:
        estimators.append("random")  # sanity-floor control always present

    # one draw per replicate, listed only for mle and sieve, which run at tiny n
    source, lam_hat = draw_stages(pi_star, matrix, sampling, budget, stages, seed, spec.lambda_hat)
    if {"mle", "sieve"} & set(estimators):
        source = StageSource.of(list(source))
    wins = np.zeros(n) if {"ms", "borda"} <= set(estimators) else None
    rows: list[ResultRow] = []
    states: list[MsState] | None = None
    for estimator in estimators:
        start = time.perf_counter()
        if estimator == "ms":
            pi_hat, states = ms_sort(source, lam_hat, MsConfig(stages=stages), totals=wins)
        elif estimator == "borda":
            pi_hat = borda_sort(source) if wins is None else _ranks_from_scores(wins)
        elif estimator == "random":
            pi_hat = random_permutation(n, rng_misc)
        elif estimator == "mle":
            pi_hat = brute_force_mle(source)
        else:  # sieve: the spec admits no other id
            pi_hat = sieve_mle(source, _sieve_net(n, sampling, budget, spec.lam, seed))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(ResultRow(kind=spec.kind, n=n, sampling=sampling, budget=budget, lam=spec.lam,
                              seed=seed, estimator=estimator, d_kt=kendall_tau(pi_hat, pi_star),
                              l1=l1_distance(pi_hat, pi_star), linf=linf_distance(pi_hat, pi_star),
                              runtime_ms=elapsed_ms))
    return rows, states


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run a distance-measured experiment grid; rows in canonical order.

    For region snapshots, replicate 0 also writes its per-stage bitmaps and
    a region_sizes.csv to ``spec.regions_dir``.
    """
    if spec.kind == "lambda_accuracy":
        raise ValueError("use run_lambda_accuracy for the lambda_accuracy kind")

    def run_job(index, replicate):
        rows, states = _run_cell_replicate(spec, *replicate)
        if index == 0 and spec.kind == "region_snapshot":
            emit_regions(states, spec.regions_dir)
            _write_csv(Path(spec.regions_dir) / "region_sizes.csv", ("stage", "region_size"),
                       ((st.stage, st.region_size()) for st in states))
        return rows

    rows = [row for chunk in _map_replicates(spec, run_job) for row in chunk]
    rows.sort(key=lambda r: (r.kind, r.n, r.sampling, r.budget, r.lam, r.seed, r.estimator))
    return rows


def run_lambda_accuracy(spec: ExperimentSpec) -> list[LambdaResult]:
    """Margin-estimation accuracy runs (with-replacement sampling)."""
    if spec.kind != "lambda_accuracy":
        raise ValueError("spec.kind must be lambda_accuracy")

    def run_job(index, replicate):
        n, sampling, budget, _, seed = replicate
        lam_hat = draw_stages(_pi_star(spec, n, seed), star_matrix(n, spec.lam),
                              sampling, budget, 1, seed)[1]  # draws only the halves
        return LambdaResult(n=n, budget=int(budget), lam=spec.lam, seed=seed,
                            lambda_hat=lam_hat, abs_error=abs(lam_hat - spec.lam))

    return _map_replicates(spec, run_job)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate of one (cell, estimator) group."""

    kind: str
    n: int
    sampling: str
    budget: float
    lam: float
    estimator: str
    count: int
    d_kt_mean: float
    d_kt_std: float
    d_kt_min: int
    d_kt_max: int
    l1_mean: float
    linf_mean: float


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Mean/std/min/max of the distances per (cell, estimator)."""
    if not rows:
        raise ValueError("no rows to summarize")
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault(
            (row.kind, row.n, row.sampling, row.budget, row.lam, row.estimator), []
        ).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        d = np.array([r.d_kt for r in members], dtype=float)
        out.append(SummaryRow(
            kind=key[0], n=key[1], sampling=key[2], budget=key[3], lam=key[4],
            estimator=key[5], count=len(members),
            d_kt_mean=float(d.mean()), d_kt_std=float(d.std()),
            d_kt_min=int(d.min()), d_kt_max=int(d.max()),
            l1_mean=float(np.mean([r.l1 for r in members])),
            linf_mean=float(np.mean([r.linf for r in members])),
        ))
    return out


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x: ValueError, naming the point, unless
    every x and y is positive and finite, and unless the xs take two values or more."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    for x, y in zip(xs, ys):
        if not (0 < x < math.inf and 0 < y < math.inf):  # NaN fails
            raise ValueError(f"point ({x}, {y}) has no finite logarithm")
    if len(set(xs)) < 2:
        raise ValueError(f"every x is {xs[0]}: the slope is undefined")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx -= lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def _write_csv(path: str | Path, header: tuple[str, ...], lines: Iterable[Iterable]) -> None:
    """A header line, then one comma-separated line per sequence of values (floats as repr)."""
    text = [",".join(header)] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                          for v in values) for values in lines]
    Path(path).write_text("\n".join(text) + "\n")


def rows_to_csv(rows: list[ResultRow], path: str | Path,
                timings_path: str | Path | None = None) -> None:
    """Write rows in the documented column order (timings separate).

    The canonical file is a pure function of the experiment spec and master
    seed; wall-clock timings are not, so they only ever go to the sidecar.
    """
    _write_csv(path, RESULT_COLUMNS, ([getattr(r, c) for c in RESULT_COLUMNS] for r in rows))
    if timings_path is not None:
        key = RESULT_COLUMNS[:7]
        _write_csv(timings_path, key + ("runtime_ms",),
                   ([getattr(r, c) for c in key] + [f"{r.runtime_ms:.3f}"] for r in rows))


def summary_to_csv(rows: list[SummaryRow], path: str | Path) -> None:
    _write_csv(path, tuple(f.name for f in fields(SummaryRow)), map(astuple, rows))


def lambda_results_to_csv(results: list[LambdaResult], path: str | Path) -> None:
    _write_csv(path, tuple(f.name for f in fields(LambdaResult)), map(astuple, results))


# Rows per block of a region bitmap: a snapshot holds a few block x n arrays, not n x n
_PBM_BLOCK_ROWS = 256


def emit_regions(states: list[MsState], out_dir: str | Path) -> list[Path]:
    """One plain PBM (P1) bitmap per stage, one text row per item i: pixel (i, j)
    is 1 (black) iff j is uncertain for i.  Rows are built and written in blocks."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for state in states:
        n = state.n
        path = out / f"stage_{state.stage}.pbm"
        with open(path, "wb") as fh:
            fh.write(f"P1\n{n} {n}\n".encode())
            for lo in range(0, n, _PBM_BLOCK_ROWS):
                mask = state.uncertain_rows(slice(lo, lo + _PBM_BLOCK_ROWS))
                buf = np.full((len(mask), 2 * n), ord(" "), dtype=np.uint8)
                buf[:, 0::2] = ord("0") + mask.astype(np.uint8)
                buf[:, -1] = ord("\n")
                fh.write(buf.tobytes())
        paths.append(path)
    return paths
