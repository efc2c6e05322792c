"""Experiment orchestration: seeded grids of simulated instances, estimator
runs, CSV emission, and uncertainty-region bitmaps.

Every (grid cell, replicate) pair gets its own seed derived from the master
seed, so replicates can run on any number of workers and still produce
byte-identical output: rows are sorted into a canonical order before they
are written.  Wall-clock timings are kept out of the canonical CSV (they are
not reproducible) and can be written to a sidecar file instead.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .counting import PackingSet, greedy_maximal_packing, max_inversions
from .errors import ResourceCapError
from .estimators import (
    CALIBRATED_THRESHOLD_SCALE,
    MsConfig,
    MsState,
    borda_sort,
    brute_force_mle,
    estimate_lambda,
    ms_sort,
    sieve_mle,
    theoretical_phi,
)
from .model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ComparisonDataset,
    ProbabilityMatrix,
    derive_seed,
    sample_without_replacement,
    split_with_replacement,
    split_without_replacement,
    stage_budgets,
    star_matrix,
)
from .perms import (
    Permutation,
    compose,
    kendall_tau,
    l1_distance,
    linf_distance,
    random_permutation,
)

EXPERIMENT_KINDS = (
    "scaling_n", "scaling_budget", "region_snapshot", "lambda_accuracy", "mle_small_n",
)
ESTIMATOR_IDS = ("ms", "borda", "random", "mle", "sieve")
RESULT_COLUMNS = ("kind", "n", "sampling", "budget", "lam", "seed", "estimator",
                  "d_kt", "l1", "linf")
WORKERS_ENV_VAR = "NOISYSORT_WORKERS"


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
    c0: float = 1.0
    c1: float = 8.0
    threshold_scale: float = CALIBRATED_THRESHOLD_SCALE
    workers: int | None = None
    max_n: int = 10_000
    max_budget: int = 200_000_000
    pi_star: str = "identity"
    regions_dir: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.n_values:
            raise ValueError("empty n grid")
        if (self.alphas is None) == (self.budgets is None):
            raise ValueError("give exactly one of alphas / budgets")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        bad = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if bad:
            raise ValueError(f"unknown estimators {bad}; know {ESTIMATOR_IDS}")
        for s in self.sampling:
            if s not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
                raise ValueError(f"unknown sampling model {s!r}")
        if self.pi_star not in ("identity", "random"):
            raise ValueError("pi_star must be 'identity' or 'random'")
        if self.workers is not None and (type(self.workers) is not int or self.workers < 1):
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")
        cells = len(self.n_values) * len(self.budget_params()) * len(self.sampling)
        if self.kind == "region_snapshot" and (
            cells != 1 or "ms" not in self.estimators or self.pi_star != "identity"
            or self.regions_dir is None
        ):
            raise ValueError("region snapshots take one grid cell, the ms estimator, "
                             "the identity pi_star and a regions_dir")
        if self.kind == "lambda_accuracy" and tuple(self.sampling) != (WITH_REPLACEMENT,):
            raise ValueError("lambda_accuracy samples with replacement only")
        ms_without = "ms" in self.estimators and WITHOUT_REPLACEMENT in self.sampling
        if self.lambda_hat is None and ms_without:
            raise ValueError("ms on without-replacement samples needs a fixed lambda_hat; "
                             "the margin is estimated with replacement only")

    def budget_params(self) -> tuple[tuple[str, float], ...]:
        if self.alphas is not None:
            return tuple(("alpha", a) for a in self.alphas)
        return tuple(("absolute", float(b)) for b in self.budgets or ())

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


def _check_caps(spec: ExperimentSpec) -> None:
    for n in spec.n_values:
        if n > spec.max_n:
            raise ResourceCapError(
                f"n={n} exceeds the configured cap max_n={spec.max_n}"
            )
        for kind, value in spec.budget_params():
            total = value * math.comb(n, 2) if kind == "alpha" else value
            if spec.lambda_hat is None:
                total *= 2  # margin estimation doubles the sample
            if total > spec.max_budget:
                raise ResourceCapError(
                    f"budget {int(total)} at n={n} exceeds the configured cap "
                    f"max_budget={spec.max_budget}"
                )


def _replicates(spec: ExperimentSpec) -> Iterator[tuple[int, str, float, str, int]]:
    """(n, budget kind, budget value, sampling, seed) of every (cell, replicate)."""
    for i_n, n in enumerate(spec.n_values):
        for i_b, (bkind, bval) in enumerate(spec.budget_params()):
            for i_s, sampling in enumerate(spec.sampling):
                for rep in range(spec.replicates):
                    seed = derive_seed(spec.master_seed, i_n, i_b, i_s, rep)
                    yield n, bkind, bval, sampling, seed


def _pi_star(spec: ExperimentSpec, n: int, seed: int) -> Permutation:
    if spec.pi_star == "identity":
        return Permutation.identity(n)
    return random_permutation(n, np.random.default_rng(derive_seed(seed, 8)))


def _resolve_budget(kind: str, value: float, n: int, sampling: str) -> float:
    """A cell's budget: N comparisons (a whole float), or p without replacement."""
    pairs = math.comb(n, 2)
    if sampling == WITHOUT_REPLACEMENT:
        p = value if kind == "alpha" else value / pairs
        if not 0 < p <= 1:
            raise ValueError(f"per-pair probability {p} outside (0, 1]")
        return p
    return float(round(value * pairs) if kind == "alpha" else int(value))


@dataclass(frozen=True)
class MsRun:
    """Output of one full multistage pipeline run."""

    permutation: Permutation
    states: list[MsState]
    lambda_hat: float


def _draw_pipeline_data(
    pi_star: Permutation,
    matrix: ProbabilityMatrix,
    sampling: str,
    budget: float,
    stages: int,
    seed: int,
    lambda_hat: float | None = None,
) -> tuple[list[ComparisonDataset], float | None]:
    """(stage samples, margin) of one run, see run_ms_pipeline; every estimator
    reads these samples.  Without replacement they partition the one draw."""
    if sampling == WITH_REPLACEMENT:
        total = int(budget)
        halves = [] if lambda_hat is not None else [total - total // 2, total // 2]
        parts = split_with_replacement(
            pi_star, matrix, halves + stage_budgets(total, stages), derive_seed(seed, 0)
        )
        if lambda_hat is None:
            lambda_hat = estimate_lambda(parts[0], parts[1])
        return parts[len(halves):], lambda_hat
    if sampling == WITHOUT_REPLACEMENT:
        full = sample_without_replacement(pi_star, matrix, budget, derive_seed(seed, 0))
        return split_without_replacement(full, stages, derive_seed(seed, 1)), lambda_hat
    raise ValueError(f"unknown sampling model {sampling!r}")


def run_ms_pipeline(
    pi_star: Permutation,
    matrix: ProbabilityMatrix,
    sampling: str,
    budget: float,
    stages: int,
    config: MsConfig,
    seed: int,
    lambda_hat: float | None = None,
) -> MsRun:
    """Generate data and run the multistage sorter end to end.

    With-replacement: ``budget`` is the number N of comparisons, split
    evenly across stages; if no margin is supplied, an extra N comparisons
    are generated and used to estimate it (two half samples).
    Without-replacement: ``budget`` is the per-pair probability p of one
    dataset whose comparisons are scattered uniformly across stages; a
    margin must be supplied since the estimator's contract covers
    with-replacement samples only.
    """
    if sampling == WITHOUT_REPLACEMENT and lambda_hat is None:
        raise ValueError("without-replacement runs need an explicit margin (lambda_hat)")
    stage_samples, lam_hat = _draw_pipeline_data(
        pi_star, matrix, sampling, budget, stages, seed, lambda_hat
    )
    pi_hat, states = ms_sort(stage_samples, lam_hat, config)
    return MsRun(permutation=pi_hat, states=states, lambda_hat=lam_hat)


def _sieve_net(n: int, phi: float, seed: int) -> PackingSet:
    """Greedy packing of S_n at radius phi (clipped to [1, max inversions]),
    relabelled by a random rho drawn from ``seed``.

    The greedy scan keeps the identity first, so without the relabelling a
    one-member net would be {identity} whatever the data.  Left
    multiplication preserves Kendall distances, so the result is still a
    maximal packing at the same radius.
    """
    radius = int(min(max(phi, 1), max_inversions(n)))
    rho = random_permutation(n, np.random.default_rng(seed))
    net = greedy_maximal_packing(n, radius)
    return PackingSet(n, radius, tuple(compose(rho, pi) for pi in net.members))


def _run_cell_replicate(
    spec: ExperimentSpec,
    n: int,
    budget_kind: str,
    budget_value: float,
    sampling: str,
    seed: int,
) -> tuple[list[ResultRow], list[MsState] | None]:
    budget = _resolve_budget(budget_kind, budget_value, n, sampling)
    rng_misc = np.random.default_rng(derive_seed(seed, 9))
    pi_star = _pi_star(spec, n, seed)
    matrix = star_matrix(n, spec.lam)
    stages = spec.stages if spec.stages is not None else default_stage_count(n)
    config = MsConfig(
        stages=stages, c0=spec.c0, c1=spec.c1, threshold_scale=spec.threshold_scale
    )
    estimators = list(spec.estimators)
    if "random" not in estimators:
        estimators.append("random")  # sanity-floor control always present

    # one draw per replicate, read by every estimator as its stage samples
    stage_samples, lam_hat = _draw_pipeline_data(
        pi_star, matrix, sampling, budget, stages, seed, spec.lambda_hat
    )
    rows: list[ResultRow] = []
    states: list[MsState] | None = None
    for estimator in estimators:
        start = time.perf_counter()
        if estimator == "ms":
            pi_hat, states = ms_sort(stage_samples, lam_hat, config)
        elif estimator == "borda":
            pi_hat = borda_sort(stage_samples)
        elif estimator == "random":
            pi_hat = random_permutation(n, rng_misc)
        elif estimator == "mle":
            pi_hat = brute_force_mle(stage_samples)
        elif estimator == "sieve":
            phi = theoretical_phi(sampling, n, budget, spec.lam)
            pi_hat = sieve_mle(stage_samples, _sieve_net(n, phi, derive_seed(seed, 10)))
        else:  # pragma: no cover - spec validation rejects unknown ids
            raise ValueError(f"unknown estimator {estimator!r}")
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(ResultRow(
            kind=spec.kind, n=n, sampling=sampling, budget=budget,
            lam=spec.lam, seed=seed, estimator=estimator,
            d_kt=kendall_tau(pi_hat, pi_star), l1=l1_distance(pi_hat, pi_star),
            linf=linf_distance(pi_hat, pi_star), runtime_ms=elapsed_ms,
        ))
    return rows, states


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run a distance-measured experiment grid; rows in canonical order.

    For region snapshots, replicate 0 also writes its per-stage bitmaps and
    a region_sizes.csv to ``spec.regions_dir``.
    """
    if spec.kind == "lambda_accuracy":
        raise ValueError("use run_lambda_accuracy for the lambda_accuracy kind")
    _check_caps(spec)

    def run_job(indexed_job):
        index, job = indexed_job
        rows, states = _run_cell_replicate(spec, *job)
        if index == 0 and spec.kind == "region_snapshot":
            emit_regions(states, spec.regions_dir)
            _write_csv(Path(spec.regions_dir) / "region_sizes.csv", ("stage", "region_size"),
                       ((st.stage, st.region_size()) for st in states))
        return rows

    jobs = list(enumerate(_replicates(spec)))
    workers = spec.effective_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_job, jobs))
    else:
        chunks = [run_job(job) for job in jobs]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.kind, r.n, r.sampling, r.budget, r.lam, r.seed, r.estimator))
    return rows


def run_lambda_accuracy(spec: ExperimentSpec) -> list[LambdaResult]:
    """Margin-estimation accuracy runs (with-replacement sampling)."""
    if spec.kind != "lambda_accuracy":
        raise ValueError("spec.kind must be lambda_accuracy")
    _check_caps(spec)
    results: list[LambdaResult] = []
    for n, bkind, bval, sampling, seed in _replicates(spec):
        total = int(_resolve_budget(bkind, bval, n, sampling))
        s1, s2 = split_with_replacement(
            _pi_star(spec, n, seed), star_matrix(n, spec.lam),
            [total - total // 2, total // 2], derive_seed(seed, 0),
        )
        lam_hat = estimate_lambda(s1, s2)
        results.append(LambdaResult(
            n=n, budget=total, lam=spec.lam, seed=seed,
            lambda_hat=lam_hat, abs_error=abs(lam_hat - spec.lam),
        ))
    return results


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
    """Least-squares slope of log y against log x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx -= lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str | Path, header: tuple[str, ...], lines: Iterable[Iterable]) -> None:
    """A header line, then one comma-separated line per sequence of values."""
    text = [",".join(header)] + [",".join(map(_format_value, values)) for values in lines]
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


def write_pbm(mask: np.ndarray, path: str | Path) -> None:
    """Plain PBM (P1): one text row per matrix row, 1 = black = uncertain."""
    n_rows, n_cols = mask.shape
    buf = np.full((n_rows, 2 * n_cols), ord(" "), dtype=np.uint8)
    buf[:, 0::2] = ord("0") + mask.astype(np.uint8)
    buf[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"P1\n{n_cols} {n_rows}\n".encode())
        fh.write(buf.tobytes())


def emit_regions(states: list[MsState], out_dir: str | Path) -> list[Path]:
    """One bitmap per stage: pixel (i, j) black iff j is uncertain for i."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for state in states:
        path = out / f"stage_{state.stage}.pbm"
        write_pbm(state.uncertain, path)
        paths.append(path)
    return paths
