"""Acceptance suite.

Each test runs one acceptance criterion at its stated parameters and
tolerances and prints a single PASS/FAIL line (visible with pytest -s, and
in the failure output otherwise).  Expected values come from the
independent oracles in oracles.py, never from the code paths under test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from noisysort.counting import (
    check_lemma_inversion_bounds,
    count_at_most_k_inversions,
    greedy_maximal_packing,
    max_inversions,
    sparse_packing_cardinality_floor,
    sparse_vg_packing,
)
from noisysort.estimators import (
    MsConfig,
    brute_force_mle,
    ms_sort,
    sieve_mle,
)
from noisysort.experiments import (
    ExperimentSpec,
    default_stage_count,
    draw_stages,
    loglog_slope,
    rows_to_csv,
    run_experiment,
    run_lambda_accuracy,
    summarize,
)
from noisysort.model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    derive_seed,
    sample_with_replacement,
    star_matrix,
)
from noisysort.perms import (
    InversionTable,
    Permutation,
    enumerate_permutations,
    from_inversion_table,
    kendall_tau,
    l1_distance,
    random_permutation,
    to_inversion_table,
)
from noisysort.theory import binomial_tail_bounds, model_kl

from oracles import (
    certain_above,
    certain_below,
    inversion_histogram,
    noise_free_full,
    observation_kl_oracle,
)

MASTER_SEED = 20260809

SCALING_SPEC = ExperimentSpec(
    kind="scaling_n",
    n_values=(500, 1000, 2000, 4000),
    alphas=(0.1,),
    lam=0.25,
    lambda_hat=0.25,
    stages=None,  # floor(log2 log2 n) = 3 across this grid
    replicates=10,
    master_seed=MASTER_SEED,
    estimators=("ms",),
    sampling=(WITH_REPLACEMENT,),
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def scaling_rows():
    return run_experiment(SCALING_SPEC)


def test_01_combinatorics_exactness():
    start = time.time()
    for n in range(1, 9):
        hist = inversion_histogram(n)
        running = 0
        for k in range(max_inversions(n) + 1):
            running += hist.get(k, 0)
            assert count_at_most_k_inversions(n, k) == running, (n, k)
    for n in range(1, 21):
        assert count_at_most_k_inversions(n, max_inversions(n)) == math.factorial(n)
    elapsed = time.time() - start
    report(1, elapsed < 60,
           f"counts match enumeration for n<=8 (all k) and n! for n<=20 in {elapsed:.1f}s")


def test_02_inversion_count_bounds():
    start = time.time()
    checked = 0
    for n in range(3, 9):
        for k in range(1, max_inversions(n) + 1):
            assert check_lemma_inversion_bounds(n, k).holds, (n, k)
            checked += 1
    elapsed = time.time() - start
    report(2, elapsed < 60, f"log-count sandwich holds at all {checked} grid points "
                            f"(3<=n<=8, 1<=k<=n(n-1)/2) in {elapsed:.1f}s")


def test_03_metric_sandwich():
    # exhaustive over all ordered pairs for n <= 6, vectorized for n = 6
    for n in range(1, 6):
        for pi in enumerate_permutations(n):
            for sigma in enumerate_permutations(n):
                d = kendall_tau(pi, sigma)
                l1 = l1_distance(pi, sigma)
                assert d <= l1 <= 2 * d
    n = 6
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    col_pairs = list(itertools.combinations(range(n), 2))
    for s in range(perms.shape[0]):
        sigma = perms[s]
        words = perms[:, np.argsort(sigma)]
        inv = np.zeros(perms.shape[0], dtype=np.int64)
        for a, b in col_pairs:
            inv += words[:, a] > words[:, b]
        l1 = np.abs(perms - sigma).sum(axis=1)
        assert ((inv <= l1) & (l1 <= 2 * inv)).all()
        if s == 0:  # cross-check the vectorized count against the library once
            for row in (1, 100, 719):
                assert inv[row] == kendall_tau(
                    Permutation(tuple(int(v) for v in perms[row])),
                    Permutation(tuple(int(v) for v in sigma)),
                )
    # 1000 random pairs at n = 100
    rng = np.random.default_rng(MASTER_SEED)
    violations = 0
    for _ in range(1000):
        pi = random_permutation(100, rng)
        sigma = random_permutation(100, rng)
        d, l1 = kendall_tau(pi, sigma), l1_distance(pi, sigma)
        violations += not (d <= l1 <= 2 * d)
    report(3, violations == 0,
           "d_kt <= l1 <= 2 d_kt exhaustively for n<=6 and on 1000 random pairs at n=100")


def test_04_inversion_table_bijection():
    for n in range(1, 8):
        for pi in enumerate_permutations(n):
            assert from_inversion_table(to_inversion_table(pi)) == pi
        ranges = [range(n - i + 1) for i in range(1, n + 1)]
        count = 0
        for entries in itertools.product(*ranges):
            table = InversionTable(entries)
            assert to_inversion_table(from_inversion_table(table)) == table
            count += 1
        assert count == math.factorial(n)
    report(4, True, "table<->permutation roundtrips are exact both ways for n<=7")


def test_05_sparse_packing_construction():
    ident_cache = {}
    for n in (8, 12, 16):
        ident_cache[n] = Permutation.identity(n)
        for r in range(1, n // 2):
            packing = sparse_vg_packing(n, r)
            sep = math.ceil(r / 2)
            for member in packing.members:
                assert kendall_tau(member, ident_cache[n]) <= r, (n, r)
            members = packing.members
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert kendall_tau(a, b) >= sep, (n, r)
            assert len(packing) >= sparse_packing_cardinality_floor(n, r), (n, r)
    report(5, True, "members in the radius-r ball, pairwise >= ceil(r/2) apart, "
                    "cardinality >= exp((r/5) log(n/r)) for n in {8,12,16}, all r < n/2")


def test_06_kl_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 6)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        pi, sigma = random_permutation(n, rng), random_permutation(n, rng)
        lam = float(rng.uniform(0.05, 0.45))
        kind = WITHOUT_REPLACEMENT if trial % 2 == 0 else WITH_REPLACEMENT
        budget = float(rng.uniform(0.05, 1.0)) if kind == WITHOUT_REPLACEMENT \
            else float(rng.integers(1, 100))
        got = model_kl(pi, sigma, kind, n, budget, lam)
        expected = observation_kl_oracle(pi, sigma, kind, n, budget, lam)
        if expected != 0:
            worst = max(worst, abs(got - expected) / abs(expected))
        else:
            assert got == 0.0
    report(6, worst < 1e-12,
           f"closed-form KL matches per-outcome oracle; worst rel err {worst:.2e} "
           "over 100 random pairs, both sampling models")


def test_07_margin_estimation_accuracy():
    start = time.time()
    spec = ExperimentSpec(
        kind="lambda_accuracy", n_values=(500,), budgets=(1_000_000,),
        lam=0.25, replicates=10, master_seed=MASTER_SEED,
    )
    results = run_lambda_accuracy(spec)
    elapsed = time.time() - start
    hits = sum(r.abs_error < 0.02 for r in results)
    errs = sorted(round(r.abs_error, 4) for r in results)
    report(7, hits >= 9 and elapsed < 60,
           f"|margin error| < 0.02 on {hits}/10 seeds (errors {errs}) in {elapsed:.1f}s")


def test_08_scaling_in_n(scaling_rows):
    """Near-linear error scaling and absolute error level on the n grid.

    Note: at this desk-scale grid the certainty gate threshold
    c1*n^2*(T/N)*log(nT) exceeds n for every n <= 4000, so no pair can be
    marked certain by any constant choice and the multistage output reduces
    to a score sort of the last stage sample; the 5%-of-floor requirement is
    then out of reach (the slope requirement may also fail).  The criterion
    is asserted as stated; the detail line records the measured values.
    """
    summary = {s.n: s for s in summarize(scaling_rows) if s.estimator == "ms"}
    ns = sorted(summary)
    means = [summary[n].d_kt_mean for n in ns]
    slope = loglog_slope([float(n) for n in ns], means)
    floor_fracs = {n: summary[n].d_kt_mean / (n * (n - 1) / 4) for n in ns}
    slope_ok = 0.7 <= slope <= 1.6
    floor_ok = all(frac < 0.05 for frac in floor_fracs.values())
    detail = (f"slope={slope:.3f} (need [0.7,1.6]); mean d_kt as fraction of "
              f"n(n-1)/4: " + ", ".join(f"n={n}: {frac:.1%}" for n, frac in floor_fracs.items())
              + " (need < 5% everywhere)")
    report(8, slope_ok and floor_ok, detail)


def test_09_scaling_in_budget():
    start = time.time()
    spec = ExperimentSpec(
        kind="scaling_budget", n_values=(2000,), alphas=(0.01, 0.02, 0.05, 0.1),
        lam=0.25, lambda_hat=0.25, stages=None, replicates=10,
        master_seed=MASTER_SEED, estimators=("ms",), sampling=(WITH_REPLACEMENT,),
    )
    rows = run_experiment(spec)
    elapsed = time.time() - start
    summary = [s for s in summarize(rows) if s.estimator == "ms"]
    summary.sort(key=lambda s: s.budget)  # ascending N, i.e. ascending alpha
    means = [s.d_kt_mean for s in summary]
    alphas = [s.budget / math.comb(2000, 2) for s in summary]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    slope = loglog_slope([1 / a for a in alphas], means)
    report(9, decreasing and 0 < slope < 1.2 and elapsed < 900,
           f"mean d_kt strictly decreasing in alpha {means}; "
           f"slope vs 1/alpha = {slope:.3f} in (0, 1.2); {elapsed:.0f}s")


def test_10_region_shrinkage(tmp_path):
    start = time.time()
    spec = ExperimentSpec(
        kind="region_snapshot", n_values=(2000,), alphas=(1.0,),
        lam=0.25, lambda_hat=0.25, stages=3, replicates=1,
        master_seed=MASTER_SEED, estimators=("ms",), sampling=(WITH_REPLACEMENT,),
        regions_dir=str(tmp_path / "regions"),
    )
    run_experiment(spec)
    elapsed = time.time() - start
    out = tmp_path / "regions"
    sizes = {}
    for line in (out / "region_sizes.csv").read_text().splitlines()[1:]:
        stage, size = line.split(",")
        sizes[int(stage)] = int(size)
    strict = sizes[1] > sizes[2] > sizes[3]
    bitmaps_ok = True
    for t in range(4):
        path = out / f"stage_{t}.pbm"
        bitmaps_ok &= path.exists()
        header = path.read_bytes()[:20].decode().splitlines()
        bitmaps_ok &= header[0] == "P1" and header[1] == "2000 2000"
    report(10, strict and bitmaps_ok and elapsed < 300,
           f"region sizes {sizes} strictly shrinking over stages 1..3; "
           f"2000x2000 bitmaps emitted; {elapsed:.0f}s")


def test_11_displacement_bound(scaling_rows):
    pairs = math.comb
    failures = []
    for n in SCALING_SPEC.n_values:
        budget = round(0.1 * pairs(n, 2))
        bound = 50 * (n * n / budget) * math.log(n) * math.log(math.log(n))
        cell = [r for r in scaling_rows if r.n == n and r.estimator == "ms"]
        hits = sum(r.linf <= bound for r in cell)
        if hits < 9:
            failures.append((n, hits))
    report(11, not failures,
           "max displacement within 50 (n^2/N) log(n) loglog(n) on >= 9/10 seeds "
           f"per cell{'' if not failures else f'; failures {failures}'}")


def test_12_certainty_soundness():
    n, lam = 500, 0.45
    total = 5 * math.comb(n, 2)
    stages = default_stage_count(n)
    config = MsConfig(stages=stages)
    matrix = star_matrix(n, lam)
    clean_seeds = 0
    for rep in range(10):
        seed = derive_seed(MASTER_SEED + 12, rep)
        pi_star = random_permutation(n, np.random.default_rng(derive_seed(seed, 8)))
        # no lambda_hat: the margin is estimated from its own sample
        _, states = ms_sort(*draw_stages(pi_star, matrix, WITH_REPLACEMENT, total, stages, seed),
                            config)
        ranks = pi_star.to_array()
        bad = 0
        for st in states[1:]:
            rows, cols = np.nonzero(certain_below(st))
            bad += int(np.sum(ranks[cols] >= ranks[rows]))
            rows, cols = np.nonzero(certain_above(st))
            bad += int(np.sum(ranks[cols] <= ranks[rows]))
        clean_seeds += bad == 0
    report(12, clean_seeds >= 9,
           f"all certainty sets correct at every stage on {clean_seeds}/10 seeds "
           "(random latent orders, estimated margin)")


def test_13_mle_oracles():
    for pi_star in enumerate_permutations(5):
        assert brute_force_mle([noise_free_full(pi_star)]) == pi_star
    net = greedy_maximal_packing(6, 0)
    assert len(net) == 720
    matrix = star_matrix(6, 0.25)
    agreements = 0
    for seed in range(50):
        d = sample_with_replacement(
            Permutation.identity(6), matrix, 60, derive_seed(MASTER_SEED + 13, seed)
        )
        agreements += sieve_mle([d], net) == brute_force_mle([d])
    report(13, agreements == 50,
           "exhaustive maximizer recovers every latent order in S_5 noise-free; "
           f"radius-0 net maximizer agrees on {agreements}/50 noisy datasets at n=6")


def test_14_binomial_tail_bounds():
    rng = np.random.default_rng(MASTER_SEED + 14)
    draws_per_config = 1_000_000
    ok = True
    details = []
    for n_draws, p, r in [(100, 0.5, 0.3), (1000, 0.5, 0.4), (500, 0.75, 0.6)]:
        s = 2 * p - r  # mirrored upper-tail probe
        lower_bound, upper_bound = binomial_tail_bounds(n_draws, p, r, s)
        draws = rng.binomial(n_draws, p, size=draws_per_config)
        emp_lower = float((draws <= r * n_draws).mean())
        emp_upper = float((draws >= s * n_draws).mean())
        ok &= emp_lower <= lower_bound and emp_upper <= upper_bound
        details.append(f"(N={n_draws},p={p},r={r}): {emp_lower:.2e}<={lower_bound:.2e}, "
                       f"{emp_upper:.2e}<={upper_bound:.2e}")
    report(14, ok, "empirical tails below closed-form bounds: " + "; ".join(details))


def test_15_determinism(scaling_rows, tmp_path):
    rerun = run_experiment(SCALING_SPEC)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    rows_to_csv(scaling_rows, first)
    rows_to_csv(rerun, second)
    identical = first.read_bytes() == second.read_bytes()
    report(15, identical,
           f"re-running the n-scaling spec with master seed {MASTER_SEED} "
           "reproduced the results CSV byte for byte")
