import math
import os
import threading
import tracemalloc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from noisysort import estimators, experiments, model
from noisysort.counting import greedy_maximal_packing
from noisysort.errors import ResourceCapError
from noisysort.experiments import (
    ExperimentSpec,
    ResultRow,
    default_stage_count,
    draw_stages,
    emit_regions,
    loglog_slope,
    rows_to_csv,
    run_experiment,
    run_lambda_accuracy,
    summarize,
)
from noisysort.estimators import (
    MsConfig,
    MsState,
    borda_sort,
    estimate_lambda,
    initial_ms_state,
    ms_sort,
)
from noisysort.model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    derive_seed,
    split_with_replacement,
    stage_budgets,
    star_matrix,
)
from noisysort.perms import (
    ENUMERATION_CAP,
    Permutation,
    enumerate_permutations,
    kendall_tau,
    l1_distance,
    linf_distance,
    random_permutation,
)

from oracles import uncertain, write_pbm


def small_spec(**overrides):
    base = dict(
        kind="scaling_n",
        n_values=(30,),
        alphas=(0.5,),
        lam=0.3,
        lambda_hat=0.3,
        stages=2,
        replicates=2,
        master_seed=5,
        estimators=("ms", "borda"),
        sampling=(WITH_REPLACEMENT,),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_sparse_without_cell_needs_a_pair_per_ms_stage(self):
        # 0.003 * C(30, 2) = 1.3 pairs expected for the 2 stages of ms
        sparse = dict(n_values=(30,), alphas=(0.003,), stages=None,
                      sampling=(WITHOUT_REPLACEMENT,))
        with pytest.raises(ValueError, match="cell n=30, alpha=0.003, without_replacement"):
            small_spec(**sparse)
        small_spec(**sparse, estimators=("borda",))
        small_spec(**{**sparse, "alphas": (0.005,)})  # 2.2 pairs expected

    def test_requires_exactly_one_budget_form(self):
        with pytest.raises(ValueError):
            small_spec(alphas=(0.5,), budgets=(100,))
        with pytest.raises(ValueError):
            small_spec(alphas=None, budgets=None)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            small_spec(estimators=("ms", "oracle"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            small_spec(kind="scaling_everything")

    @pytest.mark.parametrize("workers", [0, -3, 2.0, True])
    def test_workers_field_must_be_positive_integer(self, workers):
        with pytest.raises(ValueError, match="workers"):
            small_spec(workers=workers)

    @pytest.mark.parametrize("seed", [None, -1, 2.0, True, "5"])
    def test_master_seed_must_be_a_non_negative_integer(self, seed):
        # None would draw OS entropy through SeedSequence(None): the CSV would not repeat
        with pytest.raises(ValueError, match="master_seed"):
            small_spec(master_seed=seed)

    @pytest.mark.parametrize("value", ["-3", "0", "abc", "2.5"])
    def test_workers_env_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("NOISYSORT_WORKERS", value)
        with pytest.raises(ValueError, match="NOISYSORT_WORKERS"):
            small_spec().effective_workers()

    def test_workers_env_read_when_field_unset(self, monkeypatch):
        monkeypatch.setenv("NOISYSORT_WORKERS", "3")
        assert small_spec().effective_workers() == 3
        assert small_spec(workers=2).effective_workers() == 2
        monkeypatch.delenv("NOISYSORT_WORKERS")
        assert small_spec().effective_workers() == 1

    @pytest.mark.parametrize("bad", [
        dict(n_values=(40, 50)), dict(alphas=(0.5, 1.0)),
        dict(sampling=(WITH_REPLACEMENT, WITHOUT_REPLACEMENT)), dict(estimators=("borda",)),
        dict(pi_star="random"), dict(regions_dir=None),
    ])
    def test_region_snapshot_constraints(self, tmp_path, bad):
        fields = dict(kind="region_snapshot", n_values=(40,), alphas=(1.0,),
                      estimators=("ms",), regions_dir=str(tmp_path))
        small_spec(**fields)
        with pytest.raises(ValueError, match="region snapshots"):
            small_spec(**{**fields, **bad})

    @pytest.mark.parametrize("kind", ["scaling_n", "scaling_budget", "lambda_accuracy",
                                      "mle_small_n"])
    def test_regions_dir_belongs_to_region_snapshots(self, tmp_path, kind):
        with pytest.raises(ValueError, match=f"--regions-dir .* not by {kind}"):
            small_spec(kind=kind, regions_dir=str(tmp_path / "regions"))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("estimator", ["mle", "sieve"])
    def test_enumerating_estimators_are_refused_when_built(self, monkeypatch, estimator):
        # the refusal used to come only when a replicate reached the estimator, after that
        # replicate's draw and its ms run
        def no_draw(*args):
            raise AssertionError("a spec that cannot run drew data")

        for name in ("sample_with_replacement", "_draw_pairs"):
            monkeypatch.setattr(model, name, no_draw)
        fields = dict(alphas=(0.3,), estimators=("ms", estimator),
                      sampling=(WITH_REPLACEMENT, WITHOUT_REPLACEMENT))
        with pytest.raises(ResourceCapError, match=f"cell n={ENUMERATION_CAP + 1}, .*S_n"):
            small_spec(n_values=(ENUMERATION_CAP, ENUMERATION_CAP + 1), **fields)
        small_spec(n_values=(ENUMERATION_CAP,), **fields)

    def test_lambda_accuracy_samples_with_replacement_only(self):
        fields = dict(kind="lambda_accuracy", budgets=(2000,), alphas=None)
        small_spec(**fields)
        for sampling in [(WITHOUT_REPLACEMENT,), (WITH_REPLACEMENT, WITHOUT_REPLACEMENT)]:
            with pytest.raises(ValueError, match="with replacement only"):
                small_spec(**fields, sampling=sampling)

    def test_estimated_margin_needs_with_replacement_for_ms(self):
        sampling = (WITH_REPLACEMENT, WITHOUT_REPLACEMENT)
        with pytest.raises(ValueError, match="fixed lambda_hat"):
            small_spec(lambda_hat=None, sampling=sampling)
        with pytest.raises(ValueError, match="fixed lambda_hat"):
            small_spec(lambda_hat=None, sampling=(WITHOUT_REPLACEMENT,), estimators=("ms",))
        small_spec(lambda_hat=0.3, sampling=sampling)
        small_spec(lambda_hat=None, sampling=(WITH_REPLACEMENT,))
        # borda needs no margin, so a borda-only without-replacement grid still runs
        rows = run_experiment(small_spec(lambda_hat=None, sampling=sampling,
                                         estimators=("borda",), replicates=1))
        assert {r.sampling for r in rows} == set(sampling)

    @pytest.mark.parametrize("fields, match", [
        (dict(n_values=(30, 1)), "cell n=1, alpha=0.5, with_replacement: n must be >= 2"),
        (dict(n_values=(30, 3), lambda_hat=None), "cell n=3, .*: n must be >= 4"),
        (dict(n_values=(30, 2), stages=None, alphas=(0.1,)),
         "cell n=2, alpha=0.1, with_replacement: 0 comparisons, fewer than the 1"),
        (dict(budgets=(2,), alphas=None, stages=3), "cell n=30, absolute=2, .*fewer than the 3"),
        (dict(budgets=(1,), alphas=None, stages=1, lambda_hat=None), "fewer than the 2"),
        (dict(kind="lambda_accuracy", budgets=(1,), alphas=None), "fewer than the 2"),
        (dict(alphas=(0.0,)), "cell n=30, alpha=0, with_replacement: 0 comparisons"),
        (dict(alphas=(-0.5,), sampling=(WITHOUT_REPLACEMENT,)), "per-pair probability -0.5"),
        (dict(alphas=(1.5,), sampling=(WITHOUT_REPLACEMENT,)), "per-pair probability 1.5"),
        (dict(lam=0.5), "lam and lambda_hat"),
        (dict(lambda_hat=0.0), "lam and lambda_hat"),
        (dict(stages=0), "stages must be >= 1"),
        (dict(estimators=("ms", "ms", "borda")), "duplicate estimators"),
        (dict(alphas=(math.inf,)), "cell n=30, alpha=inf, with_replacement: .* not a finite"),
        (dict(alphas=(math.nan,)), "cell n=30, alpha=nan, with_replacement: .* not a finite"),
        (dict(alphas=(1e307,)), "cell n=30, alpha=1e\\+307, .* not a finite"),  # N overflows
        (dict(alphas=(math.inf,), sampling=(WITHOUT_REPLACEMENT,)), "alpha=inf, .* not a finite"),
        (dict(budgets=(math.nan,), alphas=None), "cell n=30, absolute=nan, .* not a finite"),
        # int budgets past float range
        (dict(budgets=(10**400,), alphas=None), "cell n=30, absolute=inf, .* not a finite"),
        (dict(budgets=(-10**400,), alphas=None), "cell n=30, absolute=-inf, .* not a finite"),
    ])
    def test_cells_that_cannot_run_are_rejected_up_front(self, fields, match):
        with pytest.raises(ValueError, match=match):
            small_spec(**fields)

    def test_default_stage_count(self):
        assert default_stage_count(4) == 1
        assert default_stage_count(500) == 3
        assert default_stage_count(10_000) == 3


def physical_memory(monkeypatch, nbytes):
    """Make os.sysconf report ``nbytes`` of physical memory."""
    values = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", values.__getitem__)


def rule_bytes(sampling, records, n, stages=0):
    """The memory rule's bytes for one replicate: per record of its largest draw (with its
    two items and its drawn cell with replacement, its column offset without), per record
    of that draw's first block, per item and per item per stage, and its fixed bytes."""
    cell = 4 if math.comb(n, 2) < 2**32 else 8
    width = 2 * (2 if n < 2**15 else 4) + (
        model._col_dtype(n).itemsize if sampling == WITHOUT_REPLACEMENT else cell)
    items = n * (experiments._ITEM_BYTES + stages * experiments._STAGE_BYTES)
    return (records * (experiments._RECORD_BYTES[sampling] + width) + items
            + min(records, model._WIN_CHUNK) * experiments._BLOCK_BYTES[sampling]
            + experiments._FIXED_BYTES)


def traced_peak(run):
    """run()'s result, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryRule:
    """A cell is refused when its replicates, one per worker, would not fit in
    physical memory: records of the largest draw times bytes per record, plus
    n times bytes per item, plus fixed bytes."""

    @pytest.mark.parametrize("n, alpha, stages, sampling, lambda_hat", [
        *((400, alpha, None, sampling, lambda_hat) for alpha in (0.05, 1.0)
          for sampling, lambda_hat in ((WITH_REPLACEMENT, 0.3), (WITH_REPLACEMENT, None),
                                       (WITHOUT_REPLACEMENT, 0.3))),
        # small cells, whose fixed costs set their peaks, and n = 358, whose 63903 pairs
        # are nearly one block: the most any traced cell held above the rest of the rule
        (50, 1.0, 1, WITHOUT_REPLACEMENT, 0.3), (50, 1.0, 3, WITHOUT_REPLACEMENT, 0.3),
        (30, 0.05, None, WITH_REPLACEMENT, 0.3), (358, 1.0, 1, WITHOUT_REPLACEMENT, 0.3),
        # forty stages of ms's per-item state: 7.30 MB traced, past the 4.81 MB charged
        # before the rule counted stages
        (4000, 0.01, 40, WITHOUT_REPLACEMENT, 0.3)])
    def test_estimate_bounds_the_traced_peak(self, monkeypatch, n, alpha, stages, sampling,
                                             lambda_hat):
        fields = dict(n_values=(n,), alphas=(alpha,), stages=stages, replicates=1,
                      lambda_hat=lambda_hat, estimators=("ms", "borda", "random"),
                      sampling=(sampling,), pi_star="random", workers=1)
        spec = small_spec(**fields)
        run_experiment(spec)  # numpy imports some modules on first use
        peak = traced_peak(lambda: run_experiment(spec))[1]
        physical_memory(monkeypatch, peak)
        with pytest.raises(ResourceCapError):
            small_spec(**fields)
        physical_memory(monkeypatch, 3 * peak)  # and not far above it
        small_spec(**fields)

    @pytest.mark.parametrize("n", [92682, 92683])
    def test_draw_term_bounds_the_traced_sampler_peak(self, n):
        # C(n,2) passes 2**32 at n = 92683, where the drawn cells turn int64: the sampler holds
        # them beside a run-mark byte per draw, then beside its items, and the rule charges
        # their width.
        # The sampler's own n-sized arrays are three of int64 (rows, row starts, ranks).
        pi, law, total = random_permutation(n, np.random.default_rng(1)), star_matrix(n, 0.3), 2e6
        model.sample_with_replacement(pi, law, 1000, 1)
        peak = traced_peak(lambda: model.sample_with_replacement(pi, law, int(total), 3))[1]
        draw = (rule_bytes(WITH_REPLACEMENT, total, n) - n * experiments._ITEM_BYTES
                - experiments._FIXED_BYTES)
        assert peak <= draw + 24 * (n + 1)

    @pytest.mark.parametrize("lambda_hat, budget, records", [
        (0.3, 6000, 2000), (None, 6000, 3000), (0.3, 300_000, 100_000), (None, 300_000, 150_000)])
    def test_estimate_is_the_largest_draw(self, monkeypatch, lambda_hat, budget, records):
        # N comparisons: three stages of N/3, or margin halves of N/2 first; the block
        # term counts the records of one _WIN_CHUNK block at most
        need = rule_bytes(WITH_REPLACEMENT, records, 50, stages=3)
        fields = dict(n_values=(50,), alphas=None, budgets=(budget,), stages=3,
                      lambda_hat=lambda_hat)
        physical_memory(monkeypatch, need)
        small_spec(**fields, workers=1)
        physical_memory(monkeypatch, need - 1)
        with pytest.raises(ResourceCapError, match="1 replicate"):
            small_spec(**fields, workers=1)
        physical_memory(monkeypatch, 2 * need)  # one replicate per worker at once
        small_spec(**fields, workers=2)
        with pytest.raises(ResourceCapError, match="3 replicate"):
            small_spec(**fields, workers=3)

    @pytest.mark.parametrize("n, width", [(50, 1), (257, 1), (258, 2), (32767, 2), (32768, 2),
                                          (65537, 2), (65538, 4)])
    def test_estimate_without_replacement_is_the_whole_draw(self, monkeypatch, n, width):
        # each pair's column offset is held in the narrowest unsigned type that holds n - 2,
        # and its items in int16 up to n = 32767, int32 above
        assert model._col_dtype(n).itemsize == width
        need = rule_bytes(WITHOUT_REPLACEMENT, 0.5 * math.comb(n, 2), n, stages=3)
        fields = dict(n_values=(n,), sampling=(WITHOUT_REPLACEMENT,), stages=3, workers=1)
        physical_memory(monkeypatch, math.ceil(need))
        small_spec(**fields)
        physical_memory(monkeypatch, math.ceil(need) - 1)  # below need, whole or not
        with pytest.raises(ResourceCapError):
            small_spec(**fields)

    @pytest.mark.parametrize("fields", [
        dict(n_values=(10**6,), alphas=(1.0,)),
        dict(n_values=(10**6,), alphas=(1.0,), sampling=(WITHOUT_REPLACEMENT,)),
        dict(budgets=(10**30,), alphas=None),
    ])
    def test_refusal_comes_before_allocation(self, fields):
        def build():
            with pytest.raises(ResourceCapError, match="physical memory"):
                small_spec(**fields)

        assert traced_peak(build)[1] < 4 * 2**20

    def test_north_star_cell_is_accepted(self):
        # built only: a run takes seconds and about 170 MB of RSS
        spec = ExperimentSpec(kind="scaling_n", n_values=(20_000,), alphas=(0.1,), replicates=1,
                              estimators=("ms", "borda", "random"), pi_star="random",
                              sampling=(WITH_REPLACEMENT,))
        assert spec.n_values == (20_000,)


class TestRunExperiment:
    def test_row_accounting_includes_random_control(self):
        spec = small_spec(replicates=1, estimators=("ms", "borda"))
        rows = run_experiment(spec)
        # the uniform-random control is always appended
        assert sorted({r.estimator for r in rows}) == ["borda", "ms", "random"]
        assert len(rows) == 3

    def test_rows_satisfy_distance_sandwich(self):
        rows = run_experiment(small_spec(replicates=3, estimators=("ms", "borda", "random")))
        for r in rows:
            assert r.d_kt <= r.l1 <= 2 * r.d_kt

    def test_random_control_near_floor(self):
        spec = small_spec(n_values=(60,), replicates=20, estimators=("random",))
        rows = [r for r in run_experiment(spec) if r.estimator == "random"]
        floor = 60 * 59 / 4
        mean = np.mean([r.d_kt for r in rows])
        assert abs(mean - floor) / floor < 0.15

    def test_deterministic_under_worker_count(self):
        def canonical(rows):
            return [(r.kind, r.n, r.sampling, r.budget, r.lam, r.seed,
                     r.estimator, r.d_kt, r.l1, r.linf) for r in rows]

        rows1 = run_experiment(small_spec(workers=1))
        rows4 = run_experiment(small_spec(workers=4))
        assert canonical(rows1) == canonical(rows4)

    def test_both_sampling_models(self):
        spec = small_spec(sampling=(WITH_REPLACEMENT, WITHOUT_REPLACEMENT), replicates=1)
        rows = run_experiment(spec)
        kinds = {r.sampling for r in rows}
        assert kinds == {WITH_REPLACEMENT, WITHOUT_REPLACEMENT}
        without_rows = [r for r in rows if r.sampling == WITHOUT_REPLACEMENT]
        assert all(r.budget == 0.5 for r in without_rows)

    def test_estimated_margin_pipeline(self):
        # lambda_hat=None exercises the estimation path end to end
        spec = small_spec(n_values=(40,), alphas=(1.0,), lambda_hat=None, replicates=1)
        rows = run_experiment(spec)
        assert any(r.estimator == "ms" for r in rows)

    def test_seeds_follow_the_grid_position(self):
        spec = small_spec(n_values=(20, 25), alphas=(0.3, 0.6), replicates=2,
                          sampling=(WITH_REPLACEMENT, WITHOUT_REPLACEMENT), estimators=("ms",))
        seeds = {(r.n, r.sampling, r.budget, r.seed) for r in run_experiment(spec)}
        expected = set()
        for i_n, n in enumerate(spec.n_values):
            for i_b, alpha in enumerate(spec.alphas):
                for i_s, sampling in enumerate(spec.sampling):
                    budget = float(round(alpha * n * (n - 1) / 2)) \
                        if sampling == WITH_REPLACEMENT else alpha
                    expected |= {(n, sampling, budget, derive_seed(5, i_n, i_b, i_s, rep))
                                 for rep in range(2)}
        assert seeds == expected
        lam_spec = small_spec(kind="lambda_accuracy", n_values=(20, 25), alphas=None,
                              budgets=(300, 600), replicates=2)
        assert [r.seed for r in run_lambda_accuracy(lam_spec)] == [
            derive_seed(5, i_n, i_b, 0, rep)
            for i_n in range(2) for i_b in range(2) for rep in range(2)]

    def test_sieve_not_pinned_to_the_identity(self):
        # at n=6 the sieve radius covers S_6, so its net has a single member
        spec = small_spec(kind="mle_small_n", n_values=(6,), alphas=(1.0,), lam=0.25,
                          lambda_hat=0.25, stages=1, replicates=20, estimators=("sieve",),
                          sampling=(WITHOUT_REPLACEMENT,))
        sieve = [r.d_kt for r in run_experiment(spec) if r.estimator == "sieve"]
        assert len(sieve) == 20 and any(sieve)

    def test_small_n_mle_and_sieve(self):
        spec = small_spec(
            kind="mle_small_n", n_values=(5,), alphas=(1.0,),
            estimators=("mle", "sieve", "borda"), replicates=2,
            sampling=(WITHOUT_REPLACEMENT,), stages=1,
        )
        rows = run_experiment(spec)
        assert {r.estimator for r in rows} == {"mle", "sieve", "borda", "random"}

    def test_cap_refusal_names_limit(self):
        with pytest.raises(ResourceCapError, match="cell n=1000000, .*physical memory"):
            run_experiment(small_spec(n_values=(10**6,), alphas=(1.0,)))
        with pytest.raises(ResourceCapError, match="cell n=30, absolute=1e\\+30, .*physical memory"):
            run_experiment(small_spec(budgets=(10**30,), alphas=None))

    def test_lambda_kind_dispatch(self):
        spec = small_spec(kind="lambda_accuracy", budgets=(2000,), alphas=None,
                          n_values=(50,), replicates=2)
        with pytest.raises(ValueError):
            run_experiment(spec)
        results = run_lambda_accuracy(spec)
        assert len(results) == 2
        assert all(abs(r.lambda_hat - 0.3) == r.abs_error for r in results)

    def test_lambda_replicates_run_on_the_worker_pool(self, monkeypatch):
        # each draw waits for a second one at a barrier, which a lone thread never passes
        barrier, threads, draw = threading.Barrier(2, timeout=2), set(), draw_stages

        def spy(*args):
            threads.add(threading.get_ident())
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return draw(*args)

        monkeypatch.setattr(experiments, "draw_stages", spy)
        spec = small_spec(kind="lambda_accuracy", budgets=(2000,), alphas=None,
                          n_values=(50,), replicates=4, workers=2)
        assert len(run_lambda_accuracy(spec)) == 4
        assert len(threads) == 2


class TestSieveNet:
    # the radius is the minimax rate n^3/(N lam^2) or n/(p lam^2) at lam = 1/4, at least
    # 1 and at most the n(n-1)/2 inversions: 1.0, 3.2, 0.2 and 9600
    @pytest.mark.parametrize("n, sampling, budget, radius", [
        (4, WITH_REPLACEMENT, 1024, 1), (5, WITH_REPLACEMENT, 625, 3),
        (5, WITH_REPLACEMENT, 10_000, 1), (6, WITHOUT_REPLACEMENT, 0.01, 15)])
    def test_relabelled_net_is_a_maximal_packing(self, n, sampling, budget, radius):
        plain = greedy_maximal_packing(n, radius)
        for seed in range(3):
            net = experiments._sieve_net(n, sampling, budget, 0.25, seed)
            assert net.epsilon == plain.epsilon and len(net) == len(plain)
            members = net.members
            assert len(set(members)) == len(members)
            assert all(kendall_tau(a, b) > net.epsilon
                       for k, a in enumerate(members) for b in members[k + 1:])
            assert all(any(kendall_tau(pi, m) <= net.epsilon for m in members)
                       for pi in enumerate_permutations(n))

    def test_packing_is_built_once_per_n_and_radius(self, monkeypatch):
        # only the relabelling is per replicate: 20 replicates of one cell build one packing
        built, build = [], experiments.greedy_maximal_packing
        monkeypatch.setattr(experiments, "greedy_maximal_packing",
                            lambda n, radius: built.append((n, radius)) or build(n, radius))
        experiments._packing.cache_clear()
        spec = small_spec(kind="mle_small_n", n_values=(5, 6), alphas=(1.0,), lambda_hat=0.25,
                          stages=1, replicates=20, estimators=("sieve",),
                          sampling=(WITHOUT_REPLACEMENT,))
        assert len([r for r in run_experiment(spec) if r.estimator == "sieve"]) == 40
        assert sorted(built) == sorted(set(built)) and {n for n, _ in built} == {5, 6}
        experiments._packing.cache_clear()

    def test_one_member_net_is_not_always_the_identity(self):
        centres = {experiments._sieve_net(6, WITHOUT_REPLACEMENT, 0.01, 0.25, seed).members
                   for seed in range(10)}
        assert len(centres) > 1
        assert all(len(c) == 1 for c in centres)
        assert centres != {(Permutation.identity(6),)}


class TestStreamedStages:
    """The with-replacement stages drawn as ms_sort pulls them, against the
    eager split they replaced."""

    @pytest.mark.parametrize("lambda_hat", [0.3, None])
    def test_pipeline_matches_ms_sort_on_the_eager_split(self, monkeypatch, lambda_hat):
        monkeypatch.setattr(estimators, "GATE_C1", 1.0)
        n, total, stages, seed = 150, 40_000, 3, 17
        pi_star = random_permutation(n, np.random.default_rng(seed))
        law = star_matrix(n, 0.3)
        config = MsConfig(stages=stages)
        source, run_lam_hat = draw_stages(pi_star, law, WITH_REPLACEMENT, total, stages, seed,
                                          lambda_hat)
        run_pi, run_states = ms_sort(source, run_lam_hat, config)
        halves = [] if lambda_hat is not None else [total - total // 2, total // 2]
        parts = split_with_replacement(pi_star, law, halves + stage_budgets(total, stages),
                                       derive_seed(seed, 0))
        lam_hat = lambda_hat if lambda_hat is not None else estimate_lambda(parts[:2])
        pi_hat, states = ms_sort(parts[len(halves):], lam_hat, config)
        assert run_lam_hat == lam_hat
        assert run_pi == pi_hat
        assert states[-1].gate_fired.any()
        for a, b in zip(run_states, states, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a.history, b.history, strict=True))
            for name in ("last", "tau", "below_counts", "above_counts"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_pipeline_peak_stays_under_20_bytes_per_comparison(self):
        # the largest draw is a margin half of N/2 comparisons, nearly one pair each at this
        # density; it holds int32 first, second, counts and wins, 16 bytes per pair, and
        # peaks below that while drawn: the N int64 cells are narrowed to uint32 before
        # the sort, and second is decoded over the compressed cells. 18.0 traced at
        # n = 4000, 30.7 with int64 counts and wins and the drawn cells kept int64
        config = MsConfig(stages=3)

        def run(n, total):
            return ms_sort(*draw_stages(Permutation.identity(n), star_matrix(n, 0.25),
                                        WITH_REPLACEMENT, total, 3, 0), config)

        run(200, 10_000)  # numpy imports some modules on first use
        _, peak = traced_peak(lambda: run(4000, 2_000_000))
        assert peak < 20 * 1_000_000

    @pytest.mark.parametrize("lambda_hat", [0.3, None])
    def test_streamed_ms_rows_match_the_listed_grid(self, lambda_hat):
        def rows(estimators):
            spec = small_spec(n_values=(30, 45), lambda_hat=lambda_hat, replicates=3,
                              estimators=estimators, pi_star="random")
            return [astuple(r)[:-1] for r in run_experiment(spec)]  # all but runtime_ms

        listed = rows(("ms", "borda", "random"))
        streamed = rows(("ms",))
        assert streamed == [r for r in listed if r[6] in ("ms", "random")]
        assert {r[6] for r in listed} == {"ms", "borda", "random"}


class TestOneStageSource:
    """A replicate's rows from one pass over its stage source, against ms_sort
    and borda_sort on the listed stages."""

    @pytest.mark.parametrize("sampling, lambda_hat", [
        (WITH_REPLACEMENT, 0.3), (WITH_REPLACEMENT, None), (WITHOUT_REPLACEMENT, 0.3)])
    def test_replicate_rows_match_the_listed_stages(self, sampling, lambda_hat):
        # the default gate fires here: c1 n^2 (T/N) log(nT) is about 341 < n at alpha = 1
        n, seed = 400, 11
        spec = small_spec(n_values=(n,), alphas=(1.0,), stages=3, lambda_hat=lambda_hat,
                          estimators=("borda", "ms", "random"), sampling=(sampling,),
                          pi_star="random")
        budget, stages = experiments._cell_plan(spec, n, "alpha", 1.0, sampling)
        rows, states = experiments._run_cell_replicate(spec, n, sampling, budget, stages, seed)
        pi_star = experiments._pi_star(spec, n, seed)
        source, lam_hat = draw_stages(pi_star, star_matrix(n, 0.3), sampling, budget, stages,
                                      seed, lambda_hat)
        listed = list(source)
        config = MsConfig(stages=3)
        pi_ms, listed_states = ms_sort(listed, lam_hat, config)
        expected = {"ms": pi_ms, "borda": borda_sort(listed),
                    "random": random_permutation(n, np.random.default_rng(derive_seed(seed, 9)))}
        assert states[-1].gate_fired.any()
        assert [st.region_size() for st in states] == [st.region_size() for st in listed_states]
        assert {r.estimator: (r.d_kt, r.l1, r.linf) for r in rows} == {
            e: (kendall_tau(pi, pi_star), l1_distance(pi, pi_star), linf_distance(pi, pi_star))
            for e, pi in expected.items()}


class TestOneDrawPerReplicate:
    def _count_calls(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_borda_pools_the_stage_samples(self, monkeypatch):
        # the stage sources look the sampler and the decoder up in their own module
        with_calls = self._count_calls(monkeypatch, model, "sample_with_replacement")
        decode_calls = self._count_calls(monkeypatch, model, "_decode")
        without_calls = self._count_calls(monkeypatch, model, "_draw_pairs")
        spec = small_spec(replicates=3, stages=2, estimators=("ms", "borda"),
                          sampling=(WITH_REPLACEMENT, WITHOUT_REPLACEMENT))
        rows = run_experiment(spec)
        assert len(rows) == 2 * 3 * 3
        assert len(with_calls) == 3 * 2  # T per replicate
        assert len(decode_calls) == 3 * 2  # T per replicate
        assert len(without_calls) == 3  # one compact draw per replicate
        with_calls.clear()
        run_experiment(small_spec(replicates=3, stages=2, estimators=("ms", "borda"),
                                  lambda_hat=None))
        assert len(with_calls) == 3 * (2 + 2)  # the margin halves, then T

    @pytest.mark.parametrize("sampling", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
    def test_default_path_allocates_no_dense_matrix(self, sampling):
        n = 6000
        spec = ExperimentSpec(
            kind="scaling_n", n_values=(n,), alphas=(0.001,), lam=0.25, lambda_hat=0.25,
            stages=3, replicates=1, estimators=("ms", "borda"), sampling=(sampling,),
        )
        rows, peak = traced_peak(lambda: run_experiment(spec))
        assert {r.estimator for r in rows} == {"ms", "borda", "random"}
        assert peak < n * n / 4


class TestWithoutStream:
    """Without replacement, one compact draw feeds stages built when pulled."""

    @pytest.mark.parametrize("run", ["pipeline", "ms-only replicate", "ms and borda replicate"])
    def test_each_stage_is_freed_before_the_next_is_built(self, monkeypatch, run):
        alive = []
        original = model._decode

        def decode(*args):
            assert all(ref() is None for ref in alive), "an earlier stage is still referenced"
            dataset = original(*args)
            alive.extend(weakref.ref(x) for x in (dataset, dataset.first, dataset.second,
                                                 dataset.num, dataset.first_wins))
            return dataset

        monkeypatch.setattr(model, "_decode", decode)
        if run == "pipeline":
            ms_sort(*draw_stages(Permutation.identity(60), star_matrix(60, 0.3),
                                 WITHOUT_REPLACEMENT, 0.8, 3, 4, 0.3), MsConfig(stages=3))
        else:  # with borda, its win totals are summed in ms's pass
            estimators = ("ms",) if run == "ms-only replicate" else ("borda", "ms")
            run_experiment(small_spec(n_values=(60,), alphas=(0.8,), stages=3, replicates=1,
                                      estimators=estimators, sampling=(WITHOUT_REPLACEMENT,)))
        assert len(alive) == 3 * 5

    def test_a_missing_margin_passes_through_to_ms(self):
        # only with replacement is the margin estimated: without, no margin stays None,
        # which ms_sort refuses (run-ms refuses it before the draw: see test_cli)
        source, lam_hat = draw_stages(Permutation.identity(20), star_matrix(20, 0.3),
                                      WITHOUT_REPLACEMENT, 0.5, 2, 0)
        assert lam_hat is None and len(source.counts) == 2
        with pytest.raises(ValueError, match="need an estimated margin"):
            ms_sort(source, lam_hat, MsConfig(stages=2))

    @staticmethod
    def _dense_pipeline_peak(n, stages=3):
        """The traced peak of an ms pipeline on n items at p = 1 and T = ``stages``."""
        config = MsConfig(stages=stages)

        def run(size):
            return ms_sort(*draw_stages(Permutation.identity(size), star_matrix(size, 0.25),
                                        WITHOUT_REPLACEMENT, 1.0, stages, 0, 0.25), config)

        run(200)  # numpy imports some modules on first use
        return traced_peak(lambda: run(n))[1]

    def test_pipeline_peak_stays_under_11_bytes_per_pair(self):
        # the bound the draw met when it held uint32 pair numbers and bool wins (10.4 traced)
        assert self._dense_pipeline_peak(2000) < 11 * math.comb(2000, 2)

    def test_pipeline_peak_stays_under_8_5_bytes_per_pair(self):
        # the held draw (uint16 column offsets, packed bits) and its two label bit planes
        # hold 2.4 bytes per pair; a third of the pairs are decoded at a time, at 9 bytes
        # each (int32 first, second written over the gathered offsets, bool wins, a count
        # column of no bytes), and ms_sort reads the stage in place: 5.4 bytes per pair, 5.4
        # traced at n = 2000; 10.4 with the draw held as uint32 pair numbers and bool wins
        assert self._dense_pipeline_peak(2000) < 8.5 * math.comb(2000, 2)

    @pytest.mark.parametrize("stages, bound", [(3, 5.8), (1, 8.8)])
    def test_pipeline_peak_holds_the_labels_as_bit_planes(self, stages, bound):
        # the stage labels take one bit plane per bit of T - 1, 1/8 byte per pair each: two
        # at T = 3 (5.4 traced), none at T = 1 (8.3 traced); held as one uint8 per pair, they
        # traced 6.2 and 9.3
        assert self._dense_pipeline_peak(2000, stages) < bound * math.comb(2000, 2)


class TestSummaries:
    def test_single_row_stats(self):
        rows = [ResultRow("scaling_n", 10, WITH_REPLACEMENT, 100.0, 0.25, 1, "ms",
                          5, 8, 2, 1.0)]
        summary = summarize(rows)
        assert len(summary) == 1
        s = summary[0]
        assert s.d_kt_mean == 5 and s.d_kt_std == 0 and s.count == 1

    def test_two_identical_rows_zero_std(self):
        row = ResultRow("scaling_n", 10, WITH_REPLACEMENT, 100.0, 0.25, 1, "ms",
                        5, 8, 2, 1.0)
        s = summarize([row, row])[0]
        assert s.d_kt_std == 0 and s.count == 2

    def test_exact_power_law_slope(self):
        xs = [100.0, 200.0, 400.0, 800.0]
        ys = [3.0 * x for x in xs]
        assert abs(loglog_slope(xs, ys) - 1.0) < 1e-6

    @pytest.mark.parametrize("xs, ys, message", [
        ([100.0, 200.0], [3.0, 0.0], r"point \(200.0, 0.0\) has no finite logarithm"),
        ([100.0, 200.0], [-1.0, 3.0], r"point \(100.0, -1.0\)"),
        ([0.0, 200.0], [1.0, 3.0], r"point \(0.0, 1.0\)"),
        ([-5, 200.0], [1.0, 3.0], r"point \(-5, 1.0\)"),
        ([100.0, math.nan], [1.0, 3.0], r"point \(nan, 3.0\)"),
        ([100.0, 200.0], [1.0, math.inf], r"point \(200.0, inf\)"),
        ([300.0, 300.0, 300.0], [1.0, 2.0, 3.0], "every x is 300.0: the slope is undefined"),
        ([300.0], [1.0], "need at least two points"),
    ])
    def test_slope_of_points_with_no_logarithm_is_refused(self, xs, ys, message):
        # a mean error of 0 is reachable at a high margin: no slope is a number then
        with pytest.raises(ValueError, match=message):
            loglog_slope(xs, ys)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsvAndRegions:
    def test_csv_deterministic_and_excludes_runtime(self, tmp_path):
        spec = small_spec(replicates=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows_to_csv(run_experiment(spec), a)
        rows_to_csv(run_experiment(spec), b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert "runtime" not in header

    def test_timings_sidecar(self, tmp_path):
        rows = run_experiment(small_spec(replicates=1))
        rows_to_csv(rows, tmp_path / "r.csv", timings_path=tmp_path / "t.csv")
        assert "runtime_ms" in (tmp_path / "t.csv").read_text().splitlines()[0]

    def test_pbm_format(self, tmp_path):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        write_pbm(mask, tmp_path / "m.pbm")
        content = (tmp_path / "m.pbm").read_bytes().decode()
        lines = content.splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "2 2"
        assert lines[2].split() == ["1", "0"]
        assert lines[3].split() == ["0", "1"]

    def test_emit_regions_files_and_dims(self, tmp_path):
        states = [initial_ms_state(3)]
        paths = emit_regions(states, tmp_path / "regions")
        assert paths[0].name == "stage_0.pbm"
        lines = paths[0].read_text().splitlines()
        assert lines[1] == "3 3"
        assert all(tok == "1" for tok in lines[2].split())

    def test_region_snapshot_experiment(self, tmp_path):
        spec = small_spec(
            kind="region_snapshot", n_values=(40,), alphas=(1.0,),
            stages=2, replicates=1, estimators=("ms",),
            regions_dir=str(tmp_path / "regions"),
        )
        rows = run_experiment(spec)
        assert any(r.estimator == "ms" for r in rows)
        out = tmp_path / "regions"
        assert (out / "stage_0.pbm").exists()
        assert (out / "stage_2.pbm").exists()
        sizes = (out / "region_sizes.csv").read_text().splitlines()
        assert sizes[0] == "stage,region_size"
        assert sizes[1] == "0,1600"

    @pytest.mark.parametrize("rows", [1, 7, 120, 1000])
    def test_region_blocks_match_the_dense_bitmap(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(experiments, "_PBM_BLOCK_ROWS", rows)
        samples = split_with_replacement(Permutation.identity(120), star_matrix(120, 0.4),
                                         stage_budgets(30_000, 4), 4)
        config = MsConfig(stages=4)
        _, states = ms_sort(samples, 0.4, config)
        assert len(set(states[-2].last.tolist())) > 1  # rows hold different stages
        paths = emit_regions(states, tmp_path / "blocks")
        assert len(paths) == len(states)
        for state, path in zip(states, paths):
            write_pbm(uncertain(state), tmp_path / "dense.pbm")
            assert path.read_bytes() == (tmp_path / "dense.pbm").read_bytes()

    def test_region_snapshot_builds_no_dense_array(self, tmp_path):
        # a dense n x n float64 view alone would take 8 n^2 bytes
        n = 4000
        rng = np.random.default_rng(3)
        state = MsState(stage=1, history=(np.zeros(n), rng.random(n)),
                        last=np.ones(n, dtype=np.int64), tau=rng.random(n) / 4,
                        below_counts=np.zeros(n, dtype=np.int64),
                        above_counts=np.zeros(n, dtype=np.int64), gate_fired=np.ones(n, bool))
        _, peak = traced_peak(lambda: emit_regions([state], tmp_path))
        assert (tmp_path / "stage_1.pbm").stat().st_size == len(f"P1\n{n} {n}\n") + 2 * n * n
        assert peak < 2 * n * n
