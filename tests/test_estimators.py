import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from noisysort import estimators, model
from noisysort.counting import greedy_maximal_packing, PackingSet
from noisysort.errors import ResourceCapError, SizeMismatchError
from noisysort.estimators import (
    GATE_C1,
    LAMBDA_CLAMP,
    MsConfig,
    _count_below,
    agreements,
    borda_sort,
    brute_force_mle,
    estimate_lambda,
    initial_ms_state,
    ms_sort,
    sieve_mle,
)
from noisysort.model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ComparisonDataset,
    SamplingTag,
    StageSource,
    sample_with_replacement,
    sample_without_replacement,
    split_with_replacement,
    stage_budgets,
    star_matrix,
)
from noisysort.perms import (
    Permutation,
    compose,
    enumerate_permutations,
    invert,
    kendall_tau,
    random_permutation,
)


from oracles import (
    certain_above,
    certain_below,
    dense_ms_states,
    loop_mle,
    loop_mle_objective,
    make_dataset,
    merge_datasets,
    noise_free_full,
    random_member_matrix,
    relabel_items,
    split_without_replacement,
    uncertain,
    whole_estimate_lambda,
    wins_dense,
)


class TestBordaSort:
    def test_all_zero_wins_gives_identity(self):
        d = make_dataset(4, [(1, 2, 1, 0), (3, 4, 1, 0)])
        # wins: item2 and item4 have 1 each... make truly all-zero instead
        d = make_dataset(4, [])
        assert borda_sort([d]) == Permutation.identity(4)

    def test_increasing_wins_recover_order(self):
        d = noise_free_full(Permutation.identity(5))
        assert borda_sort([d]) == Permutation.identity(5)
        pi = Permutation((3, 1, 4, 2, 5))
        assert borda_sort([noise_free_full(pi)]) == pi

    def test_noisy_large_sample_close_but_not_exact(self):
        n, lam = 100, 0.45
        dks = []
        for seed in range(3):
            d = sample_without_replacement(Permutation.identity(n), star_matrix(n, lam), 1.0, seed)
            dks.append(kendall_tau(borda_sort([d]), Permutation.identity(n)))
        assert max(dks) > 0
        assert all(dk < 0.05 * n * (n - 1) / 4 for dk in dks)

    def test_tie_break_by_index(self):
        # items 2 and 3 tie on wins; 2 must come first
        d = make_dataset(3, [(1, 2, 2, 0), (1, 3, 2, 0)])
        assert borda_sort([d]) == Permutation((1, 2, 3))


class TestEstimateLambda:
    def test_algebraic_identity(self):
        # sample1 sorts items exactly; the single wide-gap pair (4, 1) holds
        # win sum X = 1, and with N = 16: (2/16) * C(4,2)/C(2,2) * 1 - 1/2 = 1/4
        s1 = make_dataset(4, [(1, 2, 1, 0), (1, 3, 1, 0), (1, 4, 1, 0),
                              (2, 3, 1, 0), (2, 4, 1, 0), (3, 4, 1, 0)])
        s2 = make_dataset(4, [(1, 2, 9, 4), (1, 4, 1, 0)])
        assert borda_sort([s1]) == Permutation.identity(4)
        assert estimate_lambda([s1, s2]) == pytest.approx(0.25)

    def test_index_set_size_identity(self):
        # pairs with rank gap above n//2 number exactly C(n//2, 2)
        for n in (4, 6, 8, 10, 500):
            gap = n // 2
            count = sum(1 for a in range(1, n + 1) for b in range(1, n + 1) if a - b > gap)
            assert count == math.comb(gap, 2)

    def test_monte_carlo_accuracy(self):
        n, lam, total = 200, 0.25, 200_000
        m = star_matrix(n, lam)
        errs = []
        for seed in range(5):
            s1, s2 = split_with_replacement(
                Permutation.identity(n), m, [total // 2, total // 2], seed
            )
            errs.append(abs(estimate_lambda([s1, s2]) - lam))
        assert np.median(errs) < 0.02

    def test_clamped_into_open_interval(self):
        # all wide-gap comparisons lost: raw estimate falls below zero
        s1 = noise_free_full(Permutation.identity(4))
        s2 = make_dataset(4, [(1, 4, 10, 10)])  # item 1 beats item 4 ten times
        est = estimate_lambda([s1, s2])
        assert est == pytest.approx(1e-6)

    def test_requires_with_replacement(self):
        s1 = noise_free_full(Permutation.identity(6))
        bad = make_dataset(6, [(1, 2, 1, 0)], kind=WITHOUT_REPLACEMENT, budget=0.5)
        with pytest.raises(ValueError):
            estimate_lambda([bad, s1])

    def test_small_n_rejected(self):
        s = noise_free_full(Permutation.identity(3))
        with pytest.raises(ValueError):
            estimate_lambda([s, s])

    def test_first_half_is_dropped_before_the_second_is_pulled(self):
        halves = split_with_replacement(
            Permutation.identity(60), star_matrix(60, 0.25), [3000, 3000], 8)
        expected = estimate_lambda(halves)
        # the second half is still held when the stream is asked for a third
        stream = StageSource(60, (3000, 3000), lambda: _checked_stream(halves, last_dies=False))
        assert estimate_lambda(stream) == expected

    # blocks of 1 and 7 records cross every edge; the sum is of integers, so it is exact
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("n, lam, seed", [(40, 0.2, 0), (53, 0.1, 1), (66, 0.3, 2), (120, 0.25, 3)])
    def test_blocked_second_half_matches_whole_formula(self, monkeypatch, chunk, n, lam, seed):
        halves = split_with_replacement(random_permutation(n, np.random.default_rng(seed)),
                                        star_matrix(n, lam), [1500, 1500], seed)
        expected = whole_estimate_lambda(*halves)
        assert LAMBDA_CLAMP < expected < 0.5 - LAMBDA_CLAMP
        monkeypatch.setattr(model, "_WIN_CHUNK", chunk)
        assert estimate_lambda(halves) == expected

    def test_second_half_is_read_in_place(self, monkeypatch):
        # no record-sized temporary: the traced peak stays under one int64 array
        # over the second half's records (about four of them before blocking)
        monkeypatch.setattr(model, "_WIN_CHUNK", 512)
        halves = split_with_replacement(random_permutation(400, np.random.default_rng(4)),
                                        star_matrix(400, 0.25), [100_000, 100_000], 4)
        expected = whole_estimate_lambda(*halves)
        tracemalloc.start()
        try:
            lam_hat = estimate_lambda(halves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lam_hat == expected
        assert peak < 8 * halves[1].num_pairs

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_exactly_two_halves(self, count):
        halves = split_with_replacement(
            Permutation.identity(10), star_matrix(10, 0.25), [200] * 3, 8)[:count]
        with pytest.raises(ValueError):
            estimate_lambda(iter(halves))


def ms_inputs(n, lam, total, stages, master_seed, lam_hat=None):
    m = star_matrix(n, lam)
    samples = split_with_replacement(
        Permutation.identity(n), m, stage_budgets(total, stages), master_seed
    )
    return samples


def _copy(sample):
    return ComparisonDataset(n=sample.n, first=sample.first.copy(), second=sample.second.copy(),
                             num=sample.num.copy(), first_wins=sample.first_wins.copy(),
                             tag=sample.tag, seed=sample.seed)


def _checked_stream(samples, last_dies=True):
    """Fresh copies of ``samples``, one at a time; each copy must be dead
    before the next one is built, and (``last_dies``) the last one before
    the reader asks for one more."""
    alive = None
    for sample in samples:
        assert alive is None or alive() is None, "the previous sample is still referenced"
        copy = _copy(sample)
        alive = weakref.ref(copy)
        yield copy
        del copy
    assert not last_dies or alive() is None, "the last sample is still referenced"


class TestMsSort:
    def test_single_item(self):
        d = make_dataset(1, [])
        cfg = MsConfig(stages=1)
        pi_hat, states = ms_sort([d], 0.25, cfg)
        assert pi_hat == Permutation.identity(1)
        assert states[0].region_size() == 1

    def test_one_stage_degenerates_to_borda(self):
        for seed in (0, 1, 2):
            d = sample_with_replacement(Permutation.identity(40), star_matrix(40, 0.3), 900, seed)
            pi_hat, states = ms_sort([d], 0.3, MsConfig(stages=1))
            assert pi_hat == borda_sort([d])
            assert len(states) == 2

    def test_partition_invariant_every_stage(self):
        samples = ms_inputs(120, 0.4, 20_000, 3, master_seed=4)
        cfg = MsConfig(stages=3)
        _, states = ms_sort(samples, 0.4, cfg)
        for st in states:
            total = (uncertain(st).astype(int) + certain_below(st).astype(int)
                     + certain_above(st).astype(int))
            assert (total == 1).all()
            assert uncertain(st).diagonal().all()

    def test_gate_never_fires_freezes_sets(self, monkeypatch):
        monkeypatch.setattr(estimators, "GATE_C1", 1e12)
        samples = ms_inputs(60, 0.4, 3_000, 2, master_seed=9)
        cfg = MsConfig(stages=2)
        _, states = ms_sort(samples, 0.4, cfg)
        for st in states[1:]:
            assert st.region_size() == 60 * 60
            assert not st.gate_fired.any()

    def test_region_nonincreasing_on_high_signal_run(self):
        n, lam = 300, 0.45
        total = 5 * math.comb(n, 2)
        samples = ms_inputs(n, lam, total, 3, master_seed=2)
        cfg = MsConfig(stages=3)
        _, states = ms_sort(samples, lam, cfg)
        sizes = [st.region_size() for st in states]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] < sizes[0]

    def test_certainty_soundness_high_signal(self):
        n, lam = 300, 0.45
        total = 5 * math.comb(n, 2)
        ranks = Permutation.identity(n).to_array()
        for seed in range(3):
            samples = ms_inputs(n, lam, total, 2, master_seed=seed)
            cfg = MsConfig(stages=2)
            _, states = ms_sort(samples, lam, cfg)
            for st in states[1:]:
                rows, cols = np.nonzero(certain_below(st))
                assert np.all(ranks[cols] < ranks[rows])
                rows, cols = np.nonzero(certain_above(st))
                assert np.all(ranks[cols] > ranks[rows])

    def test_relabeling_equivariance(self):
        # relabeling items permutes all stage scores identically; the error
        # is then relabel-invariant once ties are broken consistently with
        # the relabeling (scores sit on a grid, so exact ties are common)
        n, lam, stages = 80, 0.45, 2
        total = 5 * math.comb(n, 2)
        rng = np.random.default_rng(31)
        rho = random_permutation(n, rng)
        samples = ms_inputs(n, lam, total, stages, master_seed=12)
        relabeled = [relabel_items(s, rho) for s in samples]
        cfg = MsConfig(stages=stages)
        _, states = ms_sort(samples, lam, cfg)
        _, states_r = ms_sort(relabeled, lam, cfg)
        r = rho.to_array() - 1
        for st, st_r in zip(states[1:], states_r[1:]):
            assert np.allclose(st_r.scores[r], st.scores, rtol=1e-12, atol=1e-9)

        def ranks_with_tiebreak(scores, order_key):
            rounded = np.round(scores, 9)  # collapse float noise below the grid
            order = np.lexsort((order_key, rounded))
            ranks = np.empty(n, dtype=np.int64)
            ranks[order] = np.arange(1, n + 1)
            return Permutation.from_array(ranks)

        pi_hat = ranks_with_tiebreak(states[-1].scores, np.arange(n))
        rho_inv = invert(rho).to_array()
        pi_hat_r = ranks_with_tiebreak(states_r[-1].scores, rho_inv)
        pi_star = Permutation.identity(n)
        pi_star_r = compose(invert(rho), pi_star)
        assert kendall_tau(pi_hat_r, pi_star_r) == kendall_tau(pi_hat, pi_star)

    def test_without_replacement_buckets_accepted(self):
        n, lam = 60, 0.35
        d = sample_without_replacement(Permutation.identity(n), star_matrix(n, lam), 0.9, 3)
        buckets = split_without_replacement(d, 2, 17)
        cfg = MsConfig(stages=2)
        pi_hat, _ = ms_sort(buckets, lam, cfg)
        assert kendall_tau(pi_hat, Permutation.identity(n)) < n * (n - 1) / 8

    def test_input_validation(self):
        samples = ms_inputs(20, 0.3, 400, 2, master_seed=5)
        with pytest.raises(ValueError):
            ms_sort(samples, 0.3, MsConfig(stages=3))
        with pytest.raises(ValueError):
            ms_sort(samples, 0.7, MsConfig(stages=2))
        uneven = split_with_replacement(
            Permutation.identity(20), star_matrix(20, 0.3), [100, 300], 5
        )
        with pytest.raises(ValueError):
            ms_sort(uneven, 0.3, MsConfig(stages=2))
        with pytest.raises(ValueError):
            MsConfig(stages=0)

    @pytest.mark.parametrize("scale", [0.0, math.nan, math.inf])
    def test_threshold_scale_must_be_finite_and_positive(self, scale):
        # an infinite scale would never close a pair
        with pytest.raises(ValueError, match="finite and positive"):
            MsConfig(stages=2, threshold_scale=scale)

    def test_streamed_stages_match_the_list_and_die_one_by_one(self):
        samples = ms_inputs(120, 0.4, 20_000, 3, master_seed=4)
        cfg = MsConfig(stages=3)
        pi_list, states_list = ms_sort(samples, 0.4, cfg)
        counts = tuple(s.total_comparisons() for s in samples)
        source = StageSource(120, counts, lambda: _checked_stream(samples))
        pi_stream, states_stream = ms_sort(source, 0.4, cfg)
        assert pi_stream == pi_list
        assert states_list[1].gate_fired.any()
        for a, b in zip(states_list, states_stream, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a.history, b.history, strict=True))
            for name in ("last", "tau", "below_counts", "above_counts"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("pulled, match", [
        (lambda s: s[:2], "got 2 stage samples for 3 stages"),
        (lambda s: s[:0], "got no stage samples"),
        (lambda s: s + s[:1], "more than 3 stage samples"),
        (lambda s: [s[0], ms_inputs(31, 0.3, 3_001, 3, master_seed=6)[1]], "disagree on n"),
        (lambda s: [s[0], s[1], s[0]], "stage 3 holds 1001 comparisons, not 1000"),
    ])
    def test_stream_errors(self, pulled, match):
        samples = ms_inputs(30, 0.3, 3_001, 3, master_seed=6)
        counts = tuple(s.total_comparisons() for s in samples)
        with pytest.raises(ValueError, match=match):
            ms_sort(StageSource(30, counts, lambda: iter(pulled(samples))), 0.3, MsConfig(stages=3))


class TestUncertaintyRegion:
    def test_initial_state_is_everything(self):
        st = initial_ms_state(3)
        assert uncertain(st).all() and uncertain(st).shape == (3, 3)
        assert not certain_below(st).any() and not certain_above(st).any()
        assert st.region_size() == 9

    def test_diagonal_always_present(self):
        samples = ms_inputs(50, 0.45, 10_000, 2, master_seed=1)
        cfg = MsConfig(stages=2)
        _, states = ms_sort(samples, 0.45, cfg)
        for st in states:
            assert uncertain(st).diagonal().all()

    def test_dense_view_shape_and_count(self):
        st = initial_ms_state(4)
        assert uncertain(st).shape == (4, 4) and uncertain(st).sum() == 16


def _with_replacement_case(n, lam, total, stages, seed, law="star"):
    matrix = star_matrix(n, lam) if law == "star" else random_member_matrix(n, lam, 0.05, seed)
    return split_with_replacement(
        Permutation.identity(n), matrix, stage_budgets(total, stages), seed
    )


def _without_replacement_case(n, lam, p, stages, seed):
    full = sample_without_replacement(Permutation.identity(n), star_matrix(n, lam), p, seed)
    return split_without_replacement(full, stages, seed + 1)


# (id, stage samples, lam, config, GATE_C1); the ids name what the gate does
DENSE_REFERENCE_CASES = [
    ("star-all-then-some", lambda: _with_replacement_case(120, 0.4, 20_000, 3, 4),
     0.4, MsConfig(stages=3), GATE_C1),
    ("star-high-signal", lambda: _with_replacement_case(300, 0.45, 5 * math.comb(300, 2), 3, 2),
     0.45, MsConfig(stages=3), GATE_C1),
    ("star-theoretical-scale", lambda: _with_replacement_case(120, 0.4, 20_000, 3, 4),
     0.4, MsConfig(stages=3, threshold_scale=1.0), GATE_C1),
    ("star-four-stages", lambda: _with_replacement_case(120, 0.4, 30_000, 4, 4),
     0.4, MsConfig(stages=4), GATE_C1),
    ("star-gate-never", lambda: _with_replacement_case(60, 0.4, 3_000, 2, 9),
     0.4, MsConfig(stages=2), 1e12),
    ("star-small-ties", lambda: _with_replacement_case(12, 0.3, 200, 2, 5),
     0.3, MsConfig(stages=2), 0.01),
    ("random-member", lambda: _with_replacement_case(
        100, 0.3, 5 * math.comb(100, 2), 3, 7, law="random"),
     0.3, MsConfig(stages=3), GATE_C1),
    ("random-member-theoretical-scale", lambda: _with_replacement_case(
        100, 0.3, 5 * math.comb(100, 2), 3, 7, law="random"),
     0.3, MsConfig(stages=3, threshold_scale=1.0), GATE_C1),
    ("without-replacement", lambda: _without_replacement_case(80, 0.35, 0.9, 2, 3),
     0.35, MsConfig(stages=2), 0.5),
    # every pair once per stage, so stage-1 scores are 0..5 and, at this scale,
    # tau is exactly 2.0: stage 2 keeps the records at a gap of exactly tau open
    ("star-gap-at-tau", lambda: [noise_free_full(Permutation.identity(6))] * 2,
     0.3, MsConfig(stages=2, threshold_scale=0.027862011325805236), 0.5),
]


class TestDenseReference:
    """ms_sort's per-row state against the dense n x n partition it replaced."""

    @pytest.mark.parametrize("lam_offset", [0.0, -0.1])
    @pytest.mark.parametrize(
        "make, lam, config, c1", [c[1:] for c in DENSE_REFERENCE_CASES],
        ids=[c[0] for c in DENSE_REFERENCE_CASES],
    )
    def test_matches_dense_reference_every_stage(self, monkeypatch, make, lam, config, c1,
                                                 lam_offset):
        monkeypatch.setattr(estimators, "GATE_C1", c1)  # ms_sort and the reference read it
        samples = make()
        lam_hat = lam + lam_offset
        pi_hat, states = ms_sort(samples, lam_hat, config)
        ranks, expected = dense_ms_states(samples, lam_hat, config)
        assert np.array_equal(pi_hat.to_array(), ranks)
        assert len(states) == len(expected)
        for st, ref in zip(states, expected):
            if ref["scores"] is None:
                assert st.scores is None and st.gate_fired is None
            else:
                assert np.array_equal(st.scores, ref["scores"])
                assert np.array_equal(st.gate_fired, ref["gate_fired"])
            assert st.region_size() == int(ref["uncertain"].sum())
            assert np.array_equal(certain_below(st), ref["below"])
            assert np.array_equal(certain_above(st), ref["above"])
            assert np.array_equal(uncertain(st), ref["uncertain"])

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize(
        "make, lam, config, c1",
        [c[1:] for c in DENSE_REFERENCE_CASES if c[0] != "star-high-signal"],
        ids=[c[0] for c in DENSE_REFERENCE_CASES if c[0] != "star-high-signal"],
    )
    def test_record_blocks_match_dense_reference(self, monkeypatch, make, lam, config, c1,
                                                 chunk):
        # the stage's records scored a few at a time: block edges change no bit; the
        # pooled totals, added into what the vector holds, are every item's wins
        # over all stages and leave the permutation and the states as they were
        monkeypatch.setattr(estimators, "GATE_C1", c1)
        samples = make()
        monkeypatch.setattr(model, "_WIN_CHUNK", chunk)
        pi_hat, states = ms_sort(samples, lam, config)
        start = np.arange(samples[0].n, dtype=np.float64)
        totals = start.copy()
        pi_tot, states_tot = ms_sort(samples, lam, config, totals=totals)
        ranks, expected = dense_ms_states(samples, lam, config)
        assert np.array_equal(pi_hat.to_array(), ranks)
        assert np.array_equal(totals - start, sum(wins_dense(s).sum(axis=1) for s in samples))
        assert pi_tot == pi_hat
        for st, tot, ref in zip(states[1:], states_tot[1:], expected[1:], strict=True):
            assert np.array_equal(st.scores, ref["scores"])
            assert np.array_equal(st.gate_fired, ref["gate_fired"])
            assert np.array_equal(uncertain(st), ref["uncertain"])
            for name in ("scores", "gate_fired", "last", "tau", "below_counts", "above_counts"):
                assert np.array_equal(getattr(tot, name), getattr(st, name))

    def test_scores_read_the_stage_records_in_place(self, monkeypatch):
        # no record-sized copy or temporary: the traced peak stays under one int64
        # array over a stage's records, with gates fired and two stages held
        monkeypatch.setattr(model, "_WIN_CHUNK", 512)
        n, stages = 400, 3
        samples = _with_replacement_case(n, 0.45, 3 * 100_000, stages, 3)
        config = MsConfig(stages=stages)
        ms_sort(samples, 0.45, config)
        for totals in (None, np.zeros(n)):  # the pooled sums add no record-sized array
            tracemalloc.start()
            try:
                _, states = ms_sort(samples, 0.45, config, totals=totals)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert set(states[2].last.tolist()) == {1, 2}  # stage 3 tests two held stages
            assert peak < 8 * min(s.num_pairs for s in samples)

    def test_borda_reads_the_stage_records_in_place(self, monkeypatch):
        # borda runs ms_sort's kernel with nothing held: the same bound, with no
        # per-stage copy of the item indices or float copy of the win counts
        monkeypatch.setattr(model, "_WIN_CHUNK", 512)
        samples = _with_replacement_case(400, 0.45, 3 * 100_000, 3, 3)
        borda_sort(samples)
        tracemalloc.start()
        try:
            pi_hat = borda_sort(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pi_hat == _borda_oracle(merge_datasets(samples))
        assert peak < 8 * min(s.num_pairs for s in samples)

    def test_a_case_holds_a_score_gap_exactly_at_tau(self, monkeypatch):
        # pins the open-record boundary |S_j - S_i| <= tau_i of fired rows
        _, make, lam, config, c1 = next(c for c in DENSE_REFERENCE_CASES
                                        if c[0] == "star-gap-at-tau")
        monkeypatch.setattr(estimators, "GATE_C1", c1)
        samples = make()
        _, states = ms_sort(samples, lam, config)
        fired = states[1]
        assert fired.gate_fired.all() and np.all(fired.tau == 2.0)
        gaps = np.abs(fired.scores[samples[1].second - 1] - fired.scores[samples[1].first - 1])
        assert np.any(gaps == 2.0) and np.any(gaps > 2.0)

    def test_cases_cover_every_gate_outcome(self, monkeypatch):
        outcomes = set()
        kinds = set()
        held = set()  # the stages rows hold as a stage tests its open records
        for _, make, lam, config, c1 in DENSE_REFERENCE_CASES:
            monkeypatch.setattr(estimators, "GATE_C1", c1)
            samples = make()
            kinds.add(samples[0].tag.kind)
            _, states = ms_sort(samples, lam, config)
            for st in states[1:]:
                fired = st.gate_fired
                outcomes.add("all" if fired.all() else "some" if fired.any() else "none")
            for st in states[:-1]:
                stages = set(st.last.tolist())
                # every row starts with n open items, so all rows first fire at
                # stage 1 or none do: never-fired rows sit beside no fired row
                assert stages == {0} or 0 not in stages
                held.add("none fired" if stages == {0} else len(stages))
        assert outcomes == {"all", "some", "none"}
        assert held == {"none fired", 1, 2, 3}
        assert kinds == {WITH_REPLACEMENT, WITHOUT_REPLACEMENT}


@settings(max_examples=200, deadline=None)
@given(
    levels=hst.lists(hst.integers(0, 6), min_size=1, max_size=40),
    base=hst.sampled_from([0.0, 1.0, 0.1, 3e7, -5e12, 1e17]),
    step=hst.sampled_from([1.0, 0.1, 1e-3, 0.3]),
    pick=hst.lists(hst.tuples(hst.integers(0, 39), hst.integers(0, 39),
                              hst.floats(0, 10)), min_size=1, max_size=20),
    from_gap=hst.booleans(),
)
def test_count_below_matches_dense_count(levels, base, step, pick, from_gap):
    # tied scores, tau equal to an exact score gap, and scores large enough
    # that rounding in S_j - S_i decides membership
    scores = base + step * np.asarray(levels, dtype=np.float64)
    n = len(scores)
    rows = np.array([i % n for i, _, _ in pick])
    if from_gap:
        tau = np.array([abs(scores[j % n] - scores[i % n]) for i, j, _ in pick])
    else:
        tau = np.array([u * step for _, _, u in pick])
    gaps = scores[None, :] - scores[rows, None]
    ordered = np.sort(scores)
    below = _count_below(ordered, scores[rows], -tau)
    above = _count_below(-ordered[::-1], -scores[rows], -tau)
    assert np.array_equal(below, (gaps < -tau[:, None]).sum(axis=1))
    assert np.array_equal(above, (gaps > tau[:, None]).sum(axis=1))


def _uniform_pairs_stage(n, total, rng):
    """One with-replacement stage over n items without building the n x n law."""
    first = rng.integers(1, n, size=total)
    second = rng.integers(first + 1, n + 1)
    keys, counts = np.unique(first * (n + 1) + second, return_counts=True)
    first, second = keys // (n + 1), keys % (n + 1)
    wins = rng.binomial(counts, 0.25)  # first is the weaker item under the identity
    return ComparisonDataset(n=n, first=first, second=second, num=counts, first_wins=wins,
                             tag=SamplingTag(WITH_REPLACEMENT, total))


@pytest.mark.parametrize("c1", [GATE_C1, 1e-3])  # default gate, and one firing on every row
def test_ms_sort_allocates_no_dense_matrix(monkeypatch, c1):
    monkeypatch.setattr(estimators, "GATE_C1", c1)
    n, total, stages = 6000, 60_000, 3
    rng = np.random.default_rng(6000)
    samples = [_uniform_pairs_stage(n, b, rng) for b in stage_budgets(total, stages)]
    config = MsConfig(stages=stages)
    tracemalloc.start()
    try:
        _, states = ms_sort(samples, 0.25, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states[1].gate_fired.all() == (c1 < 1)
    assert peak < n * n / 4


def _stage_sources(n, seed):
    """A with-replacement and a without-replacement StageSource over n items, three stages."""
    pi_star = random_permutation(n, np.random.default_rng(seed))
    law = star_matrix(n, 0.2)
    return (StageSource.with_replacement(pi_star, law, stage_budgets(4 * n, 3), seed),
            StageSource.without_replacement(pi_star, law, 0.7, 3, seed))


def _dense_agreements(dataset, pi, gap):
    """Wins of the item ranked more than ``gap`` above the other, over the dense win matrix."""
    ranks = pi.to_array()
    return int(wins_dense(dataset)[ranks[:, None] - ranks[None, :] > gap].sum())


class TestAgreements:
    def test_empty_dataset(self):
        d = make_dataset(5, [])
        for pi in (Permutation.identity(5), Permutation.reverse(5)):
            assert agreements([d], pi) == 0

    def test_complement_identity(self):
        d = sample_with_replacement(Permutation.identity(7), star_matrix(7, 0.2), 300, 3)
        rng = np.random.default_rng(0)
        flip = Permutation.reverse(7)
        for _ in range(10):
            pi = random_permutation(7, rng)
            total = agreements([d], pi) + agreements([d], compose(pi, flip))
            assert total == d.total_comparisons()

    def test_matrix_traversal_oracle(self):
        d = sample_with_replacement(Permutation.identity(8), star_matrix(8, 0.2), 400, 9)
        a = wins_dense(d)
        rng = np.random.default_rng(1)
        for _ in range(10):
            pi = random_permutation(8, rng)
            ranks = pi.to_array()
            expected = int(sum(
                a[i, j] for i in range(8) for j in range(8) if ranks[i] > ranks[j]
            ))
            assert agreements([d], pi) == expected

    def test_noise_free_unique_maximum(self):
        rng = np.random.default_rng(2)
        for n in (4, 5, 6, 7):
            pi_star = random_permutation(n, rng)
            d = noise_free_full(pi_star)
            best = agreements([d], pi_star)
            for pi in (random_permutation(n, rng) for _ in range(30)):
                if pi != pi_star:
                    assert agreements([d], pi) < best

    def test_dimension_mismatch(self):
        d = make_dataset(5, [])
        with pytest.raises(SizeMismatchError):
            agreements([d], Permutation.identity(4))

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("sampling", [0, 1])  # with, without replacement
    def test_sums_the_loop_objective_over_stages(self, n, sampling):
        source = _stage_sources(n, n)[sampling]
        rng = np.random.default_rng(n)
        for pi in (random_permutation(n, rng) for _ in range(10)):
            assert agreements(source, pi) == sum(loop_mle_objective(s, pi) for s in source)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("sampling", [0, 1])
    def test_the_mle_winner_attains_the_maximum(self, n, sampling):
        source = _stage_sources(n, 10 + n)[sampling]
        merged = merge_datasets(list(source))
        best = max(loop_mle_objective(merged, pi) for pi in enumerate_permutations(n))
        assert agreements(source, brute_force_mle(source)) == best

    @pytest.mark.parametrize("n", [4, 31, 60])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_blocked_sums_equal_a_dense_count(self, n, chunk):
        d = sample_with_replacement(random_permutation(n, np.random.default_rng(n)),
                                    star_matrix(n, 0.2), 5 * n, n)
        rng = np.random.default_rng(chunk)
        for gap in (0, 1, n // 2):
            for pi in (random_permutation(n, rng) for _ in range(3)):
                with mock.patch.object(model, "_WIN_CHUNK", chunk):
                    assert agreements([d], pi, gap) == _dense_agreements(d, pi, gap)

    @pytest.mark.parametrize("sampling", [0, 1])
    def test_a_stage_source_counts_as_its_merge(self, sampling):
        source = _stage_sources(40, 3)[sampling]
        merged = merge_datasets(list(source))
        rng = np.random.default_rng(4)
        for gap in (0, 1, 20):
            pi = random_permutation(40, rng)
            assert agreements(source, pi, gap) == agreements([merged], pi, gap)


class TestBruteForceMle:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pi_star = random_permutation(5, rng)
            assert brute_force_mle([noise_free_full(pi_star)]) == pi_star

    def test_empty_dataset_gives_identity(self):
        assert brute_force_mle([make_dataset(4, [])]) == Permutation.identity(4)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force_mle([make_dataset(11, [])])


class TestSieveMle:
    def test_singleton_net(self):
        d = sample_with_replacement(Permutation.identity(5), star_matrix(5, 0.2), 100, 7)
        net = PackingSet(n=5, epsilon=0, members=(Permutation.identity(5),))
        assert sieve_mle([d], net) == Permutation.identity(5)

    def test_full_net_equals_brute_force(self):
        net = greedy_maximal_packing(5, 0)
        assert len(net) == 120
        for seed in range(10):
            d = sample_with_replacement(Permutation.identity(5), star_matrix(5, 0.25), 60, seed)
            assert sieve_mle([d], net) == brute_force_mle([d])

    def test_noise_free_error_bounded_by_net_radius(self):
        phi = 3
        net = greedy_maximal_packing(6, phi)
        rng = np.random.default_rng(8)
        for _ in range(10):
            pi_star = random_permutation(6, rng)
            pi_hat = sieve_mle([noise_free_full(pi_star)], net)
            assert kendall_tau(pi_hat, pi_star) <= phi

    def test_empty_net_rejected(self):
        d = make_dataset(4, [])
        with pytest.raises(ValueError):
            sieve_mle([d], PackingSet(n=4, epsilon=1, members=()))


class TestStageSampleInput:
    def test_tied_net_in_any_order_gives_smallest_maximizer(self):
        # only (1, 2) is compared and 2 lost it: every member with pi(1) > pi(2)
        # ties, and the smallest one-line map among them is (2, 1, 3, 4)
        members = list(enumerate_permutations(4))
        np.random.default_rng(3).shuffle(members)
        net = PackingSet(n=4, epsilon=0, members=tuple(members))
        samples = [make_dataset(4, []), make_dataset(4, [(1, 2, 1, 1)])]
        for chunk in (1, 5, 4096):
            with mock.patch.object(estimators, "_CANDIDATE_CHUNK", chunk):
                assert sieve_mle(samples, net) == Permutation((2, 1, 3, 4))
                assert brute_force_mle(samples) == Permutation((2, 1, 3, 4))
                assert sieve_mle(samples[:1], net) == Permutation.identity(4)

    def test_samples_must_share_n(self):
        samples = [make_dataset(4, []), make_dataset(5, [])]
        for estimator in (borda_sort, brute_force_mle):
            with pytest.raises(SizeMismatchError):
                estimator(samples)
            with pytest.raises(ValueError):
                estimator([])


def _borda_oracle(dataset):
    ranks = np.empty(dataset.n, dtype=np.int64)
    ranks[np.argsort(wins_dense(dataset).sum(axis=1), kind="stable")] = np.arange(1, dataset.n + 1)
    return Permutation.from_array(ranks)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(2, 6), with_r=hst.booleans(), stages=hst.integers(1, 4),
       total=hst.integers(1, 40), p=hst.floats(0.05, 1.0), empty=hst.booleans(),
       radius=hst.integers(0, 4), chunk=hst.sampled_from([1, 7, 4096]),
       seed=hst.integers(0, 2**32 - 1))
def test_stage_sample_estimators_match_pooled_oracles(n, with_r, stages, total, p, empty,
                                                       radius, chunk, seed):
    """borda, mle and sieve on the stage samples equal the reference estimators
    on their merge, for both samplings, with empty stage samples and a
    shuffled net whose members often tie."""
    rng = np.random.default_rng(seed)
    pi_star = random_permutation(n, rng)
    law = star_matrix(n, 0.2)
    if with_r:
        samples = split_with_replacement(pi_star, law, stage_budgets(total + stages, stages), seed)
        blank = make_dataset(n, [], WITH_REPLACEMENT, budget=0)
    else:
        draw = sample_without_replacement(pi_star, law, p, seed)
        samples = split_without_replacement(draw, stages, seed)
        blank = make_dataset(n, [], WITHOUT_REPLACEMENT, budget=p)
    if empty:
        samples.insert(int(rng.integers(len(samples) + 1)), blank)
    merged = merge_datasets(samples)
    members = list(greedy_maximal_packing(n, radius).members)
    rng.shuffle(members)
    net = PackingSet(n=n, epsilon=radius, members=tuple(members))
    with mock.patch.object(model, "_WIN_CHUNK", chunk):
        assert borda_sort(samples) == _borda_oracle(merged)
    with mock.patch.object(estimators, "_CANDIDATE_CHUNK", chunk):
        assert brute_force_mle(samples) == loop_mle(merged, enumerate_permutations(n))
        assert sieve_mle(samples, net) == loop_mle(merged, net.members)
    for pi in members[:5]:
        assert agreements(samples, pi) == loop_mle_objective(merged, pi)
