import ctypes
import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst
from scipy import stats

from noisysort import model
from noisysort.model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ComparisonDataset,
    ProbabilityMatrix,
    SamplingTag,
    StageSource,
    derive_seed,
    read_dataset,
    sample_with_replacement,
    sample_without_replacement,
    split_with_replacement,
    stage_budgets,
    star_matrix,
    write_dataset,
)
from noisysort.experiments import draw_stages
from noisysort.perms import Permutation, random_permutation

from oracles import (
    BAD_HEADER_FILES,
    BAD_N_FILES,
    DISAGREEING_RECORDS,
    MemberLaw,
    _pair_items,
    cells_draw_pairs,
    cells_stages,
    counts_dense,
    dense_law,
    dense_star_entries,
    int64_read_dataset,
    inversion_binomial,
    line_read_dataset,
    line_write_dataset,
    make_dataset,
    membership_violation,
    multinomial_split_without_replacement,
    pair_cells,
    random_member_matrix,
    relabel_items,
    row_sample_without_replacement,
    sorted_split_without_replacement,
    split_without_replacement,
    true_scores,
    unique_sample_with_replacement,
    whole_sample_without_replacement,
    wins_dense,
)


def _narrow(d):
    """Whether ``d`` holds its records as the samplers build them: items int16 below
    n = 2**15, int32 below 2**31, else int64; without replacement, bool wins and a
    read-only int64 count of 1 taking no bytes; with replacement, counts and wins in the
    narrowest of int8, int16, int32 and int64 that holds the largest count."""
    item = np.int16 if d.n < 2**15 else np.int32 if d.n < 2**31 else np.int64
    without = d.tag.kind == WITHOUT_REPLACEMENT
    top = int(d.num.max()) if d.num_pairs else 0
    count = np.int64 if without else next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)
    return (d.first.dtype == d.second.dtype == item and d.num.dtype == count
            and d.first_wins.dtype == (bool if without else count)
            and (not without or (d.num.strides == (0,) and not d.num.flags.writeable)))


def _digest(*arrays):
    """sha256 of ``arrays`` as int64 bytes: the same for the narrow arrays and int64 ones."""
    return hashlib.sha256(b"".join(np.asarray(a, dtype=np.int64).tobytes()
                                   for a in arrays)).hexdigest()


class TestStarMatrix:
    def test_two_by_two(self):
        m = star_matrix(2, 0.25)
        assert np.allclose(dense_law(m), [[0.5, 0.25], [0.75, 0.5]])

    def test_entries_take_three_values(self):
        m = star_matrix(5, 0.1)
        assert set(np.round(dense_law(m).ravel(), 12)) == {0.4, 0.5, 0.6}

    def test_skew_symmetry(self):
        m = star_matrix(6, 0.3)
        off = ~np.eye(6, dtype=bool)
        entries = dense_law(m)
        assert np.allclose((entries + entries.T)[off], 1.0)

    def test_row_sum_closed_form(self):
        for n in (1, 2, 7, 23, 50):
            lam = 0.2
            scores = true_scores(Permutation.identity(n), star_matrix(n, lam)).s_star
            for i in range(1, n + 1):
                expected = lam * (2 * i - n - 1) + (n - 1) / 2
                assert scores[i - 1] == pytest.approx(expected)

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            star_matrix(4, 0.5)
        with pytest.raises(ValueError):
            star_matrix(4, 0.0)


class TestClosedFormStarLaw:
    @pytest.mark.parametrize("n, lam", [(1, 0.25), (2, 0.25), (7, 0.1), (40, 0.3),
                                        (101, 0.45), (64, 1e-3), (33, 0.2 + 1e-9)])
    def test_win_prob_matches_dense_reference(self, n, lam):
        law = star_matrix(n, lam)
        reference = dense_star_entries(n, lam)
        ranks = np.arange(1, n + 1)
        for i in ranks:  # every rank pair, the diagonal included, bit for bit
            got = law.win_prob(np.full(n, i), ranks)
            assert got.dtype == reference.dtype and np.array_equal(got, reference[i - 1])
        assert np.array_equal(dense_law(law), reference)
        assert membership_violation(dense_law(law), lam) is None

    @pytest.mark.parametrize("order", ["identity", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_samplers_draw_same_data_under_both_laws(self, order, seed):
        n, lam = 45, 0.2
        pi = (Permutation.identity(n) if order == "identity"
              else random_permutation(n, np.random.default_rng(seed)))
        closed = star_matrix(n, lam)
        dense = MemberLaw(n=n, lam=lam, entries=dense_star_entries(n, lam))
        assert sample_with_replacement(pi, closed, 3000, seed).same_data(
            sample_with_replacement(pi, dense, 3000, seed))
        assert sample_without_replacement(pi, closed, 0.6, seed).same_data(
            sample_without_replacement(pi, dense, 0.6, seed))

    def test_star_law_stores_no_dense_table(self):
        assert star_matrix(100_000, 0.25).entries.nbytes == 3 * 8

    def test_tables_are_validated(self):
        # the star law's table is derived from lam: no table is an argument
        law = ProbabilityMatrix(n=5, lam=0.2)
        assert np.array_equal(law.entries, [0.5 - 0.2, 0.5, 0.5 + 0.2])
        assert "entries" not in {f.name for f in dataclasses.fields(law) if f.init}
        with pytest.raises(TypeError):
            ProbabilityMatrix(n=5, lam=0.2, entries=np.array([0.3, 0.5, 0.7]))
        with pytest.raises(ValueError):  # a dense table of the wrong size
            MemberLaw(n=5, lam=0.2, entries=dense_star_entries(4, 0.2))
        with pytest.raises(ValueError):  # a dense table outside the class
            MemberLaw(n=4, lam=0.3, entries=dense_star_entries(4, 0.2))


class TestMembership:
    def test_star_accepted(self):
        assert membership_violation(dense_law(star_matrix(6, 0.2)), 0.2) is None

    def test_single_violated_entry_rejected(self):
        entries = dense_law(star_matrix(6, 0.2))
        entries[3, 1] = 0.6  # needs >= 0.7
        entries[1, 3] = 0.4
        assert membership_violation(entries, 0.2) is not None

    def test_random_member_is_valid(self):
        m = random_member_matrix(8, 0.2, 0.05, seed=4)
        assert membership_violation(m.entries, 0.2) is None
        assert np.array_equal(dense_law(m), m.entries)
        # strictly inside the band somewhere (not the star matrix)
        assert np.any(m.entries[np.tril_indices(8, -1)] > 0.7 + 1e-9)


class TestTrueScores:
    def test_small_example(self):
        ts = true_scores(Permutation.identity(4), star_matrix(4, 0.25))
        assert ts.s_star == (0.75, 1.25, 1.75, 2.25)

    def test_strictly_increasing_for_random_member(self):
        m = random_member_matrix(9, 0.15, 0.02, seed=1)
        ts = true_scores(Permutation.identity(9), m)
        assert all(a < b for a, b in zip(ts.s_star, ts.s_star[1:]))

    def test_single_item(self):
        ts = true_scores(Permutation.identity(1), star_matrix(1, 0.25))
        assert ts.s_star == (0.0,)


class TestWithoutReplacement:
    def test_p_one_observes_every_pair_once(self):
        for n in (1, 2, 20):
            d = sample_without_replacement(Permutation.identity(n), star_matrix(n, 0.3), 1.0, 5)
            assert d.num_pairs == math.comb(n, 2)
            assert (d.num == 1).all()
            a = wins_dense(d)
            c = counts_dense(d)
            assert np.array_equal(a + a.T, c)
            assert (np.diag(a) == 0).all() and (np.diag(c) == 0).all()

    def test_single_item_gives_empty_data_and_stages(self):
        for p in (0.3, 1.0):
            d = sample_without_replacement(Permutation.identity(1), star_matrix(1, 0.3), p, 5)
            assert d.num_pairs == 0
            stages = split_without_replacement(d, 3, 6)
            assert len(stages) == 3 and all(s.num_pairs == 0 for s in stages)

    def test_matches_row_sampler_and_multinomial_split_in_distribution(self):
        # The one-draw sampler and stage labels replace a per-row Bernoulli
        # loop and a multinomial scatter: same law, another random stream.
        # Over 2000 seeds, the per-pair observation and first-win frequencies
        # and the per-(pair, stage) frequencies of the two paths agree within
        # |z| <= 4.5 (two-sample z on a proportion), and so do their sums over
        # the pairs, which see a shift shared by all pairs.  With 80 z-values
        # a false alarm has probability under 1e-3.  The law gives every pair
        # its own win probability, so a pair decoded as another shows.
        n, p, parts, reps = 6, 0.4, 3, 2000
        pi = Permutation((3, 6, 1, 5, 2, 4))
        law = random_member_matrix(n, 0.1, 0.05, seed=2)
        counts = {}
        for path, sample, split in (
            ("new", sample_without_replacement, split_without_replacement),
            ("old", row_sample_without_replacement, multinomial_split_without_replacement),
        ):
            observed = np.zeros(n * n)
            won = np.zeros(n * n)
            staged = np.zeros((parts, n * n))
            for seed in range(reps):
                d = sample(pi, law, p, seed)
                cell = (d.first - 1) * n + d.second - 1
                observed[cell] += 1
                won[cell] += d.first_wins
                for t, stage in enumerate(split(d, parts, derive_seed(seed, 1))):
                    staged[t, (stage.first - 1) * n + stage.second - 1] += 1
            counts[path] = np.concatenate([observed, won, staged.ravel()])
        upper = np.triu(np.ones((n, n), dtype=bool), 1).ravel()
        cells = np.tile(upper, 2 + parts)
        new, old = counts["new"][cells], counts["old"][cells]
        pooled = (new + old) / (2 * reps)
        var = 2 * reps * pooled * (1 - pooled)  # of new - old, per cell
        groups = np.repeat(np.arange(2 + parts), math.comb(n, 2))
        z = np.concatenate([(new - old) / np.sqrt(var),
                            np.bincount(groups, new - old) / np.sqrt(np.bincount(groups, var))])
        assert len(z) == 80 and np.all(pooled > 0)
        assert np.max(np.abs(z)) <= 4.5

    def test_draws_nothing_the_size_of_all_pairs(self):
        # memory follows the observed pairs (about 18000 here), not the C(n,2) cells
        n, p = 6000, 0.001
        pi, law = Permutation.identity(n), star_matrix(n, 0.2)
        tracemalloc.start()
        try:
            d = sample_without_replacement(pi, law, p, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(d.num_pairs - p * math.comb(n, 2)) < 6 * math.sqrt(p * math.comb(n, 2))
        assert peak < math.comb(n, 2)

    def test_high_signal_win_rate(self):
        n, lam = 100, 0.49
        wins = losses = 0
        for seed in range(5):
            d = sample_without_replacement(Permutation.identity(n), star_matrix(n, lam), 1.0, seed)
            wins += int(np.sum(np.where(d.second > d.first, d.first_wins, 0)))
            losses += int(np.sum(np.where(d.second > d.first, d.num - d.first_wins, 0)))
        # identity order: the larger-ranked (second) item is stronger
        assert losses / (wins + losses) >= 0.95

    def test_total_count_moments(self):
        n, p = 50, 0.3
        pairs = math.comb(n, 2)
        totals = [
            sample_without_replacement(Permutation.identity(n), star_matrix(n, 0.2), p, s)
            .total_comparisons()
            for s in range(100)
        ]
        mean = np.mean(totals)
        sd_of_mean = math.sqrt(pairs * p * (1 - p) / 100)
        assert abs(mean - p * pairs) <= 3 * sd_of_mean

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            sample_without_replacement(Permutation.identity(5), star_matrix(5, 0.2), 0.0, 1)


class TestWithReplacement:
    def test_single_draw(self):
        d = sample_with_replacement(Permutation.identity(6), star_matrix(6, 0.2), 1, 9)
        assert d.num_pairs == 1 and d.total_comparisons() == 1

    def test_budget_exact(self):
        d = sample_with_replacement(Permutation.identity(30), star_matrix(30, 0.2), 12345, 2)
        assert d.total_comparisons() == 12345

    # n=2 puts every draw in one cell, at N = 200,000 one run over four default blocks with
    # an int32 count; N=1 draws one comparison.  At n = 32767 the compacted cells are cast to
    # int16 items, at n = 32768 second is their int32 view; both draws repeat some pairs
    @pytest.mark.parametrize("n, total, seed", [
        (2, 1, 0), (2, 57, 1), (9, 1, 2), (30, 12345, 3), (300, 400, 4), (600, 200_000, 5),
        (2, 200_000, 16), (32767, 200_000, 17), (32768, 200_000, 18),
    ])
    def test_run_lengths_match_unique(self, n, total, seed):
        pi = random_permutation(n, np.random.default_rng(seed))
        law = star_matrix(n, 0.2)
        d = sample_with_replacement(pi, law, total, seed)
        assert d.same_data(unique_sample_with_replacement(pi, law, total, seed))
        assert _narrow(d)

    # chunks of 1 and 7 cross every edge; at n <= 3 the cells hold thousands of draws,
    # so the binomial takes its large-count branch; a member law varies p pair by pair.
    # At lam 0.2 and 0.3 the star law's sides invert at v one ulp apart; at lam 0.45 and
    # n = 40, counts pass numpy's redraw bound; identity pi* puts the stronger item second
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("n, total, seed, law, pi_kind", [
        (2, 5000, 1, "star", "random"), (3, 20_000, 6, "member", "random"),
        (30, 12345, 3, "star", "random"), (40, 3000, 8, "member", "random"),
        (300, 400, 4, "star", "random"), (500, 3000, 9, 0.3, "identity"),
        (500, 3000, 10, 0.2, "random"), (40, 3000, 11, 0.3, "random"),
        (40, 20_000, 12, 0.45, "identity"),
    ])
    def test_chunked_draw_matches_unique(self, monkeypatch, chunk, n, total, seed, law, pi_kind):
        monkeypatch.setattr(model, "_WIN_CHUNK", chunk)
        pi = Permutation.identity(n) if pi_kind == "identity" else random_permutation(
            n, np.random.default_rng(seed))
        matrix = (random_member_matrix(n, 0.1, 0.05, seed) if law == "member"
                  else star_matrix(n, 0.2 if law == "star" else law))
        d = sample_with_replacement(pi, matrix, total, seed)
        assert d.same_data(unique_sample_with_replacement(pi, matrix, total, seed))
        assert _narrow(d)

    # a block the size of the cells before a run's start puts that start at a block edge
    # (shift 0) or one cell past it (shift 1), behind a run of repeats that the first block
    # compacts
    @pytest.mark.parametrize("shift", [0, 1])
    def test_a_run_at_a_block_edge_matches_unique(self, monkeypatch, shift):
        n, total, seed = 30, 2000, 19
        cells = np.sort(np.random.default_rng(seed).integers(
            0, math.comb(n, 2), size=total, dtype=model._cell_dtype(n)))
        starts = np.flatnonzero(cells[1:] != cells[:-1]) + 1
        edge = next(int(s) for s in starts[len(starts) // 2:] if cells[s - 2] == cells[s - 1])
        monkeypatch.setattr(model, "_WIN_CHUNK", edge + shift)
        pi, law = random_permutation(n, np.random.default_rng(seed)), star_matrix(n, 0.2)
        d = sample_with_replacement(pi, law, total, seed)
        assert d.same_data(unique_sample_with_replacement(pi, law, total, seed))

    # one draw after a warm-up holds its N sorted cells and a mark byte per draw, then the
    # dataset it returns (5.9 B per comparison at n = 8000, 10.0 at n = 40000) and a block's
    # temporaries; a copy of the kept cells beside the marks would pass either bound
    @pytest.mark.parametrize("n, bound", [(8000, 8.0), (40000, 11.7)])
    def test_traced_peak_per_comparison(self, n, bound):
        pi, law = random_permutation(n, np.random.default_rng(1)), star_matrix(n, 0.3)
        sample_with_replacement(pi, law, 1000, 1)  # numpy imports some modules on first use
        tracemalloc.start()
        try:
            sample_with_replacement(pi, law, 1_600_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1_600_000 < bound

    def _replayed(self, monkeypatch):
        """Record whether each chunk of the star law's win draw was replayed."""
        replayed, replay = [], model._replay_star_wins
        monkeypatch.setattr(model, "_replay_star_wins",
                            lambda *args: replayed.append(replay(*args)) or replayed[-1])
        return replayed

    def test_a_chunk_past_the_table_is_drawn_by_numpy(self, monkeypatch):
        # counts of 3 or more fall outside a table of counts up to 2: the chunks holding
        # one are drawn again by rng.binomial from the state before them
        monkeypatch.setattr(model, "_REPLAY_COUNT", 2)
        monkeypatch.setattr(model, "_WIN_CHUNK", 97)
        replayed = self._replayed(monkeypatch)
        pi, law = random_permutation(200, np.random.default_rng(13)), star_matrix(200, 0.2)
        d = sample_with_replacement(pi, law, 2000, 13)
        assert d.same_data(unique_sample_with_replacement(pi, law, 2000, 13))
        assert replayed[0] and replayed[-1] and not all(replayed)

    def test_a_uniform_past_its_bound_is_drawn_by_numpy(self, monkeypatch):
        # with every bound cut to 1, a pair that would step to X = 2 is numpy's redraw:
        # its chunk falls back, and the draw still equals numpy's
        tables = model._inversion_tables

        def cut_bounds(*args):
            px, bound, floor = tables(*args)
            return px, np.minimum(bound, 1), floor

        monkeypatch.setattr(model, "_inversion_tables", cut_bounds)
        monkeypatch.setattr(model, "_WIN_CHUNK", 97)
        replayed = self._replayed(monkeypatch)
        pi, law = random_permutation(60, np.random.default_rng(14)), star_matrix(60, 0.3)
        d = sample_with_replacement(pi, law, 2000, 14)
        assert d.same_data(unique_sample_with_replacement(pi, law, 2000, 14))
        ranks = pi.to_array()
        steps = np.where(ranks[d.first - 1] > ranks[d.second - 1], d.num - d.first_wins,
                         d.first_wins)  # numpy's X: the stronger side inverts 1 - p
        expected = [not np.any(steps[lo: lo + 97] > 1) for lo in range(0, d.num_pairs, 97)]
        assert replayed == expected and any(expected) and not all(expected)

    def test_count_one_pairs_step_when_their_row_could_outrun_it(self, monkeypatch):
        # a largest uniform past any table makes every count-1 pair walk its row
        monkeypatch.setattr(model, "_TOP_UNIFORM", 2.0)
        assert model._inversion_tables(np.array([0.3, 0.5, 0.7]), 4)[2] == 0
        pi, law = random_permutation(200, np.random.default_rng(15)), star_matrix(200, 0.2)
        d = sample_with_replacement(pi, law, 5000, 15)
        assert d.same_data(unique_sample_with_replacement(pi, law, 5000, 15))

    @pytest.mark.parametrize("lam", [0.2, 0.25, 0.3, 0.45])
    def test_inversion_oracle_is_numpy_binomial(self, lam):
        counts = np.random.default_rng(17).integers(1, 21, size=3000)
        p = np.where(np.arange(3000) % 2, 0.5 + lam, 0.5 - lam)
        rng = np.random.default_rng(18)
        uniforms = iter(rng.random, None)
        expected = np.random.default_rng(18).binomial(counts, p)
        assert [inversion_binomial(int(c), float(q), uniforms) for c, q in zip(counts, p)] \
            == expected.tolist()

    # uniforms on and one ulp around each side's partial sums: at lam 0.2 and 0.3 the
    # stronger side inverts at 1 - (1/2 + lam), one ulp off 1/2 - lam.  A uniform that
    # numpy would redraw for a pair is left out of that pair's cases
    @pytest.mark.parametrize("lam", [0.2, 0.25, 0.3, 0.45])
    def test_replay_at_the_step_boundaries(self, lam):
        entries = star_matrix(4, lam).entries
        tables = model._inversion_tables(entries, 8)
        px, bound, _ = tables
        cuts = set()
        for row in range(len(bound)):
            total = 0.0
            for k in range(bound[row] + 1):
                total += px[row, k]
                cuts |= {total, np.nextafter(total, 0.0), np.nextafter(total, 1.0)}
        cases = []  # (count, stronger, uniform, numpy's wins)
        for count, stronger, u in itertools.product(range(1, 9), (False, True), sorted(cuts)):
            try:
                wins = inversion_binomial(count, entries[2] if stronger else entries[0], iter([u]))
            except StopIteration:
                continue
            cases.append((count, stronger, u, wins))
        counts, stronger, u, expected = (np.array(column) for column in zip(*cases))

        class Uniforms:  # the draw's only generator call
            def random(self, m):
                assert m == len(u)
                return u

        out = np.empty(len(u), dtype=np.int64)
        assert model._replay_star_wins(Uniforms(), counts, stronger, tables, out)
        assert np.array_equal(out, expected)

    def test_win_distribution_chi_square(self):
        # conditioned on the pair, the stronger item's wins are
        # Bin(N_ij, 1/2 + lam); chi-square GOF over all pairs at the 1% level
        n, lam, total = 20, 0.25, 100_000
        d = sample_with_replacement(Permutation.identity(n), star_matrix(n, lam), total, 11)
        q = 0.5 - lam  # P(first wins): first has the smaller index = weaker rank
        mask = d.num >= 5
        observed = d.first_wins[mask]
        draws = d.num[mask]
        chi2 = float(np.sum((observed - draws * q) ** 2 / (draws * q * (1 - q))))
        pvalue = stats.chi2.sf(chi2, df=int(mask.sum()))
        assert pvalue > 0.01

    def test_pair_marginal_moments(self):
        # each pair's count is Bin(N, 1/C(n,2)); check mean and variance over pairs
        n, total = 20, 100_000
        pairs = math.comb(n, 2)
        d = sample_with_replacement(Permutation.identity(n), star_matrix(n, 0.25), total, 3)
        counts = np.zeros(pairs)
        counts[: d.num_pairs] = np.sort(d.num)[::-1]
        expected = total / pairs
        assert abs(counts.mean() - expected) < 1e-9  # exact: totals are conserved
        var_expected = total * (1 / pairs) * (1 - 1 / pairs)
        assert abs(counts.var() - var_expected) / var_expected < 0.25


# sha256 of first/second/num/first_wins as int64 bytes: (n, lam, pi_star, total, seed) -> digest.
# counts pass the replay table at n <= 3 (into numpy's large-count binomial) and at
# n = 40, N = 20000; lam 0.2 and 0.3 give the two sides of the star law different tables;
# C(n,2) < 2**32 up to n = 92682, where the pair numbers are drawn and decoded as uint32,
# and int64 above
GOLDEN_DRAWS = {
    (2, 0.2, "identity", 5000, 1):
        "99ea07acad3b93fff053dd74cec37b632208b71d2bd769d5fa7769956848d9a6",
    (3, 0.45, "random", 2000, 2):
        "c46a9bca213f2bfcbadbc170d58348a80b02532e6b50d9833b063d0cb4797247",
    (40, 0.1, "identity", 3000, 3):
        "fde5077a6c1114a085f2523338cb67ff79580c9fae8f003a675ff6662bc819d1",
    (40, 0.25, "random", 20_000, 4):
        "07fc32f13df62b2a8c9c8b79d696bad221acee7c593c1a00e89d829de77ce5a4",
    (40, 0.3, "member", 5000, 5):
        "223d6d5671fe7c46ee0152468e91412160cdf8ffc26457700fed3ab8d9f87c88",
    (2000, 0.3, "random", 200_000, 6):
        "f0b64a5520237fe16381379e3c40f0296a2ddbef0a7f2ba9b785b643803fa15a",
    (2000, 0.45, "identity", 400_000, 7):
        "12092cd8fa18250deb1678294b732524688d9bb98372290a157ef52d6da38e28",
    (2000, 0.2, "random", 100_000, 8):
        "8beff56e623a91bc0e8219b189a6d91194e94901e59d0c396c0a6c2a038d5d8d",
    (92682, 0.25, "random", 20_000, 9):
        "7da450182b9f6b9963d1380c0101813804c3ad7c57f339bd37af71fa9a4bc53d",
    (92683, 0.25, "random", 20_000, 10):
        "605282910ee8938242d84a3f889d5c9991403571e296764fe3a2e79766445fd7",
}


@pytest.mark.parametrize("case", list(GOLDEN_DRAWS))
def test_with_replacement_stream_is_pinned(case):
    n, lam, kind, total, seed = case
    pi = Permutation.identity(n) if kind == "identity" else random_permutation(
        n, np.random.default_rng(seed))
    law = random_member_matrix(n, lam, 0.05, seed) if kind == "member" else star_matrix(n, lam)
    d = sample_with_replacement(pi, law, total, seed)
    assert _digest(d.first, d.second, d.num, d.first_wins) == GOLDEN_DRAWS[case]


# sha256 of sample_without_replacement's pair cells and bits as int64 bytes: (n, lam, pi_star,
# p, seed) -> digest, pinned with the former single-call gap draw when the draw held its pairs
# as cells; 45k to 600k pairs, 1 to 10 blocks of 65536
GOLDEN_WITHOUT_DRAWS = {
    (800, 0.25, "identity", 1.0, 1):
        "9d3fac3ad3ff3510bdc23bc4c6ff30bf5aa2eb842c6610d1a0ddc4456000f47d",
    (2000, 0.1, "random", 0.3, 2):
        "037a872fc9ef8a177b2af2cca0fc29fd2b8a98b668890c533222a5b36ad1f18c",
    (3000, 0.3, "random", 0.01, 3):
        "77988a50972e5e30a0610e74e14275bca7facb93ad0903081b45b4a46d7127a3",
    (600, 0.45, "random", 0.7, 4):
        "03a70b08aea0ffb50ee26127cff57e8f583035aad388ba7b1eceef8e9cd6c320",
}


class TestSplits:
    def test_single_budget(self):
        ds = split_with_replacement(Permutation.identity(10), star_matrix(10, 0.2), [500], 7)
        assert len(ds) == 1 and ds[0].total_comparisons() == 500

    def test_budget_accounting(self):
        budgets = [250, 250] + [100] * 5
        ds = split_with_replacement(Permutation.identity(12), star_matrix(12, 0.2), budgets, 7)
        assert [d.total_comparisons() for d in ds] == budgets

    def test_lazy_stages_are_drawn_when_pulled_and_not_held(self, monkeypatch):
        pi, law = Permutation.identity(12), star_matrix(12, 0.2)
        eager = split_with_replacement(pi, law, [300, 300, 200], 7)
        calls = []
        original = model.sample_with_replacement
        monkeypatch.setattr(model, "sample_with_replacement",
                            lambda *args: calls.append(args) or original(*args))
        with pytest.raises(ValueError, match="budgets must be positive"):
            StageSource.with_replacement(pi, law, [300, 0], 7)
        stages = iter(StageSource.with_replacement(pi, law, [300, 200], 7, first_key=1))
        assert calls == []
        first = next(stages)
        assert len(calls) == 1 and first.same_data(eager[1])
        alive = weakref.ref(first)
        del first
        assert alive() is None
        assert next(stages).same_data(eager[2]) and next(stages, None) is None

    def test_a_second_pass_replays_the_first(self):
        pi, law = random_permutation(40, np.random.default_rng(1)), star_matrix(40, 0.2)
        for source in (StageSource.with_replacement(pi, law, [300, 200], 7, first_key=2),
                       StageSource.without_replacement(pi, law, 0.6, 3, 5),
                       StageSource.without_replacement(pi, law, 0.6, 1, 5),
                       StageSource.of(split_with_replacement(pi, law, [100, 101], 1))):
            once, again = list(source), list(source)
            assert tuple(s.total_comparisons() for s in once) == source.counts
            assert all(s.n == source.n == 40 for s in once)
            assert all(a.same_data(b) and a.seed == b.seed
                       for a, b in zip(once, again, strict=True))
            assert StageSource.of(source) is source

    def test_distinct_derived_seeds(self):
        ds = split_with_replacement(Permutation.identity(12), star_matrix(12, 0.2), [300, 300], 7)
        assert ds[0].seed != ds[1].seed
        assert ds[0].seed == derive_seed(7, 0)
        assert ds[1].seed == derive_seed(7, 1)
        assert not ds[0].same_data(ds[1])

    def test_stage_budgets_remainder(self):
        assert stage_budgets(10, 3) == [4, 3, 3]
        assert stage_budgets(9, 3) == [3, 3, 3]
        assert sum(stage_budgets(1_000_003, 7)) == 1_000_003

    def test_without_split_partitions_counts_and_wins(self):
        d = sample_without_replacement(Permutation.identity(30), star_matrix(30, 0.2), 0.8, 21)
        parts = split_without_replacement(d, 4, 99)
        assert np.array_equal(sum(counts_dense(p) for p in parts), counts_dense(d))
        assert np.array_equal(sum(wins_dense(p) for p in parts), wins_dense(d))

    def test_without_split_single_bucket_is_same_dataset(self):
        d = sample_without_replacement(Permutation.identity(10), star_matrix(10, 0.2), 0.5, 3)
        (stage,) = split_without_replacement(d, 1, 5)
        assert stage.same_data(d) and stage.seed == derive_seed(5, 0) and _narrow(stage)

    def test_bucket_sizes_multinomial(self):
        n, p, parts = 30, 0.9, 3
        diffs = []
        for seed in range(100):
            d = sample_without_replacement(Permutation.identity(n), star_matrix(n, 0.2), p, seed)
            buckets = split_without_replacement(d, parts, derive_seed(seed, 1))
            total = d.total_comparisons()
            for b in buckets:
                sd = math.sqrt(total * (1 / parts) * (1 - 1 / parts))
                diffs.append((b.total_comparisons() - total / parts) / sd)
        assert np.max(np.abs(diffs)) <= 4.0

    def test_stage_labels_hold_any_number_of_parts(self):
        # more stages than a uint8 label can name
        d = sample_without_replacement(Permutation.identity(40), star_matrix(40, 0.2), 1.0, 8)
        stages = split_without_replacement(d, 300, 9)
        assert len(stages) == 300
        assert np.array_equal(sum(counts_dense(s) for s in stages), counts_dense(d))
        assert sum(s.num_pairs > 0 for s in stages[256:]) > 0

    def test_without_split_requires_without_dataset(self):
        d = sample_with_replacement(Permutation.identity(10), star_matrix(10, 0.2), 100, 1)
        with pytest.raises(ValueError):
            split_without_replacement(d, 2, 1)


def _identical(a, b):
    """Same records, tag and seed, and ``a`` holds them as the library builds them."""
    return a.same_data(b) and a.tag == b.tag and a.seed == b.seed and _narrow(a)


def _cells_source(pi, law, p, parts, seed):
    """The reference stages of StageSource.without_replacement(pi, law, p, parts, seed): the
    cells draw from derive_seed(seed, 0), its labels from derive_seed(seed, 1)."""
    return cells_stages(pi.n, *cells_draw_pairs(pi, law, p, derive_seed(seed, 0)), p, parts,
                        derive_seed(seed, 1))


def _holding_draws(monkeypatch):
    """The draws that model._draw_pairs returns from now on, listed as they are made."""
    draws, original = [], model._draw_pairs
    monkeypatch.setattr(model, "_draw_pairs", lambda *a: draws.append(original(*a)) or draws[-1])
    return draws


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 40), seed=hst.integers(0, 2**32 - 1), p=hst.floats(1e-12, 1.0),
       parts=hst.sampled_from([1, 2, 3, 300]), law=hst.sampled_from(["star", "random"]),
       chunk=hst.sampled_from([1, 7, None]), pi_kind=hst.sampled_from(["identity", "random"]))
@example(n=1, seed=0, p=0.5, parts=3, law="star", chunk=None, pi_kind="identity")
@example(n=40, seed=1, p=1.0, parts=300, law="random", chunk=7, pi_kind="random")
@example(n=30, seed=2, p=1.0, parts=256, law="star", chunk=None, pi_kind="random")  # uint8 labels
@example(n=30, seed=2, p=1.0, parts=257, law="star", chunk=None, pi_kind="random")  # uint16
def test_stream_matches_the_sorted_split(n, seed, p, parts, law, chunk, pi_kind):
    """The chunked compact draw and its streamed stages equal the one-call
    sampler and the argsort-and-gather split, arrays, seeds and counts."""
    rng = np.random.default_rng(seed)
    pi = random_permutation(n, rng) if pi_kind == "random" else Permutation.identity(n)
    matrix = star_matrix(n, 0.2) if law == "star" else random_member_matrix(n, 0.1, 0.05, seed)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(model, "_WIN_CHUNK", chunk)
        sample = sample_without_replacement(pi, matrix, p, seed)
        split = split_without_replacement(sample, parts, seed + 1)
        source, _ = draw_stages(pi, matrix, WITHOUT_REPLACEMENT, p, parts, seed, 0.2)
        stages = list(source)
    assert _identical(sample, whole_sample_without_replacement(pi, matrix, p, seed))
    expected = sorted_split_without_replacement(sample, parts, seed + 1)
    assert len(split) == parts and all(map(_identical, split, expected))
    draw = whole_sample_without_replacement(pi, matrix, p, derive_seed(seed, 0))
    expected = sorted_split_without_replacement(draw, parts, derive_seed(seed, 1))
    assert len(stages) == parts and all(map(_identical, stages, expected))
    assert source.counts == tuple(s.num_pairs for s in expected)


class TestWithoutStream:
    @pytest.mark.parametrize("n, p", [(1, 0.5), (1, 1.0), (3, 1e-300), (30, 5e-324)])
    @pytest.mark.parametrize("parts", [1, 3])
    def test_empty_draw_gives_empty_stages(self, n, p, parts):
        # a tiny p must not overflow the running sums of its gaps
        pi, law = Permutation.identity(n), star_matrix(n, 0.2)
        assert sample_without_replacement(pi, law, p, 4).num_pairs == 0
        source, _ = draw_stages(pi, law, WITHOUT_REPLACEMENT, p, parts, 4, 0.2)
        stages = list(source)
        assert source.counts == (0,) * parts
        assert [s.seed for s in stages] == [derive_seed(derive_seed(4, 1), t)
                                            for t in range(parts)]
        assert all(s.num_pairs == 0 and s.n == n and s.tag.budget == p for s in stages)

    def test_stages_are_built_when_pulled(self, monkeypatch):
        built = []
        original = model._decode
        monkeypatch.setattr(model, "_decode", lambda *a: built.append(a[5]) or original(*a))
        law = star_matrix(20, 0.2)
        source, _ = draw_stages(Permutation.identity(20), law, WITHOUT_REPLACEMENT, 0.7, 3, 6, 0.2)
        assert built == [] and len(source.counts) == 3
        next(iter(source))
        assert built == [derive_seed(derive_seed(6, 1), 0)]

    @pytest.mark.parametrize("chunk", [4, 1000])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_offsets_of_any_ascending_cells(self, monkeypatch, n, dtype, chunk):
        # runs that start and end mid-row and mid-block, as the samplers' blocks do: the cells
        # become their column offsets in place, in their own dtype, and decode as the former
        # decoder did; uint32 cells (the with-replacement draw's below C(n,2) = 2**32) decode
        # to int32 items over their own memory, as the sampler does
        monkeypatch.setattr(model, "_WIN_CHUNK", chunk)
        rows, cols = np.triu_indices(n, 1)
        cells = np.flatnonzero(np.random.default_rng(n).random(len(rows)) < 0.4).astype(dtype)
        half = len(cells) // 2
        for part in (cells, cells[1:-1], cells[half: half + 3], cells[:0]):
            expected = _pair_items(n, part)
            assert np.array_equal(expected, (rows[part] + 1, cols[part] + 1))
            offsets, per_row = part.copy(), np.zeros(n + 1, np.int64)
            model._to_offsets(offsets, model._row_starts(n).astype(dtype), per_row)
            assert offsets.dtype == dtype and np.array_equal(offsets, cols[part] - rows[part] - 1)
            assert np.array_equal(per_row, np.bincount(rows[part] + 1, minlength=n + 1))
            second = offsets.view(np.int32) if dtype == np.uint32 else offsets.astype(np.int32)
            first = model._first(per_row, second)
            assert first.dtype == second.dtype == np.int32
            assert np.array_equal(first, expected[0]) and np.array_equal(second, expected[1])
            assert dtype != np.uint32 or second.base is offsets

    @pytest.mark.parametrize("n", [92682, 92683])
    def test_pair_cells_past_two_to_the_31(self, monkeypatch, n):
        # C(n,2) < 2**32 up to n = 92682: the former draw held uint32 cells there and int64
        # above; the cells reach past 2**31 and the column offsets are uint32 on both sides
        assert (math.comb(n, 2) < 2**32) == (n == 92682)
        pi, law, p = random_permutation(n, np.random.default_rng(3)), star_matrix(n, 0.25), 2e-6
        draws = _holding_draws(monkeypatch)
        source = StageSource.without_replacement(pi, law, p, 3, 4)
        (draw,) = draws
        cells, won = cells_draw_pairs(pi, law, p, derive_seed(4, 0))
        assert draw[1].dtype == np.uint32 and 7000 < len(cells) < 10_000 and cells[-1] >= 2**31
        held = [a.copy() for a in draw]
        once, again = list(source), list(source)
        expected = cells_stages(n, cells, won, p, 3, derive_seed(4, 1))
        for a, b, c in zip(once, again, expected, strict=True):
            assert _identical(a, c) and _identical(b, c)
        assert all(np.array_equal(a, b) for a, b in zip(draw, held))

    @pytest.mark.parametrize("n", [2**15 - 1, 2**15, 65537, 65538])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_stages_equal_the_cells_stages(self, n, parts):
        # the one constructor draws, labels and decodes at every stage count, one stage
        # included, with items on both sides of int16 and column offsets on both sides of
        # uint16; p = 1e-5 draws about 5k to 21k pairs
        pi, law, p = random_permutation(n, np.random.default_rng(n)), star_matrix(n, 0.2), 1e-5
        source = StageSource.without_replacement(pi, law, p, parts, 11)
        expected = _cells_source(pi, law, p, parts, 11)
        assert len(expected) == parts and all(map(_identical, source, expected))
        assert source.counts == tuple(s.num_pairs for s in expected) and sum(source.counts) > 0

    def test_pair_cells_invert_pair_items(self):
        n = 9
        cells = np.arange(math.comb(n, 2))
        first, second = _pair_items(n, cells)
        assert np.array_equal(pair_cells(n, first, second), cells)

    @pytest.mark.parametrize("chunk", [1000, 1 << 16])
    @pytest.mark.parametrize("case", list(GOLDEN_WITHOUT_DRAWS))
    def test_block_draw_stream_is_pinned(self, monkeypatch, case, chunk):
        # the gaps are drawn a block at a time into rows and column offsets, the tail past the
        # last cell too: the sampler's cells and bits equal the single-call draw's, over up to
        # 600 blocks
        monkeypatch.setattr(model, "_WIN_CHUNK", chunk)
        n, lam, kind, p, seed = case
        pi = Permutation.identity(n) if kind == "identity" else random_permutation(
            n, np.random.default_rng(seed))
        draws = _holding_draws(monkeypatch)
        whole = sample_without_replacement(pi, star_matrix(n, lam), p, seed)
        ((rows, cols, bits),) = draws
        assert rows.shape == (n + 1,) and cols.dtype == np.uint16 and bits.dtype == np.uint8
        cells = pair_cells(n, whole.first, whole.second)
        assert _digest(cells, whole.first_wins) == GOLDEN_WITHOUT_DRAWS[case]

    def test_a_round_short_of_the_last_cell_draws_another(self, monkeypatch):
        # with no six-deviation margin, a round of 712 gaps at p = 0.9 ends before the last
        # of 780 cells for about one seed in ten; the next round goes on from its last cell
        monkeypatch.setattr(math, "sqrt", lambda x: 0.0)
        n, p = 40, 0.9
        pi, law = random_permutation(n, np.random.default_rng(1)), star_matrix(n, 0.2)
        size, short = int(p * math.comb(n, 2) + 10), 0
        for seed in range(40):
            gaps = np.random.default_rng(seed).geometric(p, size=size)
            short += int(gaps.sum()) < math.comb(n, 2)
            d = sample_without_replacement(pi, law, p, seed)
            assert _identical(d, whole_sample_without_replacement(pi, law, p, seed))
        assert short >= 2

    @pytest.mark.parametrize("n", [40, 70_000])
    @pytest.mark.parametrize("parts", [1, 3])
    def test_stages_are_new_arrays_and_the_held_draw_is_unwritten(self, monkeypatch, n, parts):
        # every stage, the one stage of the whole draw too, is decoded into arrays of its own,
        # and the held draw is only read, so every pass replays the first
        pi, law = random_permutation(n, np.random.default_rng(2)), star_matrix(n, 0.2)
        p = 0.6 if n == 40 else 1e-4
        draws = _holding_draws(monkeypatch)
        source = StageSource.without_replacement(pi, law, p, parts, 3)
        (draw,) = draws
        held = [a.copy() for a in draw]
        once, again = list(source), list(source)
        expected = _cells_source(pi, law, p, parts, 3)
        assert all(map(_identical, once, expected)) and all(map(_identical, again, expected))
        for stage in once:
            assert not any(np.shares_memory(x, y) for x in (stage.first, stage.second,
                                                          stage.first_wins) for y in draw)
            assert stage.first_wins.flags.writeable
        assert all(np.array_equal(a, b) for a, b in zip(draw, held))
        if parts == 1:
            assert once[0].same_data(sample_without_replacement(pi, law, p, derive_seed(3, 0)))

    @pytest.mark.parametrize("n, dtype", [(257, np.uint8), (258, np.uint16)])
    def test_column_offsets_at_the_width_of_n(self, monkeypatch, n, dtype):
        # the pair (1, n) has the largest column offset, n - 2: 255 fits a uint8, 256 does not
        pi, law = random_permutation(n, np.random.default_rng(5)), star_matrix(n, 0.2)
        draws = _holding_draws(monkeypatch)
        for parts in (1, 3):
            stages = list(StageSource.without_replacement(pi, law, 1.0, parts, 7))
            assert all(map(_identical, stages, _cells_source(pi, law, 1.0, parts, 7)))
            assert sum(((s.first == 1) & (s.second == n)).sum() for s in stages) == 1
        cols = draws[0][1]
        assert cols.dtype == dtype and cols.max() == n - 2 and len(cols) == math.comb(n, 2)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 40), seed=hst.integers(0, 2**32 - 1), p=hst.floats(1e-12, 1.0),
       parts=hst.sampled_from([1, 3, 257]), chunk=hst.sampled_from([4, 1000, 1 << 16]),
       pi_kind=hst.sampled_from(["identity", "random"]))
@example(n=40, seed=0, p=1.0, parts=257, chunk=4, pi_kind="random")
def test_held_draw_stages_match_the_cells_draw(n, seed, p, parts, chunk, pi_kind):
    """Every stage of the held draw (pairs per row, column offsets, packed bits) equals the
    former cells draw's and its stage split's, arrays, seeds and counts; blocks of 4 and 1000
    pairs start the bits mid-byte and rows mid-block."""
    pi = random_permutation(n, np.random.default_rng(seed)) if pi_kind == "random" else (
        Permutation.identity(n))
    law = star_matrix(n, 0.2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_WIN_CHUNK", chunk)
        source = StageSource.without_replacement(pi, law, p, parts, seed)
        stages = list(source)
        expected = _cells_source(pi, law, p, parts, seed)
    assert len(stages) == parts and all(map(_identical, stages, expected))
    assert source.counts == tuple(s.num_pairs for s in expected)


_REUSE_PROBE = """
import resource
from noisysort.estimators import MsConfig, ms_sort
from noisysort.model import StageSource, star_matrix
from noisysort.perms import Permutation

n = 4000
source = StageSource.with_replacement(Permutation.identity(n), star_matrix(n, 0.25),
                                      [266667] * 3, 1)
for _ in range(2):
    ms_sort(source, 0.25, MsConfig(stages=3))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    ms_sort(source, 0.25, MsConfig(stages=3))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(hasattr(ctypes, "WinDLL")
                    or not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"),
                    reason="the allocator policy is set on glibc only")
def test_freed_stage_arrays_are_reused_without_page_faults():
    """Importing noisysort pins glibc's mmap and trim thresholds, so the arrays that one stage
    frees serve the next: after two warm-up passes, five more ms passes of three stages each
    take almost no minor faults (about 42,000 under glibc's dynamic thresholds).  A fresh
    process, so that nothing this one allocated sets the heap; numpy's huge-page advice off,
    so that a fault is one page."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "NUMPY_MADVISE_HUGEPAGE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _REUSE_PROBE], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert int(run.stdout) < 500


class TestDeterminismAndEquivalence:
    def test_same_seed_bit_identical(self):
        args = (Permutation.identity(40), star_matrix(40, 0.3), 2000, 77)
        assert sample_with_replacement(*args).same_data(sample_with_replacement(*args))
        argso = (Permutation.identity(40), star_matrix(40, 0.3), 0.4, 77)
        assert sample_without_replacement(*argso).same_data(sample_without_replacement(*argso))

    def test_different_seeds_differ(self):
        m = star_matrix(40, 0.3)
        a = sample_with_replacement(Permutation.identity(40), m, 2000, 1)
        b = sample_with_replacement(Permutation.identity(40), m, 2000, 2)
        assert not a.same_data(b)

    def test_expected_counts_match_across_models(self):
        # p * C(n,2) = N: per-pair expected counts agree within Monte-Carlo error
        n, p = 30, 0.2
        pairs = math.comb(n, 2)
        total = round(p * pairs)
        m = star_matrix(n, 0.25)
        reps = 200
        c1 = np.zeros((n, n))
        c2 = np.zeros((n, n))
        for seed in range(reps):
            c1 += counts_dense(sample_without_replacement(Permutation.identity(n), m, p, seed))
            c2 += counts_dense(sample_with_replacement(Permutation.identity(n), m, total, seed))
        off = ~np.eye(n, dtype=bool)
        mean1 = c1[off].mean() / reps
        mean2 = c2[off].mean() / reps
        assert mean1 == pytest.approx(p, rel=0.05)
        assert mean2 == pytest.approx(p, rel=0.05)


class TestRelabeling:
    def test_relabel_preserves_structure(self):
        rng = np.random.default_rng(5)
        d = sample_with_replacement(Permutation.identity(15), star_matrix(15, 0.25), 900, 8)
        rho = random_permutation(15, rng)
        d2 = relabel_items(d, rho)
        a, a2 = wins_dense(d), wins_dense(d2)
        r = rho.to_array() - 1
        assert np.array_equal(a2[np.ix_(r, r)], a)


def _wide_indices():
    """n = 2**62: item indices of 1 to 19 digits (each width's smallest and
    largest that fit), counts of 1 to 18 digits, zero wins on either side."""
    widths = [(10 ** (d - 1), 10**d - 1) for d in range(2, 20)]
    items = [1, 9] + [v for pair in widths for v in pair if v <= 2**62] + [2**62]
    records = []
    for k, (a, b) in enumerate(zip(items, items[1:])):
        num = 10 ** (k % 18) + k
        records.append((a, b, num, (0, num, num // 2)[k % 3]))
    return make_dataset(2**62, records, seed=derive_seed(1, 3))


def _wide_without():
    """Without replacement at n = 10**18: indices across the limb boundaries."""
    items = [1, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 10**16, 10**18]
    records = [(a, b, 1, k % 2) for k, (a, b) in enumerate(zip(items, items[1:]))]
    return make_dataset(10**18, records, WITHOUT_REPLACEMENT, budget=0.25, seed=7)


def _many_lines():
    """All pairs of 300 items with counts of 1 to 7 digits: 89700 lines, past one block."""
    first, second = np.triu_indices(300, 1)
    rng = np.random.default_rng(5)
    num = 10 ** rng.integers(0, 7, size=len(first)) + rng.integers(0, 9, size=len(first))
    wins = rng.integers(0, num + 1)
    return make_dataset(300, list(zip(first + 1, second + 1, num, wins)), seed=11)


DIGIT_WIDTH_DATASETS = {
    "wide_indices": _wide_indices,
    "largest_count": lambda: make_dataset(2, [(1, 2, 2**63 - 1, 2**62)], seed=2**64 - 1),
    "zero_wins": lambda: make_dataset(4, [(1, 2, 5, 0), (1, 4, 3, 3), (2, 3, 10**4, 0)]),
    "empty_with": lambda: make_dataset(5, []),
    "empty_without": lambda: make_dataset(3, [], WITHOUT_REPLACEMENT, budget=1.0, seed=9),
    "wide_without": _wide_without,
    "many_lines": _many_lines,
}


class TestMergeAndIO:
    def test_file_roundtrip(self, tmp_path):
        d = sample_with_replacement(Permutation.identity(25), star_matrix(25, 0.2), 700, 13)
        path = tmp_path / "data.txt"
        write_dataset(d, path)
        d2 = read_dataset(path)
        assert d2.same_data(d)
        assert d2.tag == d.tag and d2.seed == d.seed
        header = path.read_text().splitlines()[0].split()
        assert header == ["25", WITH_REPLACEMENT, "700", "13"]

    def test_file_roundtrip_keeps_a_seed_past_int64(self, tmp_path):
        seed = derive_seed(1, 3)  # derive_seed gives uint64 seeds
        assert seed >= 2**63
        d = sample_with_replacement(Permutation.identity(6), star_matrix(6, 0.2), 30, seed)
        write_dataset(d, tmp_path / "data.txt")
        assert read_dataset(tmp_path / "data.txt").seed == seed

    def test_file_roundtrip_without(self, tmp_path):
        d = sample_without_replacement(Permutation.identity(15), star_matrix(15, 0.2), 0.45, 3)
        path = tmp_path / "data.txt"
        write_dataset(d, path)
        assert read_dataset(path).same_data(d)

    @pytest.mark.parametrize("with_r", [True, False])
    def test_read_returns_the_samplers_types(self, tmp_path, with_r):
        pi, law = random_permutation(40, np.random.default_rng(2)), star_matrix(40, 0.2)
        d = (sample_with_replacement(pi, law, 3000, 4) if with_r
             else sample_without_replacement(pi, law, 0.5, 4))
        write_dataset(d, tmp_path / "data.txt")
        back = read_dataset(tmp_path / "data.txt")
        assert back.same_data(d) and _narrow(d) and _narrow(back)
        assert all(getattr(back, k).dtype == getattr(d, k).dtype
                   for k in ("first", "second", "num", "first_wins"))

    @pytest.mark.parametrize("total", [2**31 - 1, 2**31, 2**31 + 1])
    def test_read_counts_past_int32_stay_exact(self, tmp_path, total):
        # one pair holds nearly every comparison; from a count of 2**31 on the counts are int64
        path = tmp_path / "data.txt"
        path.write_text(f"3 {WITH_REPLACEMENT} {total} 0\n1 2 {total - 1} {total - 6}\n"
                        f"1 3 1 1\n2 1 {total - 1} 5\n3 1 1 0\n")
        d = read_dataset(path)
        assert _narrow(d) and d.num.dtype == (np.int32 if total - 1 < 2**31 else np.int64)
        assert d.num.tolist() == [total - 1, 1] and d.first_wins.tolist() == [total - 6, 1]
        assert d.total_comparisons() == total

    @pytest.mark.parametrize("lines", DISAGREEING_RECORDS)
    def test_read_rejects_disagreeing_records(self, tmp_path, lines):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(["3 with_replacement 3 0", *lines]) + "\n")
        with pytest.raises(ValueError, match="inconsistent"):
            read_dataset(path)

    @pytest.mark.parametrize("lines", BAD_HEADER_FILES)
    def test_read_rejects_header_disagreeing_with_records(self, tmp_path, lines):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    @pytest.mark.parametrize("lines, match", [
        # the counts sum to 2**63, which wraps to the header's budget, -2**63
        (["3 with_replacement -9223372036854775808 0", "1 2 4611686018427387904 0",
          "1 3 4611686018427387904 0"], "bad header"),
        # 2 * (2**63 - 1) + 2**31 + 2 = 2**64 + 2**31 wraps to the header's budget, 2**31,
        # which the records are parsed as int64 for
        (["3 with_replacement 2147483648 0", "1 2 9223372036854775807 0",
          "1 3 9223372036854775807 0", "2 3 2147483650 0"], "sum past int64"),
    ])
    def test_read_rejects_counts_summing_past_int64(self, tmp_path, lines, match):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            read_dataset(path)
        with pytest.raises(ValueError):
            line_read_dataset(path)

    @pytest.mark.parametrize("text, line", [
        # a count of 2**31 under budget 10: the records are parsed as int32
        ("3 with_replacement 10 0\n1 2 5 1\n1 3 2147483648 0\n", 3),
        # an item of 2**40 with n = 5
        ("5 with_replacement 3 0\n1 2 3 1\n1099511627776 1 3 0\n", 3),
        # a count past int32 under budget 0; its counts would sum to 2**64, the budget wrapped
        ("3 with_replacement 0 0\n1 2 9223372036854775807 0\n1 3 9223372036854775807 0\n"
         "2 3 2 0\n", 2),
        # without replacement the width is n's alone, whatever p
        ("5 without_replacement 0.5 0\n1 2 1 1\n2 4294967296 1 0\n", 3),
        # the first bad line is named, whether its fault is its width or its syntax
        ("5 with_replacement 3 0\n1 2 3 1\n-2147483649 1 3 0\n1 x 3 0\n", 3),
        ("5 with_replacement 3 0\n1 2 3 1\n1 x 3 0\n-2147483649 1 3 0\n", 3),
    ])
    def test_read_rejects_values_wider_than_the_header_allows(self, tmp_path, text, line):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"data.txt, line {line}: a record line must be "
                                              "four integers of the header's width, int32"):
            read_dataset(path)
        with pytest.raises(ValueError):  # the int64 reference rejects them too, later
            int64_read_dataset(path)

    @pytest.mark.parametrize("lines", BAD_N_FILES)
    def test_read_rejects_header_n_below_one(self, tmp_path, lines):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad header.*n must be >= 1"):
            read_dataset(path)

    @pytest.mark.parametrize("text,line", [
        ("3 with_replacement 3 0\n1 2 3 1\n1 2 x 1\n", 3),  # a non-integer token
        ("3 with_replacement 3 0\n1 2 1_0 1\n", 2),  # int() takes 1_0, the rule does not
        ("\n\n3 with_replacement 6 0\n1 2 3 1\n\n2 1 3 2\n", 5),  # blank line after two
    ])
    def test_read_names_file_and_line_of_bad_record(self, tmp_path, text, line):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"data.txt, line {line}:"):
            read_dataset(path)

    @pytest.mark.parametrize("text", [
        "\n \n\t\n  3 with_replacement 5 0\n2 1 3 2\n1 2 3 1\n2 3 2 2\n",  # blank lines first
        "3 with_replacement 5 0\n1 2 3 1  \n2 3 2 2\t\n  \n\n\t\n",  # whitespace lines last
        "\r\n\r\n3 with_replacement 5 0\r\n1 2 3 1\r\n2 3 2 2\r\n \r\n",  # CRLF around both
    ])
    def test_read_skips_blank_lines_around_the_data(self, tmp_path, text):
        # the records are parsed from the file, past the header's line
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode())
        d = read_dataset(path)
        assert d.same_data(line_read_dataset(path)) and d.tag.budget == 5
        assert d.first.tolist() == [1, 2] and d.second.tolist() == [2, 3]
        assert d.num.tolist() == [3, 2] and d.first_wins.tolist() == [1, 2]

    def test_read_accepts_agreeing_records_in_any_order(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("3 with_replacement 5 0\n2 1 3 2\n2 3 2 2\n1 2 3 1\n3 2 2 0\n")
        d = read_dataset(path)
        assert d.first.tolist() == [1, 2] and d.second.tolist() == [2, 3]
        assert d.num.tolist() == [3, 2] and d.first_wins.tolist() == [1, 2]

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**31 - 1, 2**31, 2**32 - 1, 2**32])
    def test_read_orders_pairs_under_one_large_first_item(self, tmp_path, n):
        # from n = 2**31 - 1, first * (n + 1) + second passes 2**53 for both pairs, where a
        # float64 sum would round them to one key and leave them in the file's order
        path = tmp_path / "data.txt"
        i = n // 2 + 1
        path.write_text(f"{n} with_replacement 2 0\n{i} {i + 2} 1 0\n{i} {i + 1} 1 0\n")
        for reader in (read_dataset, int64_read_dataset):
            d = reader(path)
            assert d.first.tolist() == [i, i] and d.second.tolist() == [i + 1, i + 2]

    @pytest.mark.parametrize("name", sorted(DIGIT_WIDTH_DATASETS))
    def test_io_matches_line_reference_at_every_digit_width(self, tmp_path, name):
        d = DIGIT_WIDTH_DATASETS[name]()
        path, ref_path = tmp_path / "data.txt", tmp_path / "ref.txt"
        write_dataset(d, path)
        line_write_dataset(d, ref_path)
        assert path.read_bytes() == ref_path.read_bytes()
        back = read_dataset(path)
        assert back.same_data(d) and back.tag == d.tag and back.seed == d.seed

    def test_digit_width_datasets_cover_every_width_and_a_block_boundary(self, tmp_path):
        widths, lines = set(), 0
        for make in DIGIT_WIDTH_DATASETS.values():
            write_dataset(make(), tmp_path / "data.txt")
            body = (tmp_path / "data.txt").read_text().splitlines()[1:]
            widths.update(len(token) for line in body for token in line.split())
            lines = max(lines, len(body))
        assert widths == set(range(1, 20))
        assert lines > model._WRITE_BLOCK_ROWS

    def test_writer_peak_memory_per_pair(self, tmp_path):
        # about 100 bytes per pair here, most of it one block's temporaries; the
        # former writer, which held every value as a Python int, took 366
        d = sample_with_replacement(Permutation.identity(20000), star_matrix(20000, 0.2), 10**5, 4)
        tracemalloc.start()
        try:
            write_dataset(d, tmp_path / "data.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / d.num_pairs < 200

    @pytest.mark.parametrize("with_r", [True, False])
    def test_reader_peak_memory_per_line(self, tmp_path, with_r):
        # the records are parsed at int32 once the text is dropped (16 B per line), oriented
        # into four int32 columns beside them, and sorted by one key once the rows are dropped;
        # the int64 reader peaked at 72 B per line
        pi, law = Permutation.identity(2000), star_matrix(2000, 0.25)
        d = (sample_with_replacement(pi, law, 333333, 1) if with_r
             else sample_without_replacement(pi, law, 0.2, 1))
        path = tmp_path / "data.txt"
        write_dataset(d, path)
        read_dataset(path)  # numpy imports some modules on first use
        tracemalloc.start()
        try:
            back = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.same_data(d) and peak / (2 * d.num_pairs) <= 40

    def test_without_replacement_reader_peak_memory_per_line(self, tmp_path):
        # every count is 1 and every win 0 or 1, checked before the rows are oriented, so the
        # columns beside the int32 rows are int32 items and bool wins, with no count column:
        # 26.4 B per line traced, 33.4 with int32 counts and wins carried through the sort
        d = sample_without_replacement(Permutation.identity(2000), star_matrix(2000, 0.25), 0.2, 1)
        path = tmp_path / "data.txt"
        write_dataset(d, path)
        read_dataset(path)  # numpy imports some modules on first use
        tracemalloc.start()
        try:
            back = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _identical(back, d) and peak / (2 * d.num_pairs) <= 29

    @pytest.mark.parametrize("at", [1, 3, 4, 5, 8])
    def test_dataset_checks_reach_every_block(self, monkeypatch, at):
        # the checks run four records at a time here: a fault at a block's edge still shows
        monkeypatch.setattr(model, "_WIN_CHUNK", 4)
        first, second = np.arange(1, 10), np.arange(2, 11)
        make = lambda f, s, m=np.ones(9, np.int64), kind=WITH_REPLACEMENT: ComparisonDataset(
            n=10, first=f, second=s, num=m, first_wins=np.zeros(9, np.int64),
            tag=SamplingTag(kind, 9 if kind == WITH_REPLACEMENT else 0.5))
        make(first, second)
        swapped = first.copy()
        swapped[at - 1], swapped[at] = swapped[at], swapped[at - 1]
        with pytest.raises(ValueError, match="strictly increasing"):
            make(swapped, np.maximum(swapped + 1, second))
        wide = second.copy()
        wide[at] = 11
        with pytest.raises(ValueError, match="invalid pair record"):
            make(first, wide)
        counts = np.ones(9, np.int64)
        counts[at] = 2
        with pytest.raises(ValueError, match="one comparison"):
            make(first, second, counts, WITHOUT_REPLACEMENT)

    @pytest.mark.parametrize("text", ["", "\n", " \t\r\n\n "])
    def test_read_rejects_a_file_of_whitespace(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty dataset file"):
            read_dataset(path)

    def test_dataset_invariants_on_construction(self):
        with pytest.raises(ValueError):
            ComparisonDataset(
                n=4,
                first=np.array([2]), second=np.array([1]),  # must be first < second
                num=np.array([1]), first_wins=np.array([0]),
                tag=SamplingTag(WITH_REPLACEMENT, 1), seed=0,
            )
        with pytest.raises(ValueError):
            ComparisonDataset(
                n=4,
                first=np.array([1]), second=np.array([2]),
                num=np.array([1]), first_wins=np.array([2]),  # wins exceed count
                tag=SamplingTag(WITH_REPLACEMENT, 1), seed=0,
            )

    @pytest.mark.parametrize("first, second", [([1, 1], [2, 2]), ([1, 1], [3, 2]),
                                               ([2, 1], [3, 3])])
    def test_dataset_rejects_repeated_or_unordered_pairs(self, first, second):
        with pytest.raises(ValueError, match="strictly increasing"):
            ComparisonDataset(
                n=3, first=np.array(first), second=np.array(second),
                num=np.array([1, 1]), first_wins=np.array([0, 1]),
                tag=SamplingTag(WITH_REPLACEMENT, 2), seed=0,
            )

    def test_without_replacement_record_holds_one_comparison(self):
        with pytest.raises(ValueError, match="one comparison"):
            ComparisonDataset(
                n=3, first=np.array([1]), second=np.array([2]),
                num=np.array([2]), first_wins=np.array([1]),
                tag=SamplingTag(WITHOUT_REPLACEMENT, 0.5), seed=0,
            )


@pytest.mark.parametrize("total, count", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_count_type_turns_int64_at_two_to_the_31(total, count):
    tracemalloc.start()
    try:
        chosen = model._count_dtype(total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chosen is count and peak == 0  # a choice of type, nothing allocated


# the record types by hand: items by n, counts and wins by the largest count
ITEM_TYPES = {2: np.int16, 2**15 - 1: np.int16, 2**15: np.int32}
COUNT_TYPES = {1: np.int8, 127: np.int8, 128: np.int16, 2**15: np.int32}


def _count_type(top):
    return next(COUNT_TYPES[c] for c in sorted(COUNT_TYPES) if top <= c)


class TestRecordTypes:
    """Every producer holds items in _item_dtype(n) and, with replacement, counts and wins at
    the width of the largest count; n and the largest counts sit on both sides of each edge."""

    @pytest.mark.parametrize("n", ITEM_TYPES)
    @pytest.mark.parametrize("top", COUNT_TYPES)
    def test_with_replacement_sample(self, n, top):
        # at n = 2 every draw is the one pair's; the wide n draw 1000 pairs, counts of 1 or 2
        d = sample_with_replacement(Permutation.identity(n), star_matrix(n, 0.2),
                                    top if n == 2 else 1000, top)
        assert model._item_dtype(n) is ITEM_TYPES[n]
        assert d.first.dtype == d.second.dtype == ITEM_TYPES[n]
        assert d.num.dtype == d.first_wins.dtype == _count_type(int(d.num.max()))
        assert n > 2 or d.num.tolist() == [top]
        # int32 items are a view of the drawn uint32 pair numbers: no copy of them
        assert (d.second.base is not None and d.second.base.dtype == np.uint32) == (n >= 2**15)

    @pytest.mark.parametrize("n", ITEM_TYPES)
    def test_without_replacement_sample_and_stages(self, n):
        p = 1.0 if n == 2 else 1e-5
        pi, law = Permutation.identity(n), star_matrix(n, 0.2)
        samples = [sample_without_replacement(pi, law, p, derive_seed(3, 0))]
        for parts in (1, 3):
            samples += list(StageSource.without_replacement(pi, law, p, parts, 3))
        assert sum(s.num_pairs for s in samples[2:]) == samples[0].num_pairs > 0
        for s in samples:
            assert s.first.dtype == s.second.dtype == ITEM_TYPES[n]
            assert s.num.dtype == np.int64 and s.num.strides == (0,) and s.first_wins.dtype == bool

    @pytest.mark.parametrize("n", ITEM_TYPES)
    @pytest.mark.parametrize("top", COUNT_TYPES)
    def test_read_dataset(self, tmp_path, n, top):
        # pair (1, 2) holds the largest count, stated on both sides; pair (1, n) one comparison
        lines = [f"1 2 {top} {top // 2}", f"2 1 {top} {top - top // 2}"]
        if n > 2:
            lines += [f"{n} 1 1 1"]
        path = tmp_path / "data.txt"
        path.write_text("\n".join([f"{n} {WITH_REPLACEMENT} {top + (n > 2)} 0", *lines]) + "\n")
        d = read_dataset(path)
        assert d.first.dtype == d.second.dtype == ITEM_TYPES[n]
        assert d.num.dtype == d.first_wins.dtype == COUNT_TYPES[top]
        assert d.num.tolist() == [top] + [1] * (n > 2)
        assert d.first_wins.tolist() == [top // 2] + [0] * (n > 2)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)
        assert derive_seed(42) != derive_seed(43)


def _strictly_increasing(d):
    key = d.first.astype(np.int64) * (d.n + 1) + d.second
    return bool(np.all(np.diff(key) > 0))


@settings(max_examples=40, deadline=None)
@given(n=hst.integers(2, 30), seed=hst.integers(0, 2**32 - 1),
       total=hst.integers(1, 600), p=hst.floats(0.02, 1.0), parts=hst.integers(1, 4))
@example(n=2, seed=0, total=1, p=1.0, parts=3)
def test_every_producer_returns_pairs_in_order(n, seed, total, p, parts):
    rng = np.random.default_rng(seed)
    pi = random_permutation(n, rng)
    law = star_matrix(n, 0.2)
    with_r = sample_with_replacement(pi, law, total, seed)
    without = sample_without_replacement(pi, law, p, seed)
    produced = [with_r, without, relabel_items(with_r, random_permutation(n, rng))]
    produced += split_without_replacement(without, parts, seed)
    with tempfile.TemporaryDirectory() as tmp:  # the reader on shuffled lines
        path = Path(tmp) / "data.txt"
        write_dataset(with_r, path)
        head, *lines = path.read_text().splitlines()
        rng.shuffle(lines)
        path.write_text("\n".join([head, *lines]) + "\n")
        back = read_dataset(path)
    assert back.same_data(with_r)
    produced.append(back)
    assert all(_strictly_increasing(d) for d in produced)


@settings(max_examples=300, deadline=None)
@given(token=hst.text(alphabet="0123456789+-_ .x\u0663\uff14", min_size=1, max_size=21)
       | hst.integers(-2**64, 2**64).map(str))
def test_header_integer_rule_is_the_record_rule(token):
    """A header integer parses exactly when np.loadtxt takes it as a record
    token, and to the same value."""
    assume(token.strip() == token and " " not in token)
    try:
        expected = int(np.loadtxt([f"{token} 0"], dtype=np.int64, ndmin=2, comments=None)[0, 0])
    except ValueError:
        expected = None
    assert model._int64(token) == expected


CORRUPTIONS = ("drop_token", "non_integer", "disagree", "index_zero", "index_above_n",
               "self_pair", "header_budget", "blank_line", "comment_line", "fifth_token")


def _corrupt(head, lines, corruption, data, d):
    """The header and record lines of a written dataset ``d``, broken one way."""
    lines = list(lines)
    k = data.draw(hst.integers(0, len(lines) - 1))
    i, j, m, a = lines[k].split()
    if corruption == "drop_token":
        tokens = lines[k].split()
        del tokens[data.draw(hst.integers(0, 3))]
        lines[k] = " ".join(tokens)
    elif corruption == "non_integer":
        tokens = lines[k].split()
        tokens[data.draw(hst.integers(0, 3))] = data.draw(hst.sampled_from(["x", "1.5", ""]))
        lines[k] = " ".join(tokens)
    elif corruption == "disagree":
        lines.append(f"{i} {j} {m} {(int(a) + 1) % (int(m) + 1)}")
    elif corruption == "index_zero":
        lines[k] = f"0 {j} {m} {a}"
    elif corruption == "index_above_n":
        lines[k] = f"{i} {d.n + data.draw(hst.integers(1, 3))} {m} {a}"
    elif corruption == "self_pair":
        lines[k] = f"{j} {j} {m} {a}"
    elif corruption == "blank_line":  # before line k, so never a trailing one
        lines.insert(k, data.draw(hst.sampled_from(["", " ", "\t"])))
    elif corruption == "comment_line":
        comment = data.draw(hst.sampled_from(["#", "# comment", f"# {lines[k]}"]))
        lines.insert(data.draw(hst.integers(0, len(lines))), comment)
    elif corruption == "fifth_token":
        lines[k] += f" {data.draw(hst.sampled_from([a, '0', '7']))}"
    else:
        tokens = head.split()
        tokens[2] = (str(d.total_comparisons() + data.draw(hst.sampled_from([-2, -1, 1, 7])))
                     if d.tag.kind == WITH_REPLACEMENT
                     else data.draw(hst.sampled_from(["0", "-0.5", "1.5", "nan"])))
        head = " ".join(tokens)
    return head, lines


@settings(max_examples=80, deadline=None)
@given(n=hst.integers(2, 12), seed=hst.integers(0, 2**32 - 1), total=hst.integers(1, 200),
       p=hst.floats(0.05, 1.0), with_r=hst.booleans(), corruption=hst.sampled_from(CORRUPTIONS),
       data=hst.data())
def test_dataset_file_round_trip_and_corruption(n, seed, total, p, with_r, corruption, data):
    pi = random_permutation(n, np.random.default_rng(seed))
    law = star_matrix(n, 0.2)
    d = (sample_with_replacement(pi, law, total, seed) if with_r
         else sample_without_replacement(pi, law, p, seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        write_dataset(d, path)
        back = read_dataset(path)
        assert back.same_data(d) and back.tag == d.tag and back.seed == d.seed
        head, *lines = path.read_text().splitlines()
        assume(lines)
        head, lines = _corrupt(head, lines, corruption, data, d)
        path.write_text("\n".join([head, *lines]) + "\n")
        with pytest.raises(ValueError):
            read_dataset(path)


@settings(max_examples=80, deadline=None)
@given(n=hst.integers(1, 12), seed=hst.integers(0, 2**32 - 1), total=hst.integers(0, 200),
       p=hst.floats(0.05, 1.0), with_r=hst.booleans(), member=hst.booleans(),
       corruption=hst.sampled_from(CORRUPTIONS), data=hst.data())
def test_whole_array_io_matches_line_reference(n, seed, total, p, with_r, member, corruption,
                                               data):
    """The numpy writer and reader agree with the line-by-line reference on
    random datasets (both samplings, both laws, empty samples) and reject
    every corrupted file the reference rejects."""
    kind = WITH_REPLACEMENT if with_r else WITHOUT_REPLACEMENT
    if n < 2 or total == 0:
        d = make_dataset(n, [], kind, budget=0 if with_r else p, seed=seed)
    else:
        pi = random_permutation(n, np.random.default_rng(seed))
        law = random_member_matrix(n, 0.2, 0.05, seed) if member else star_matrix(n, 0.2)
        d = (sample_with_replacement(pi, law, total, seed) if with_r
             else sample_without_replacement(pi, law, p, seed))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. numpy's "input contained no data"
        path, ref_path = Path(tmp) / "data.txt", Path(tmp) / "ref.txt"
        write_dataset(d, path)
        line_write_dataset(d, ref_path)
        assert path.read_bytes() == ref_path.read_bytes()
        back, ref = read_dataset(path), line_read_dataset(path)
        assert back.same_data(ref) and back.same_data(d)
        assert back.tag == ref.tag and back.seed == ref.seed
        head, *lines = path.read_text().splitlines()
        if lines:
            head, lines = _corrupt(head, lines, corruption, data, d)
            path.write_text("\n".join([head, *lines]) + "\n")
            with pytest.raises(ValueError):
                line_read_dataset(path)
            with pytest.raises(ValueError):
                read_dataset(path)



# counts on both sides of the int32 parse's edge and of the int8 and int16 count types,
# and small ones
EDGE_COUNTS = (1, 2, 7, 127, 128, 2**15, 2**31 - 1, 2**31)
FILE_DEFECTS = (None, None, None, "blank_inside", "disagree", "budget", "item_past_n",
                "self_pair", "count")


def _token(value, draw):
    """``value`` as a record token: plain, signed, zero-padded, or -0 for 0."""
    styles = ["plain", "plus", "zeros"] + (["minus_zero"] if value == 0 else [])
    return {"plain": str(value), "plus": f"+{value}", "zeros": f"00{value}",
            "minus_zero": "-0"}[draw(hst.sampled_from(styles))]


@hst.composite
def dataset_files(draw):
    """A dataset file's bytes as a person might write them: lines in any order, each pair
    stated on one side or both, agreeing repeats, tabs and runs of spaces, CRLF, blank lines
    around the records, and values at the int32 edge and at n; sometimes with one defect."""
    with_r = draw(hst.booleans())
    n = draw(hst.sampled_from([2, 3, 5, 8, 2**15 - 1, 2**15, 2**31 - 1, 2**31]))
    # several items high in 1..n, so that one large first item has several seconds
    items = sorted({v for v in (1, 2, 3, n // 2, n // 2 + 1, n // 2 + 2, n - 2, n - 1, n)
                    if 1 <= v <= n})
    pairs = draw(hst.lists(hst.tuples(hst.sampled_from(items), hst.sampled_from(items))
                           .filter(lambda ij: ij[0] < ij[1]), unique=True, max_size=6))
    records = []
    for i, j in pairs:
        m = draw(hst.sampled_from(EDGE_COUNTS)) if with_r else 1
        records.append([i, j, m, draw(hst.sampled_from(sorted({0, m // 2, m})))])
    defect = draw(hst.sampled_from(FILE_DEFECTS))
    if records and defect in ("item_past_n", "self_pair", "count"):
        k = draw(hst.integers(0, len(records) - 1))
        if defect == "item_past_n":
            records[k][1] = n + draw(hst.sampled_from([1, 2**31]))
        elif defect == "self_pair":
            records[k][0] = records[k][1]
        else:
            records[k][2] += draw(hst.sampled_from([1, 2**31]))
    if with_r:
        budget = sum(m for _, _, m, _ in records) + (defect == "budget")
    else:
        budget = draw(hst.sampled_from([0.5, 1.0])) * (2 if defect == "budget" else 1)
    lines = []
    for i, j, m, a in records:
        side = draw(hst.sampled_from(["forward", "reverse", "both"]))
        stated = ([(i, j, m, a)] if side != "reverse" else []) + (
            [(j, i, m, m - a)] if side != "forward" else [])
        lines += stated + stated[:draw(hst.integers(0, 1))]  # an agreeing repeat
    if lines and defect == "disagree":
        i, j, m, a = draw(hst.sampled_from(lines))
        lines.append((i, j, m, a + 1 if a < m else a - 1))
    text = [draw(hst.sampled_from([" ", "  ", "\t", " \t "])).join(_token(v, draw) for v in line)
            for line in draw(hst.permutations(lines))]
    if len(text) > 1 and defect == "blank_inside":
        text.insert(draw(hst.integers(1, len(text) - 1)), draw(hst.sampled_from(["", " ", "\t"])))
    kind = WITH_REPLACEMENT if with_r else WITHOUT_REPLACEMENT
    head = f"{_token(n, draw)} {kind} {budget} {draw(hst.sampled_from([0, 2**64 - 1]))}"
    blank = hst.lists(hst.sampled_from(["", " ", "\t"]), max_size=2)
    eol = draw(hst.sampled_from(["\n", "\r\n"]))
    return (eol.join([*draw(blank), head, *text, *draw(blank)]) + eol).encode()


def _read_or_none(reader, path):
    try:
        return reader(path)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(body=dataset_files())
# two pairs under one first item, past 2**53 as first * (n + 1) + second, out of order
@example(body=b"2147483647 with_replacement 2 0\n1073741824 1073741826 1 0\n"
              b"1073741824 1073741825 1 0\n")
def test_reader_matches_the_int64_reference(body):
    """The reader, which parses at the header's width, accepts and rejects the same files as
    the int64 reference, and returns the same records in the same types."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_bytes(body)
        back, ref = _read_or_none(read_dataset, path), _read_or_none(int64_read_dataset, path)
    assert (back is None) == (ref is None)
    if back is not None:
        assert back.same_data(ref) and back.tag == ref.tag and back.seed == ref.seed
        assert all(getattr(back, k).dtype == getattr(ref, k).dtype
                   for k in ("first", "second", "num", "first_wins"))
