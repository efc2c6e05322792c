import math
import os
import tracemalloc

import numpy as np
import pytest

from noisysort.counting import (
    ball_members,
    check_lemma_inversion_bounds,
    count_at_most_k_inversions,
    count_exactly_k_inversions,
    entropy_bounds,
    greedy_maximal_packing,
    max_inversions,
    sparse_packing_cardinality_floor,
    sparse_vg_packing,
)
from noisysort.errors import ResourceCapError
from noisysort.perms import Permutation, enumerate_permutations, kendall_tau, random_permutation

from oracles import inversion_histogram, loop_greedy_packing, loop_sparse_vg_packing


class TestCounting:
    def test_zero_radius_is_identity_only(self):
        for n in (1, 2, 5, 12):
            assert count_at_most_k_inversions(n, 0) == 1

    def test_full_radius_covers_group(self):
        assert count_at_most_k_inversions(3, 3) == 6

    def test_tables_past_physical_memory_are_refused_before_allocation(self, monkeypatch):
        # three lists of k + 1 ints, each charged a list slot and a 24-byte int head and
        # 4 bytes per 30-bit digit of n!: 250,104 bytes at n = 50 and k = C(50, 2), where the
        # count traces a peak of 228,392
        n, k, need = 50, max_inversions(50), 250_104
        for memory in (need, need - 1):
            monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}.get)
            tracemalloc.start()
            try:
                if memory < need:
                    with pytest.raises(ResourceCapError, match="physical memory"):
                        count_at_most_k_inversions(n, k)
                else:
                    assert count_at_most_k_inversions(n, k) == math.factorial(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= need and (memory == need or peak < 10_000)

    def test_single_inversion_count(self):
        # identity plus the n-1 adjacent transpositions
        assert count_at_most_k_inversions(3, 1) == 3
        assert count_at_most_k_inversions(8, 1) == 8

    def test_factorial_identity(self):
        for n in range(1, 13):
            assert count_at_most_k_inversions(n, max_inversions(n)) == math.factorial(n)

    def test_matches_enumeration_all_k(self):
        for n in range(1, 7):
            hist = inversion_histogram(n)
            running = 0
            for k in range(max_inversions(n) + 1):
                running += hist.get(k, 0)
                assert count_at_most_k_inversions(n, k) == running

    def test_exact_count_matches_enumeration(self):
        for n in range(2, 8):
            hist = inversion_histogram(n)
            for k in range(max_inversions(n) + 1):
                assert count_exactly_k_inversions(n, k) == hist.get(k, 0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            count_at_most_k_inversions(4, 7)
        with pytest.raises(ValueError):
            count_at_most_k_inversions(4, -1)


class TestInversionBounds:
    @pytest.mark.parametrize("n,k", [(5, 10), (8, 1), (3, 3)])
    def test_examples_hold(self, n, k):
        assert check_lemma_inversion_bounds(n, k).holds

    def test_sweep_small(self):
        for n in range(3, 9):
            for k in range(1, max_inversions(n) + 1):
                report = check_lemma_inversion_bounds(n, k)
                assert report.lower_bound <= report.log_count <= report.upper_bound

    def test_range_check(self):
        with pytest.raises(ValueError):
            check_lemma_inversion_bounds(4, 0)


class TestBallMembers:
    def test_radius_zero(self):
        assert list(ball_members(Permutation.identity(3), 0)) == [Permutation.identity(3)]

    def test_radius_one(self):
        members = set(ball_members(Permutation.identity(3), 1))
        assert members == {
            Permutation.identity(3),
            Permutation((2, 1, 3)),
            Permutation((1, 3, 2)),
        }

    def test_size_is_center_independent(self):
        rng = np.random.default_rng(2)
        for n in (4, 5, 6):
            base = count_at_most_k_inversions(n, 2)
            for _ in range(3):
                center = Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
                assert sum(1 for _ in ball_members(center, 2)) == base

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            list(ball_members(Permutation.identity(11), 1))


class TestGreedyPacking:
    def test_diameter_radius_gives_singleton(self):
        packing = greedy_maximal_packing(4, max_inversions(4))
        assert len(packing) == 1

    def test_zero_radius_gives_everything(self):
        assert len(greedy_maximal_packing(4, 0)) == 24

    def test_s3_radius_one(self):
        packing = greedy_maximal_packing(3, 1)
        assert len(packing) == 3
        members = packing.members
        for a in members:
            for b in members:
                if a != b:
                    assert kendall_tau(a, b) >= 2
        # net property: every permutation within distance 1 of some member
        for pi in enumerate_permutations(3):
            assert min(kendall_tau(pi, m) for m in members) <= 1

    @pytest.mark.parametrize("n,eps", [(4, 1), (4, 2), (5, 2), (6, 4)])
    def test_packing_and_net_properties(self, n, eps):
        packing = greedy_maximal_packing(n, eps)
        members = packing.members
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert kendall_tau(a, b) > eps
        for pi in enumerate_permutations(n):
            assert min(kendall_tau(pi, m) for m in members) <= eps

    @pytest.mark.parametrize("n,eps", [(1, 0), (3, 0), (4, 1), (5, 0), (5, 2), (5, 4),
                                       (6, 3), (6, 7), (6, 15)])
    def test_matches_pairwise_loop(self, n, eps):
        universe = list(enumerate_permutations(n))
        assert greedy_maximal_packing(n, eps) == loop_greedy_packing(n, eps, universe)

    def test_custom_universe_matches_pairwise_loop(self):
        # random members with repeats, then a ball in lexicographic order
        rng = np.random.default_rng(4)
        universe = [random_permutation(6, rng) for _ in range(150)]
        universe += ball_members(Permutation((2, 1, 4, 3, 6, 5)), 3)
        for eps in (0, 1, 2, 5):
            packing = greedy_maximal_packing(6, eps, universe=universe)
            assert packing == loop_greedy_packing(6, eps, universe)


class TestSparsePacking:
    def test_r1_members_are_single_swaps(self):
        packing = sparse_vg_packing(8, 1)
        ident = Permutation.identity(8)
        weights = sorted(kendall_tau(m, ident) for m in packing.members)
        assert weights == [0, 1, 1, 1, 1]  # identity plus the 4 block swaps
        swaps = [m for m in packing.members if m != ident]
        for i, a in enumerate(swaps):
            for b in swaps[i + 1:]:
                assert kendall_tau(a, b) == 2

    def test_members_stay_in_ball(self):
        for n, r in [(8, 3), (12, 5), (16, 7)]:
            ident = Permutation.identity(n)
            for m in sparse_vg_packing(n, r).members:
                assert kendall_tau(m, ident) <= r

    def test_pairwise_separation_exhaustive(self):
        packing = sparse_vg_packing(8, 3)
        members = packing.members
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert kendall_tau(a, b) >= 2  # ceil(3/2)

    def test_cardinality_floor(self):
        for n in (8, 12, 16):
            for r in range(1, n // 2):
                packing = sparse_vg_packing(n, r)
                assert len(packing) >= sparse_packing_cardinality_floor(n, r)

    def test_matches_the_hamming_code_loop(self):
        # the greedy packing of the swap-code images keeps the binary code's members, in order
        for n in (8, 12, 16):
            for r in range(1, n // 2):
                assert sparse_vg_packing(n, r) == loop_sparse_vg_packing(n, r), (n, r)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sparse_vg_packing(7, 2)  # odd n
        with pytest.raises(ValueError):
            sparse_vg_packing(8, 4)  # r >= n/2


class TestEntropyBounds:
    def test_exact_check_small(self):
        report = entropy_bounds(6, 10, 3)
        assert report.within_bounds is True
        report = entropy_bounds(4, 6, 1)
        assert report.within_bounds is True

    def test_epsilon_must_be_below_radius(self):
        with pytest.raises(ValueError):
            entropy_bounds(6, 3, 3)

    def test_large_n_reports_bounds_only(self):
        report = entropy_bounds(50, 200, 60)
        assert report.log_greedy_size is None
        assert report.prop_lower <= report.prop_upper
