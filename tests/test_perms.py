import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysort.errors import ResourceCapError, SizeMismatchError
from noisysort.perms import (
    InversionTable,
    Permutation,
    compose,
    enumerate_permutations,
    from_inversion_table,
    invert,
    kendall_tau,
    l1_distance,
    linf_distance,
    random_permutation,
    to_inversion_table,
)

from oracles import adjacent_transposition, kendall_tau_brute, recursive_inversions


def perm(*vals):
    return Permutation(tuple(vals))


def rand_perm(rng, n):
    return Permutation(tuple(int(v) for v in rng.permutation(n) + 1))


class TestPermutationType:
    def test_identity(self):
        assert Permutation.identity(4).map == (1, 2, 3, 4)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            perm(1, 1, 3)
        with pytest.raises(ValueError):
            perm(0, 1, 2)

    def test_line_roundtrip(self):
        pi = perm(3, 1, 2)
        assert Permutation.from_line(pi.to_line()) == pi
        assert pi.to_line() == "3 1 2"

    def test_call_is_one_indexed(self):
        pi = perm(3, 1, 2)
        assert pi(1) == 3 and pi(3) == 2


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau(Permutation.identity(4), Permutation.identity(4)) == 0

    def test_full_reversal_attains_max(self):
        assert kendall_tau(Permutation.reverse(4), Permutation.identity(4)) == 6

    def test_adjacent_swaps(self):
        # brute-force pair enumeration gives 2 for [2,1,4,3] vs identity
        assert kendall_tau(perm(2, 1, 4, 3), Permutation.identity(4)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(SizeMismatchError):
            kendall_tau(Permutation.identity(3), Permutation.identity(4))

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 301))
            pi, sigma = rand_perm(rng, n), rand_perm(rng, n)
            assert kendall_tau(pi, sigma) == kendall_tau_brute(pi, sigma)

    def test_matches_recursive_count_and_brute_force_small_n(self):
        rng = np.random.default_rng(8)
        for n in range(71):
            for _ in range(3):
                pi, sigma = rand_perm(rng, n), rand_perm(rng, n)
                word = np.empty(n, dtype=np.int64)
                word[sigma.to_array() - 1] = pi.to_array()
                d = kendall_tau(pi, sigma)
                assert d == kendall_tau_brute(pi, sigma) == recursive_inversions(word)

    @pytest.mark.parametrize("n", [4000, 8000])
    def test_matches_recursive_count_large_n(self, n):
        rng = np.random.default_rng(n)
        near = np.arange(1, n + 1)
        swaps = rng.integers(0, n - 1, size=25)
        for k in swaps:
            near[k], near[k + 1] = near[k + 1], near[k]
        for word in (rng.permutation(n) + 1, near, near[::-1].copy()):
            assert kendall_tau(Permutation.from_array(word), Permutation.identity(n)) \
                == recursive_inversions(word)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            a, b, c = (rand_perm(rng, n) for _ in range(3))
            assert kendall_tau(a, a) == 0
            assert kendall_tau(a, b) == kendall_tau(b, a)
            assert (kendall_tau(a, b) > 0) == (a != b)
            assert kendall_tau(a, c) <= kendall_tau(a, b) + kendall_tau(b, c)

    def test_left_composition_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            rho, pi, sigma = (rand_perm(rng, n) for _ in range(3))
            assert kendall_tau(compose(rho, pi), compose(rho, sigma)) == kendall_tau(pi, sigma)


class TestOtherDistances:
    def test_l1_zero_on_equal(self):
        assert l1_distance(Permutation.identity(5), Permutation.identity(5)) == 0

    def test_l1_adjacent_transposition(self):
        assert l1_distance(perm(2, 1, 3), Permutation.identity(3)) == 2

    def test_l1_direct_sum(self):
        assert l1_distance(perm(3, 1, 2), Permutation.identity(3)) == 4

    def test_linf_examples(self):
        assert linf_distance(Permutation.identity(6), Permutation.identity(6)) == 0
        assert linf_distance(Permutation.reverse(4), Permutation.identity(4)) == 3
        assert linf_distance(perm(2, 1, 4, 3), Permutation.identity(4)) == 1

    def test_sandwich_small_exhaustive(self):
        for n in range(1, 6):
            perms = list(enumerate_permutations(n))
            for pi in perms:
                for sigma in perms:
                    d = kendall_tau(pi, sigma)
                    l1 = l1_distance(pi, sigma)
                    assert d <= l1 <= 2 * d

    @given(st.permutations(list(range(1, 10))), st.permutations(list(range(1, 10))))
    @settings(max_examples=80, deadline=None)
    def test_sandwich_random(self, a, b):
        pi, sigma = Permutation(tuple(a)), Permutation(tuple(b))
        d, l1 = kendall_tau(pi, sigma), l1_distance(pi, sigma)
        assert d <= l1 <= 2 * d

    def test_l1_at_most_n_times_linf(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            pi, sigma = rand_perm(rng, n), rand_perm(rng, n)
            assert l1_distance(pi, sigma) <= n * linf_distance(pi, sigma)


class TestInversionTables:
    def test_identity_gives_zero_table(self):
        assert to_inversion_table(Permutation.identity(5)).b == (0,) * 5

    def test_examples(self):
        assert to_inversion_table(perm(3, 1, 2)).b == (2, 0, 0)
        assert to_inversion_table(perm(3, 2, 1)).b == (2, 1, 0)
        assert from_inversion_table(InversionTable((2, 0, 0))) == perm(3, 1, 2)
        assert from_inversion_table(InversionTable((0, 0, 0))) == Permutation.identity(3)

    def test_sum_equals_kendall_tau_to_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            pi = rand_perm(rng, n)
            assert sum(to_inversion_table(pi).b) == kendall_tau(pi, Permutation.identity(n))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            InversionTable((3, 0, 0))  # b[0] may be at most n-1 = 2

    @given(st.permutations(list(range(1, 8))))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_random(self, vals):
        pi = Permutation(tuple(vals))
        assert from_inversion_table(to_inversion_table(pi)) == pi

    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 6):
            for pi in enumerate_permutations(n):
                assert from_inversion_table(to_inversion_table(pi)) == pi


class TestEnumeration:
    def test_n1(self):
        assert [p.map for p in enumerate_permutations(1)] == [(1,)]

    def test_n3_count(self):
        assert len(list(enumerate_permutations(3))) == 6

    def test_lexicographic_extremes(self):
        perms = list(enumerate_permutations(4))
        assert perms[0] == Permutation.identity(4)
        assert perms[-1] == Permutation.reverse(4)
        assert len(perms) == 24

    def test_cap_refusal_names_cap(self):
        with pytest.raises(ResourceCapError, match="cap 10"):
            next(enumerate_permutations(11))


class TestGroupOps:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(3)
        pi = rand_perm(rng, 9)
        assert compose(pi, Permutation.identity(9)) == pi
        assert compose(Permutation.identity(9), pi) == pi

    def test_compose_with_inverse(self):
        rng = np.random.default_rng(5)
        pi = rand_perm(rng, 12)
        assert compose(pi, invert(pi)) == Permutation.identity(12)
        assert compose(invert(pi), pi) == Permutation.identity(12)

    def test_compose_order(self):
        first = perm(2, 3, 1)
        then = perm(1, 3, 2)
        # result(i) = then(first(i))
        assert compose(first, then) == perm(3, 2, 1)

    def test_adjacent_transposition(self):
        assert adjacent_transposition(3, 1) == perm(2, 1, 3)
        with pytest.raises(ValueError):
            adjacent_transposition(3, 3)

    def test_random_permutation_is_valid(self):
        rng = np.random.default_rng(0)
        pi = random_permutation(100, rng)
        assert sorted(pi.map) == list(range(1, 101))
