import copy
import pickle
import tracemalloc

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

from oracles import (
    adjacent_transposition,
    kendall_tau_brute,
    merge_inversions,
    recursive_inversions,
)


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

    @pytest.mark.parametrize("build", [
        lambda: Permutation.from_array(np.array([1.5, 2.0])),  # was truncated to (1, 2)
        lambda: Permutation.from_array(np.array([2.0, 1.0])),  # whole floats too
        lambda: Permutation((2.0, 1.0)),  # wrote "2.0 1.0", which from_line refuses
        lambda: Permutation(("2", 1)),  # was a TypeError
        lambda: Permutation("21"),
        lambda: Permutation((True, 2)),
        lambda: Permutation.from_array(np.array([True])),
        lambda: Permutation((np.bool_(True),)),
        lambda: Permutation.from_array(np.array([[1, 2]])),
        lambda: Permutation.from_array(np.array(5)),
        lambda: Permutation.from_array(np.array([1, 2], dtype=object)),
        lambda: Permutation.from_array(np.array([2, 2])),
        lambda: Permutation.from_array(np.array([0, 1])),
        lambda: Permutation.from_array(np.array([2**63 + 1, 1], dtype=np.uint64)),
        lambda: Permutation((1, 2**70)),
    ], ids=["float-array", "whole-float-array", "float-tuple", "str-tuple", "str", "bool-tuple",
            "bool-array", "numpy-bool-tuple", "2-d-array", "0-d-array", "object-array",
            "repeat-array", "zero-array", "uint64-array", "huge-int-tuple"])
    def test_refuses_what_is_not_a_permutation_in_integers(self, build):
        with pytest.raises(ValueError, match="not a permutation"):
            build()

    @pytest.mark.parametrize("pi", [
        Permutation((np.int64(2), np.uint8(1), 3)),
        Permutation.from_array(np.array([2, 1, 3], dtype=np.uint8)),
        Permutation.from_array([2, 1, 3]),
        Permutation.from_line(" 2 1\t3 "),
    ], ids=["numpy-int-tuple", "uint8-array", "list", "line"])
    def test_map_and_line_give_python_ints(self, pi):
        assert pi.map == (2, 1, 3) and all(type(v) is int for v in pi.map)
        assert pi.to_line() == "2 1 3" and type(pi(1)) is int and type(pi.n) is int

    def test_empty(self):
        assert Permutation(()) == Permutation.from_array(np.array([], dtype=np.int64)) \
            == Permutation.identity(0) == Permutation.from_line("")
        assert Permutation(()).map == () and Permutation(()).to_line() == ""

    def test_array_is_read_only_and_not_a_copy(self):
        pi = Permutation.from_array(np.array([3, 1, 2]))
        ranks = pi.to_array()
        assert ranks is pi.to_array() and ranks.dtype == np.int64
        assert not ranks.flags.writeable
        with pytest.raises(ValueError):
            ranks[0] = 1

    def test_input_array_is_copied(self):
        source = np.array([3, 1, 2])
        pi = Permutation.from_array(source)
        source[:] = (1, 2, 3)
        assert pi.map == (3, 1, 2) and not np.shares_memory(pi.to_array(), source)

    def test_immutable(self):
        pi = perm(2, 1)
        with pytest.raises(AttributeError):
            pi._ranks = np.array([1, 2])
        with pytest.raises(AttributeError):
            pi.extra = 1
        with pytest.raises(AttributeError):
            del pi._ranks
        assert pi.map == (2, 1)

    def test_tuple_and_array_built_are_equal_and_hash_alike(self):
        rng = np.random.default_rng(29)
        for n in (0, 1, 2, 7, 100, 1000):
            arr = rng.permutation(n) + 1
            built = [Permutation(tuple(arr.tolist())), Permutation(list(arr.tolist())),
                     Permutation(tuple(arr)), Permutation.from_array(arr),
                     Permutation.from_array(arr.astype(np.uint16)),
                     Permutation.from_line(" ".join(map(str, arr.tolist())))]
            assert all(b == built[0] for b in built)
            assert len({hash(b) for b in built}) == 1 and len(set(built)) == 1
            if n > 1:
                other = Permutation.from_array(np.roll(arr, 1))
                assert other != built[0] and built[0] not in {other}
        assert perm(1) != (1,) and perm(1) != Permutation.identity(2)

    def test_copies_and_pickles_stay_equal_and_read_only(self):
        pi = perm(3, 1, 2)
        for twin in (copy.copy(pi), copy.deepcopy(pi), pickle.loads(pickle.dumps(pi))):
            assert twin == pi and hash(twin) == hash(pi)
            assert not twin.to_array().flags.writeable
        assert repr(pi) == "Permutation(map=(3, 1, 2))"

    def test_holds_eight_bytes_per_item(self):
        n = 10**5
        tracemalloc.start()
        try:
            pi = Permutation.identity(n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pi.n == n and held <= 8 * n + 4096  # a tuple of Python ints held about 36


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

    def test_matches_both_oracles_and_pair_count(self):
        # block ids are one byte wide from some level on, and up to n = 2^17 two bytes
        rng = np.random.default_rng(8)
        for n in list(range(301)) + [2**k + d for k in range(9, 13) for d in (-1, 1)]:
            pi, sigma = rand_perm(rng, n), rand_perm(rng, n)
            word = np.empty(n, dtype=np.int64)
            word[sigma.to_array() - 1] = pi.to_array()
            assert kendall_tau(pi, sigma) == merge_inversions(word) \
                == recursive_inversions(word) == kendall_tau_brute(pi, sigma)

    @pytest.mark.parametrize("n", [131070, 131071, 131072, 131073])
    def test_matches_merge_oracle_where_block_ids_turn_four_bytes(self, n):
        # the first level's largest block id, (n - 1) >> 1, passes 2^16 - 1 at n = 131073
        rng = np.random.default_rng(n)
        pi, sigma = rand_perm(rng, n), rand_perm(rng, n)
        word = np.empty(n, dtype=np.int64)
        word[sigma.to_array() - 1] = pi.to_array()
        assert kendall_tau(pi, sigma) == merge_inversions(word)
        assert kendall_tau(Permutation.reverse(n), Permutation.identity(n)) == n * (n - 1) // 2

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

    def test_large_table_sums_and_round_trips(self):
        pi = random_permutation(2000, np.random.default_rng(29))
        table = to_inversion_table(pi)
        assert sum(table.b) == kendall_tau(pi, Permutation.identity(2000))
        assert from_inversion_table(table) == pi

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
