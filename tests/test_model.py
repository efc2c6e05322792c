import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy import stats

from noisysort import model
from noisysort.model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ComparisonDataset,
    ProbabilityMatrix,
    SamplingTag,
    derive_seed,
    membership_violation,
    random_member_matrix,
    read_dataset,
    relabel_items,
    sample_with_replacement,
    sample_without_replacement,
    split_with_replacement,
    split_without_replacement,
    stage_budgets,
    star_matrix,
    write_dataset,
)
from noisysort.perms import Permutation, random_permutation

from oracles import (
    BAD_HEADER_FILES,
    BAD_N_FILES,
    DISAGREEING_RECORDS,
    counts_dense,
    dense_star_entries,
    line_read_dataset,
    line_write_dataset,
    make_dataset,
    true_scores,
    wins_dense,
)


class TestStarMatrix:
    def test_two_by_two(self):
        m = star_matrix(2, 0.25)
        assert np.allclose(m.dense(), [[0.5, 0.25], [0.75, 0.5]])

    def test_entries_take_three_values(self):
        m = star_matrix(5, 0.1)
        assert set(np.round(m.dense().ravel(), 12)) == {0.4, 0.5, 0.6}

    def test_skew_symmetry(self):
        m = star_matrix(6, 0.3)
        off = ~np.eye(6, dtype=bool)
        entries = m.dense()
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
        assert np.array_equal(law.dense(), reference)
        assert membership_violation(law.dense(), lam) is None

    @pytest.mark.parametrize("order", ["identity", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_samplers_draw_same_data_under_both_laws(self, order, seed):
        n, lam = 45, 0.2
        pi = (Permutation.identity(n) if order == "identity"
              else random_permutation(n, np.random.default_rng(seed)))
        closed = star_matrix(n, lam)
        dense = ProbabilityMatrix(n=n, lam=lam, entries=dense_star_entries(n, lam))
        assert sample_with_replacement(pi, closed, 3000, seed).same_data(
            sample_with_replacement(pi, dense, 3000, seed))
        assert sample_without_replacement(pi, closed, 0.6, seed).same_data(
            sample_without_replacement(pi, dense, 0.6, seed))

    def test_star_law_stores_no_dense_table(self):
        assert star_matrix(100_000, 0.25).entries.nbytes == 3 * 8

    def test_tables_are_validated(self):
        with pytest.raises(ValueError):  # a 1-D table other than the star law's
            ProbabilityMatrix(n=5, lam=0.2, entries=np.array([0.4, 0.5, 0.7]))
        with pytest.raises(ValueError):  # a dense table of the wrong size
            ProbabilityMatrix(n=5, lam=0.2, entries=dense_star_entries(4, 0.2))
        with pytest.raises(ValueError):  # a dense table outside the class
            ProbabilityMatrix(n=4, lam=0.3, entries=dense_star_entries(4, 0.2))


class TestMembership:
    def test_star_accepted(self):
        assert membership_violation(star_matrix(6, 0.2).dense(), 0.2) is None

    def test_single_violated_entry_rejected(self):
        entries = star_matrix(6, 0.2).dense()
        entries[3, 1] = 0.6  # needs >= 0.7
        entries[1, 3] = 0.4
        assert membership_violation(entries, 0.2) is not None

    def test_random_member_is_valid(self):
        m = random_member_matrix(8, 0.2, 0.05, seed=4)
        assert membership_violation(m.entries, 0.2) is None
        assert np.array_equal(m.dense(), m.entries)
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
        d = sample_without_replacement(Permutation.identity(20), star_matrix(20, 0.3), 1.0, 5)
        assert d.num_pairs == math.comb(20, 2)
        assert (d.num == 1).all()
        a = wins_dense(d)
        c = counts_dense(d)
        assert np.array_equal(a + a.T, c)
        assert (np.diag(a) == 0).all() and (np.diag(c) == 0).all()

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


class TestSplits:
    def test_single_budget(self):
        ds = split_with_replacement(Permutation.identity(10), star_matrix(10, 0.2), [500], 7)
        assert len(ds) == 1 and ds[0].total_comparisons() == 500

    def test_budget_accounting(self):
        budgets = [250, 250] + [100] * 5
        ds = split_with_replacement(Permutation.identity(12), star_matrix(12, 0.2), budgets, 7)
        assert [d.total_comparisons() for d in ds] == budgets

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
        assert split_without_replacement(d, 1, 5)[0] is d

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

    def test_without_split_requires_without_dataset(self):
        d = sample_with_replacement(Permutation.identity(10), star_matrix(10, 0.2), 100, 1)
        with pytest.raises(ValueError):
            split_without_replacement(d, 2, 1)


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

    def test_read_accepts_agreeing_records_in_any_order(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("3 with_replacement 5 0\n2 1 3 2\n2 3 2 2\n1 2 3 1\n3 2 2 0\n")
        d = read_dataset(path)
        assert d.first.tolist() == [1, 2] and d.second.tolist() == [2, 3]
        assert d.num.tolist() == [3, 2] and d.first_wins.tolist() == [1, 2]

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


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)
        assert derive_seed(42) != derive_seed(43)


def _strictly_increasing(d):
    key = d.first * (d.n + 1) + d.second
    return bool(np.all(np.diff(key) > 0))


@settings(max_examples=40, deadline=None)
@given(n=hst.integers(2, 30), seed=hst.integers(0, 2**32 - 1),
       total=hst.integers(1, 600), p=hst.floats(0.02, 1.0), parts=hst.integers(1, 4))
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
