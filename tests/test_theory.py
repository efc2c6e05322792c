import math

import numpy as np
import pytest
from scipy import integrate

from noisysort.model import WITH_REPLACEMENT, WITHOUT_REPLACEMENT
from noisysort.perms import Permutation, kendall_tau, random_permutation
from noisysort.theory import (
    bernoulli_kl,
    binomial_tail_bounds,
    kl_at_distance,
    model_kl,
    rate_curve,
)

from oracles import bernoulli_kl_lower_bound


class TestBernoulliKl:
    def test_zero_at_equal(self):
        for p in (0.1, 0.5, 0.9):
            assert bernoulli_kl(p, p) == 0.0

    def test_closed_form_value(self):
        # 0.75 log 3 + 0.25 log(1/3) = 0.5 log 3
        assert bernoulli_kl(0.75, 0.25) == pytest.approx(0.5 * math.log(3), rel=1e-12)

    def test_matches_integral_of_density_ratio(self):
        # KL(Ber(p) || Ber(q)) = integral_q^p (p - x) / (x (1 - x)) dx
        for p, q in [(0.75, 0.25), (0.6, 0.5), (0.9, 0.2), (0.3, 0.7)]:
            lo, hi = min(p, q), max(p, q)
            val, _ = integrate.quad(lambda x: (p - x) / (x * (1 - x)), q, p)
            assert bernoulli_kl(p, q) == pytest.approx(val, rel=1e-9)

    def test_lower_bound_on_grid(self):
        for p in np.linspace(0.05, 0.95, 19):
            for q in np.linspace(0.05, 0.95, 19):
                if q < p:
                    assert bernoulli_kl(p, q) >= bernoulli_kl_lower_bound(p, q) - 1e-12

    def test_flip_symmetry(self):
        for p in np.linspace(0.1, 0.9, 9):
            for q in np.linspace(0.1, 0.9, 9):
                assert bernoulli_kl(q, p) == pytest.approx(bernoulli_kl(1 - q, 1 - p))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_kl(0.0, 0.5)
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 1.0)


class TestBinomialTails:
    def test_vanishing_exponent_near_p(self):
        lower, _ = binomial_tail_bounds(1000, 0.5, 0.5 - 1e-9, 0.6)
        assert lower == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_value(self):
        lower, _ = binomial_tail_bounds(1000, 0.5, 0.4, 0.6)
        assert lower == pytest.approx(math.exp(-1000 * 0.01 / 0.6), rel=1e-12)

    def test_flip_symmetry(self):
        # upper bound at s equals the lower bound of the flipped binomial at 1-s
        n = 500
        for p, s in [(0.5, 0.62), (0.3, 0.5), (0.7, 0.9)]:
            _, upper = binomial_tail_bounds(n, p, p / 2, s)
            lower_flipped, _ = binomial_tail_bounds(n, 1 - p, 1 - s, (1 - p) / 2 + 0.5)
            assert upper == pytest.approx(lower_flipped, rel=1e-12)

    def test_bounds_dominate_monte_carlo(self):
        rng = np.random.default_rng(17)
        n, p, r, s = 200, 0.5, 0.35, 0.65
        lower, upper = binomial_tail_bounds(n, p, r, s)
        draws = rng.binomial(n, p, size=200_000)
        assert (draws <= r * n).mean() <= lower
        assert (draws >= s * n).mean() <= upper

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            binomial_tail_bounds(100, 0.5, 0.6, 0.7)


from oracles import observation_kl_oracle


class TestModelKl:
    def test_zero_at_equal_permutations(self):
        pi = Permutation((3, 1, 2, 4))
        assert model_kl(pi, pi, WITHOUT_REPLACEMENT, 4, 0.7, 0.3) == 0.0

    def test_single_discordant_pair_equals_bernoulli_kl(self):
        pi = Permutation((2, 1, 3))
        ident = Permutation.identity(3)
        value = model_kl(pi, ident, WITHOUT_REPLACEMENT, 3, 1.0, 0.25)
        assert value == pytest.approx(0.5 * math.log(3), rel=1e-12)
        assert value == pytest.approx(bernoulli_kl(0.75, 0.25), rel=1e-12)

    def test_models_agree_when_budgets_match(self):
        pi = Permutation((4, 2, 1, 3))
        ident = Permutation.identity(4)
        p = 0.5
        n_draws = p * math.comb(4, 2)
        a = model_kl(pi, ident, WITHOUT_REPLACEMENT, 4, p, 0.2)
        b = model_kl(pi, ident, WITH_REPLACEMENT, 4, n_draws, 0.2)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("kind", [WITHOUT_REPLACEMENT, WITH_REPLACEMENT])
    def test_matches_observation_oracle(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            pi, sigma = random_permutation(n, rng), random_permutation(n, rng)
            lam = float(rng.uniform(0.05, 0.45))
            budget = float(rng.uniform(0.1, 1.0)) if kind == WITHOUT_REPLACEMENT \
                else float(rng.integers(1, 50))
            expected = observation_kl_oracle(pi, sigma, kind, n, budget, lam)
            got = model_kl(pi, sigma, kind, n, budget, lam)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_proportional_to_kendall_tau(self):
        rng = np.random.default_rng(5)
        pi, sigma = random_permutation(7, rng), random_permutation(7, rng)
        d = kendall_tau(pi, sigma)
        got = model_kl(pi, sigma, WITHOUT_REPLACEMENT, 7, 0.4, 0.3)
        assert got == pytest.approx(d * kl_at_distance(1, WITHOUT_REPLACEMENT, 7, 0.4, 0.3),
                                    rel=1e-12)

    @pytest.mark.parametrize("d, kind, n, budget, lam, message", [
        (0, WITH_REPLACEMENT, 1, 30, 0.25, "need n >= 2"),  # C(1,2) = 0 pairs to divide N by
        (0, WITHOUT_REPLACEMENT, 0, 0.5, 0.25, "need n >= 2"),
        (1, WITHOUT_REPLACEMENT, 5, 0.5, 0.7, "lam must lie in"),
        (1, WITHOUT_REPLACEMENT, 5, 0.5, math.nan, "lam must lie in"),
        (-1, WITHOUT_REPLACEMENT, 5, 0.5, 0.25, "0..10 pairs, not -1"),
        (11, WITH_REPLACEMENT, 5, 30, 0.25, "0..10 pairs, not 11"),
        (1, WITHOUT_REPLACEMENT, 5, 1.01, 0.25, "per-pair probability"),
        (1, WITHOUT_REPLACEMENT, 5, math.nan, 0.25, "per-pair probability"),
        (1, WITH_REPLACEMENT, 5, -1, 0.25, "comparison count"),
        (1, WITH_REPLACEMENT, 5, math.inf, 0.25, "comparison count"),
        (1, "both", 5, 0.5, 0.25, "unknown sampling kind"),
    ])
    def test_kl_at_distance_refuses_what_no_pair_of_orders_has(self, d, kind, n, budget, lam,
                                                               message):
        with pytest.raises(ValueError, match=message):
            kl_at_distance(d, kind, n, budget, lam)

    def test_kl_at_distance_bounds_are_inclusive(self):
        assert kl_at_distance(0, WITH_REPLACEMENT, 2, 0, 0.25) == 0.0
        assert kl_at_distance(10, WITHOUT_REPLACEMENT, 5, 1.0, 0.25) == pytest.approx(
            10 * 0.5 * math.log(3), rel=1e-12)


class TestRateCurves:
    def test_full_observation_scales_linearly(self):
        lam = 0.25
        v1 = rate_curve("minimax_o1", 100, 1.0, lam)
        v2 = rate_curve("minimax_o1", 200, 1.0, lam)
        assert v2 == pytest.approx(2 * v1)
        assert v1 == pytest.approx(100 / lam**2)

    def test_minimax_falls_with_budget_and_margin(self):
        # the sieve estimator's net radius, below the cap of 4950
        a = rate_curve("minimax_o2", 100, 100_000, 0.25)
        assert a == pytest.approx(160.0)
        assert rate_curve("minimax_o2", 100, 200_000, 0.25) < a
        assert rate_curve("minimax_o2", 100, 100_000, 0.3) < a

    def test_cap_at_diameter(self):
        n = 50
        assert rate_curve("minimax_o2", n, 1e-12, 0.25) == n * (n - 1) / 2
        assert rate_curve("minimax_o1", n, 1e-12, 0.25) == n * (n - 1) / 2

    def test_ms_upper_value(self):
        n = 10_000
        budget = 0.1 * math.comb(n, 2)
        expected = (n**3 / budget) * math.log(n) * math.log(math.log(n))
        assert rate_curve("ms_upper", n, budget, 0.25) == pytest.approx(
            min(expected, n * (n - 1) / 2)
        )

    def test_lower_bound_variant_uses_weaker_term(self):
        # near lam = 1/2 the log(1/(1-2 lam)) branch dominates the lam^-2 one
        n, p = 100, 1.0
        lam = 0.49
        value = rate_curve("lower_o1", n, p, lam)
        assert value == pytest.approx(n / (p * math.log(1 / (1 - 2 * lam))))

    def test_nonnegative_and_capped_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            kind = str(rng.choice(["minimax_o1", "minimax_o2", "ms_upper", "lower_o1"]))
            n = int(rng.integers(3, 2000))
            # the _o1 kinds read a per-pair probability, the others a comparison count
            budget = float(rng.uniform(1e-6, 1.0 if kind.endswith("_o1") else 1e7))
            lam = float(rng.uniform(0.01, 0.49))
            value = rate_curve(kind, n, budget, lam)
            assert 0 <= value <= n * (n - 1) / 2

    def test_value_and_validation(self):
        assert rate_curve("minimax_o2", 10, 1000, 0.25) == pytest.approx(16.0)
        with pytest.raises(ValueError):
            rate_curve("bogus", 10, 1, 0.2)

    def test_validates_before_the_cap(self):
        # a non-positive budget returns the cap, but only for valid inputs
        assert rate_curve("minimax_o2", 10, 0, 0.25) == 45.0
        with pytest.raises(ValueError):
            rate_curve("bogus", 10, 0, 0.2)
        with pytest.raises(ValueError):
            rate_curve("minimax_o2", 10, 0, 0.9)

    @pytest.mark.parametrize("kind", ["minimax_o1", "minimax_o2", "ms_upper", "lower_o1",
                                      "lower_o2"])
    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_refuses_fewer_than_two_items(self, kind, n):
        with pytest.raises(ValueError, match="need n >= 2"):
            rate_curve(kind, n, 0.5, 0.25)

    @pytest.mark.parametrize("kind, budget, message", [
        ("minimax_o1", 1.5, "per-pair probability"),
        ("lower_o1", -0.1, "per-pair probability"),
        ("minimax_o1", math.nan, "per-pair probability"),
        ("minimax_o2", -1.0, "comparison count"),
        ("ms_upper", math.inf, "comparison count"),
        ("lower_o2", math.nan, "comparison count"),
    ])
    def test_budget_by_kl_at_distance_rules(self, kind, budget, message):
        # kl_at_distance's rules: p in [0, 1] for the _o1 kinds, 0 <= N < inf for the others
        with pytest.raises(ValueError, match=message):
            rate_curve(kind, 10, budget, 0.25)
        sampling = WITHOUT_REPLACEMENT if kind.endswith("_o1") else WITH_REPLACEMENT
        with pytest.raises(ValueError, match=message):
            kl_at_distance(1, sampling, 10, budget, 0.25)

    @pytest.mark.parametrize("kind", ["minimax_o1", "lower_o1", "ms_upper", "lower_o2"])
    def test_zero_budget_of_either_kind_is_the_cap(self, kind):
        assert rate_curve(kind, 10, 0, 0.25) == 45.0
