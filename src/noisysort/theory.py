"""Closed-form information quantities: Bernoulli/model KL divergences,
binomial tail bounds, and reference rate curves for plot overlays."""

from __future__ import annotations

import math

from .model import WITH_REPLACEMENT, WITHOUT_REPLACEMENT
from .perms import Permutation, kendall_tau

RATE_KINDS = ("minimax_o1", "minimax_o2", "ms_upper", "lower_o1", "lower_o2")


def bernoulli_kl(p: float, q: float) -> float:
    """KL(Ber(p) || Ber(q)); boundary parameters are rejected (divergence is
    infinite there)."""
    if not 0 < p < 1 or not 0 < q < 1:
        raise ValueError(f"p and q must lie strictly in (0, 1), got p={p} q={q}")
    return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))


def binomial_tail_bounds(n_draws: int, p: float, r: float, s: float) -> tuple[float, float]:
    """Closed-form tail bounds for X ~ Bin(n_draws, p).

    Returns (bound on P(X <= r*n), bound on P(X >= s*n)):

        P(X <= rn) <= exp(-n (p-r)^2 / (2 p (1-r)))
        P(X >= sn) <= exp(-n (p-s)^2 / (2 s (1-p)))
    """
    if not 0 < r < p < s < 1:
        raise ValueError(f"need 0 < r < p < s < 1, got r={r} p={p} s={s}")
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    lower = math.exp(-n_draws * (p - r) ** 2 / (2 * p * (1 - r)))
    upper = math.exp(-n_draws * (p - s) ** 2 / (2 * s * (1 - p)))
    return lower, upper


def _check_inputs(n: int, per_pair: bool, budget: float, lam: float) -> None:
    if not 0 < lam < 0.5:
        raise ValueError(f"lam must lie in (0, 1/2), got {lam}")
    if n < 2:
        raise ValueError(f"need n >= 2 items, got n={n}")
    if per_pair and not 0 <= budget <= 1:
        raise ValueError(f"per-pair probability {budget} outside [0, 1]")
    if not per_pair and not 0 <= budget < math.inf:
        raise ValueError(f"comparison count {budget} is not finite and >= 0")


def kl_at_distance(d: int, kind: str, n: int, budget: float, lam: float) -> float:
    """KL divergence between the comparison distributions under two orders of n items that
    disagree on ``d`` pairs: 2 d p lam log((1+2lam)/(1-2lam)), as every such pair adds the
    same, for per-pair observation probability p = ``budget``, or p = N / C(n,2) for
    N = ``budget`` comparisons drawn with replacement (whose draws tensorize)."""
    _check_inputs(n, kind == WITHOUT_REPLACEMENT, budget, lam)
    pairs = math.comb(n, 2)
    if not 0 <= d <= pairs:
        raise ValueError(f"two orders of {n} items disagree on 0..{pairs} pairs, not {d}")
    if kind not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ValueError(f"unknown sampling kind {kind!r}")
    rate = budget if kind == WITHOUT_REPLACEMENT else budget / pairs
    return 2.0 * rate * lam * math.log((1 + 2 * lam) / (1 - 2 * lam)) * d


def model_kl(pi: Permutation, sigma: Permutation, kind: str, n: int, budget: float,
             lam: float) -> float:
    """KL divergence between the comparison distributions under two orders: kl_at_distance
    at their Kendall tau distance."""
    if pi.n != n or sigma.n != n:
        raise ValueError("permutation sizes disagree with n")
    return kl_at_distance(kendall_tau(pi, sigma), kind, n, budget, lam)


def rate_curve(kind: str, n: int, budget: float, lam: float) -> float:
    """Evaluate a reference rate curve (see RATE_KINDS) for error overlays.

    All curves are capped at n(n-1)/2, the Kendall tau diameter: no estimator
    can do worse, so the cap is where rates go trivial.
    """
    if kind not in RATE_KINDS:
        raise ValueError(f"unknown rate kind {kind!r}; know {RATE_KINDS}")
    _check_inputs(n, kind.endswith("_o1"), budget, lam)
    cap = n * (n - 1) / 2
    if budget == 0:
        return cap
    if kind == "minimax_o1":
        raw = n / (budget * lam ** 2)
    elif kind == "minimax_o2":
        raw = n ** 3 / (budget * lam ** 2)
    elif kind == "ms_upper":
        if n < 3:
            raise ValueError("ms_upper needs n >= 3")
        raw = (n ** 3 / budget) * math.log(n) * math.log(math.log(n))
    else:  # lower_o1, lower_o2
        scale = n / budget if kind == "lower_o1" else n ** 3 / budget
        raw = min(scale / lam ** 2, scale / math.log(1 / (1 - 2 * lam)))
    return min(raw, cap)
