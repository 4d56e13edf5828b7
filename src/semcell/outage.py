"""Closed-form outage and utilization probabilities.

Per-user outage for the hybrid, bit-only and semantic-only modes, the
two network-level outage definitions (all users / at least one user),
binomial outage-count probabilities, and the probability that a user is
actually served semantically (inside the semantic window and above the
outage rate), together with its radius derivative.

The hybrid outage probability is always assembled from the two exact
event probabilities

    P(bit preferred and bit rate below threshold)      (outside the window)
    P(semantic preferred and semantic rate below it)   (inside the window)

rather than from the single-CDF branch table; the regime tag recorded in
:class:`~semcell.ratemodel.RateThresholds` identifies which single-CDF
form the sum collapses to, and the two agree except for floating-point
dust (asserted in the test suite).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .linkmodel import NetworkParams, snr_cdf, snr_scale
from .ratemodel import HybridRegime, RateThresholds
from .specfun import hyp1f1_ratio, kummer_pair, log_binomial


class NetOutageMode(enum.Enum):
    """Network outage event: every user in outage, or at least one."""

    ALL_IN_OUTAGE = "all_in_outage"
    AT_LEAST_ONE = "at_least_one"


@dataclass(frozen=True)
class OutageReport:
    """All per-user probabilities of one scenario, plus the active regime."""

    pi_h: float
    pi_b: float
    pi_s: float
    pi_g: float
    regime: HybridRegime


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def user_outage_bit(thr: RateThresholds, params: NetworkParams) -> float:
    """Outage probability of a pure bit-transmission user: F_g(g_bit)."""
    return snr_cdf(thr.g_bit, params)


def user_outage_sem(thr: RateThresholds, params: NetworkParams) -> float:
    """Outage probability of a pure semantic user.

    Outage when the semantic rate is below the threshold or the
    similarity QoS is missed; 1 identically once k * r_out reaches the
    similarity ceiling (the semantic rate saturates below the threshold).
    """
    if thr.k_r_out <= thr.sim_floor:
        return snr_cdf(thr.g_min, params)
    if thr.k_r_out >= thr.sim_ceiling:
        return 1.0
    if thr.g_sem <= thr.g_min:
        return snr_cdf(thr.g_min, params)
    return snr_cdf(thr.g_sem, params)


def user_outage_hybrid(thr: RateThresholds, params: NetworkParams) -> float:
    """Outage probability of a hybrid user.

    Sum of the bit-outage probability outside the semantic window and the
    semantic-outage probability inside it, each evaluated by exact
    interval arithmetic on the SNR axis.
    """
    f_bit = snr_cdf(thr.g_bit, params)
    if thr.regime is HybridRegime.BITCOM_COLLAPSE:
        return f_bit
    f_min = snr_cdf(thr.g_min, params)
    f_max = snr_cdf(thr.g_max, params)

    if thr.g_bit <= thr.g_min:
        bit_term = f_bit
    elif thr.g_bit <= thr.g_max:
        bit_term = f_min
    else:
        bit_term = f_min + f_bit - f_max

    if thr.k_r_out <= thr.sim_floor:
        sem_term = 0.0
    elif thr.k_r_out >= thr.sim_ceiling:
        sem_term = f_max - f_min
    elif thr.g_sem <= thr.g_min:
        sem_term = 0.0
    elif thr.g_sem <= thr.g_max:
        sem_term = snr_cdf(thr.g_sem, params) - f_min
    else:
        sem_term = f_max - f_min

    return _clamp01(bit_term + sem_term)


def outage_report(thr: RateThresholds, params: NetworkParams) -> OutageReport:
    """Evaluate all four per-user probabilities for one scenario."""
    return OutageReport(
        pi_h=user_outage_hybrid(thr, params),
        pi_b=user_outage_bit(thr, params),
        pi_s=user_outage_sem(thr, params),
        pi_g=sem_util_prob(thr, params),
        regime=thr.regime)


def network_outage(pi: float, num_users: int, mode: NetOutageMode) -> float:
    """Network outage probability from a per-user probability.

    Users fade and land independently, so the all-in-outage event has
    probability pi^L and the at-least-one event 1 - (1 - pi)^L.
    """
    if not (0.0 <= pi <= 1.0):
        raise ValueError(f"per-user probability must lie in [0, 1], got {pi}")
    if num_users < 1:
        raise ValueError(f"num_users must be >= 1, got {num_users}")
    if mode is NetOutageMode.ALL_IN_OUTAGE:
        return pi ** num_users
    if mode is NetOutageMode.AT_LEAST_ONE:
        if pi == 1.0:
            return 1.0
        return -math.expm1(num_users * math.log1p(-pi))
    raise ValueError(f"unknown network outage mode {mode!r}")


def binom_range_prob(p: float, num_users: int, count_lo: int, count_hi: int) -> float:
    """P[count_lo <= Binomial(num_users, p) <= count_hi], in log space.

    With count_hi = num_users this equals the regularized incomplete beta
    I_p(count_lo, num_users - count_lo + 1).
    """
    if not (0 <= count_lo <= count_hi <= num_users):
        raise ValueError(
            f"need 0 <= count_lo <= count_hi <= num_users, got ({count_lo}, {count_hi}, {num_users})")
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return 1.0 if count_lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if count_hi == num_users else 0.0
    log, exp = math.log, math.exp
    log_p = log(p)
    log_q = math.log1p(-p)
    step = log_p - log_q
    log_term = log_binomial(num_users, count_lo) + count_lo * log_p + (num_users - count_lo) * log_q
    terms = [log_term]
    for m in range(count_lo, count_hi):
        log_term += log((num_users - m) / (m + 1.0)) + step
        terms.append(log_term)
    top = max(terms)
    return min(1.0, exp(top) * sum(exp(t - top) for t in terms))


def utilization_window(thr: RateThresholds) -> tuple[float, float] | None:
    """SNR interval on which a user is served semantically above the
    outage rate, or None when that event is empty.

    Derived from the regime tag so the probability and its derivative use
    exactly the branch that classified the thresholds.
    """
    regime = thr.regime
    if regime in (HybridRegime.BITCOM_COLLAPSE,
                  HybridRegime.BIT_BOUND_SATURATED,
                  HybridRegime.BIT_BOUND_ABOVE_CROSSING):
        return None
    if regime is HybridRegime.SEM_BOUND_MID_RATE:
        return (thr.g_sem, thr.g_max)
    if regime is not HybridRegime.COMPOSITE_TAIL:
        return (thr.g_min, thr.g_max)
    # composite corner: fall back to the literal window conditions
    if thr.k_r_out >= thr.sim_ceiling or thr.g_max <= thr.g_min:
        return None
    if thr.k_r_out <= thr.sim_floor or thr.g_sem <= thr.g_min:
        return (thr.g_min, thr.g_max)
    if thr.g_sem <= thr.g_max:
        return (thr.g_sem, thr.g_max)
    return None


def sem_util_prob(thr: RateThresholds, params: NetworkParams) -> float:
    """Probability a user is served semantically above the outage rate.

    Difference of two Kummer-ratio terms across the utilization window;
    identically zero when the window is empty.
    """
    window = utilization_window(thr)
    if window is None:
        return 0.0
    g_lo, g_hi = window
    a = params.pathloss_exp
    scale = params.cell_radius_m ** a / snr_scale(params)
    s = 2.0 / a
    return _clamp01(hyp1f1_ratio(s, g_lo * scale) - hyp1f1_ratio(s, g_hi * scale))


def sem_util_prob_deriv(thr: RateThresholds, params: NetworkParams) -> float:
    """Radius derivative of :func:`sem_util_prob` at the params' radius.

    (2/R) [h(x_hi) - h(x_lo)] with h(x) = 1F1(2/a; 1+2/a; -x) - e^(-x)
    (:func:`~semcell.specfun.kummer_pair`, free of cancellation as x -> 0)
    and x = g R^a / c_L evaluated at the window edges; zero in the
    empty-window branches.
    """
    radius = params.cell_radius_m
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    window = utilization_window(thr)
    if window is None:
        return 0.0
    g_lo, g_hi = window
    a = params.pathloss_exp
    scale = radius ** a / snr_scale(params)
    s = 2.0 / a
    h_lo = kummer_pair(s, g_lo * scale)[1]
    h_hi = kummer_pair(s, g_hi * scale)[1]
    return 2.0 / radius * (h_hi - h_lo)
