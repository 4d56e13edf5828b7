"""Closed-form outage and utilization probabilities.

Per-user outage for the hybrid, bit-only and semantic-only modes, the
two network-level outage definitions (all users / at least one user),
binomial outage-count probabilities, and the probability that a user is
actually served semantically (inside the semantic window and above the
outage rate), together with its radius derivative.  Both of those, and
the radius design's utilization roots, evaluate one curve,
:func:`_utilization_terms`: pi_g and its derivative terms at the window
edges x = g t on the Kummer axis, t = R^a / c_L.

This module is the measure only.  Every per-user event is a union of
disjoint SNR intervals that :class:`~semcell.ratemodel.RateThresholds`
builds from the four breakpoints, and its probability is the sum of
F_g(hi) - F_g(lo) over them (F_g the SNR CDF).  The hybrid outage event
is one interval [0, y] on every fit, the paper's branch table its
single-crossing cases (checked in the test suite); :func:`user_outage_hybrid`
sums the pinned two-part split until ROADMAP item 16's re-pin.  Nothing
here stores a value; inside :func:`~semcell.specfun.kernel_scope`, which
every sweep opens, each distinct breakpoint's F_g costs one kernel evaluation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .linkmodel import NetworkParams, snr_cdf, snr_scale
from .ratemodel import Interval, RateThresholds
from .specfun import binom_range_prob, kummer_pair


class NetOutageMode(enum.Enum):
    """Network outage event: every user in outage, or at least one."""

    ALL_IN_OUTAGE = "all_in_outage"
    AT_LEAST_ONE = "at_least_one"


@dataclass(frozen=True)
class OutageReport:
    """All per-user probabilities of one scenario."""

    pi_h: float
    pi_b: float
    pi_s: float
    pi_g: float


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def user_outage_bit(thr: RateThresholds, params: NetworkParams) -> float:
    """Outage probability of a pure bit-transmission user: F_g(g_bit)."""
    return snr_cdf(thr.g_bit, params)


def _cdf_mass(intervals: tuple[Interval, ...], params: NetworkParams) -> float:
    """SNR probability of a union of disjoint intervals: sum F(hi) - sum F(lo)."""
    return (sum(snr_cdf(hi, params) for _, hi in intervals)
            - sum(snr_cdf(lo, params) for lo, _ in intervals))


def user_outage_sem(thr: RateThresholds, params: NetworkParams) -> float:
    """Outage probability of a pure semantic user.

    Outage when the similarity QoS is missed (below g_min) or the
    semantic rate is below the threshold (below ``sem_outage_edge``); 1
    identically once k * r_out reaches the similarity ceiling.
    """
    return _cdf_mass(thr.sem_outage(), params)


def user_outage_hybrid(thr: RateThresholds, params: NetworkParams) -> float:
    """Outage probability of a hybrid user.

    Probability of the bit part (bit rate below the threshold outside
    the semantic window) plus that of the semantic part (semantic rate
    below it inside the window).
    """
    bit, sem = thr.hybrid_outage_parts()
    return _clamp01(_cdf_mass(bit, params) + _cdf_mass(sem, params))


def outage_report(thr: RateThresholds, params: NetworkParams) -> OutageReport:
    """Evaluate all four per-user probabilities for one scenario."""
    return OutageReport(
        pi_h=user_outage_hybrid(thr, params),
        pi_b=user_outage_bit(thr, params),
        pi_s=user_outage_sem(thr, params),
        pi_g=sem_util_prob(thr, params))


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


def _utilization_terms(s: float, window: Interval, t: float) -> tuple[float, float, float]:
    """(pi_g, D, t D') of the utilization window (g_lo, g_hi) at t = R^a / c_L.

    With the window edges at x = g t on the Kummer axis and (phi, h) from
    :func:`~semcell.specfun.kummer_pair`: pi_g = phi(g_lo t) - phi(g_hi t)
    (clamped to [0, 1]), D = h(g_hi t) - h(g_lo t), so that
    t pi_g'(t) = s D and R pi_g'(R) = 2 D, and t D'(t) from
    x h'(x) = x e^(-x) - s h(x) at both edges.
    """
    x_lo, x_hi = window[0] * t, window[1] * t
    phi_lo, h_lo = kummer_pair(s, x_lo)
    phi_hi, h_hi = kummer_pair(s, x_hi)
    slope = (x_hi * math.exp(-x_hi) - s * h_hi) - (x_lo * math.exp(-x_lo) - s * h_lo)
    return _clamp01(phi_lo - phi_hi), h_hi - h_lo, slope


def _utilization_at_radius(thr: RateThresholds, params: NetworkParams) -> tuple[float, float, float]:
    """:func:`_utilization_terms` at the params' radius; zeros when the window is empty."""
    window = thr.utilization_window()
    if window is None:
        return 0.0, 0.0, 0.0
    a = params.pathloss_exp
    return _utilization_terms(2.0 / a, window, params.cell_radius_m ** a / snr_scale(params))


def sem_util_prob(thr: RateThresholds, params: NetworkParams) -> float:
    """Probability a user is served semantically above the outage rate.

    Difference of two Kummer-ratio terms across the utilization window;
    identically zero when the window is empty.
    """
    return _utilization_at_radius(thr, params)[0]


def sem_util_prob_deriv(thr: RateThresholds, params: NetworkParams) -> float:
    """Radius derivative of :func:`sem_util_prob` at the params' radius.

    (2/R) [h(x_hi) - h(x_lo)] with h(x) = 1F1(2/a; 1+2/a; -x) - e^(-x)
    (free of cancellation as x -> 0) at the window edges; zero when the
    window is empty.
    """
    return 2.0 / params.cell_radius_m * _utilization_at_radius(thr, params)[1]
