"""Inverse design of the cell radius.

Both problems are solved in the dimensionless group t = R^a / c_L: an
SNR breakpoint g then sits at x = g t on the Kummer axis, where
phi(x) = 1F1(2/a; 1 + 2/a; -x) is one minus the SNR CDF and
h(x) = phi(x) - e^(-x) (see :func:`~semcell.specfun.kummer_pair`).

* The largest radius keeping the probability of ``count_floor`` or more
  users in outage below a target solves the level equation
  F(y_th t) = pi_star at the hybrid outage edge y_th, which every fit
  has (F = 1 - phi), for every path-loss exponent by one numeric root.
* The radius placing the number of semantically served users in a
  desired range with maximum probability is one of the stationary points
  of the range probability: the peak of the per-user utilization
  probability pi_g(t) = phi(g_lo t) - phi(g_hi t), where
  D(t) = h(g_hi t) - h(g_lo t) = 0, and the radii where pi_g crosses the
  binomial level of the telescoping count-derivative identity, one on
  each side of the peak.  pi_g, D and the Newton slope over the window
  ``thr.utilization_window()`` come from :func:`~semcell.outage._utilization_terms`,
  the curve :func:`~semcell.outage.sem_util_prob` and its radius
  derivative evaluate.

Every numeric equation, the utilization peak included, is bracketed in
closed form and solved by :func:`~semcell.specfun.bracketed_root`
(safeguarded Newton in ln t), starting at a closed-form asymptote of its
root, so Newton lands close to it and neither bracket end is evaluated
unless the iteration collapses onto it.  The level equations are solved
on a log scale, ln(value) - ln(level), nearly linear on the far side of
the root where each starts, so strict outage caps keep their relative
precision.  A utilization query caches its curve, so each distinct t
is evaluated once for the peak, the level roots and the reported range
probabilities.  Each solution records the solver's iteration count and
the residual of the equation it solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

from .linkmodel import NetworkParams, snr_scale
from .outage import _utilization_terms, sem_util_prob, sem_util_prob_deriv
from .ratemodel import RateThresholds, SolverError
from .specfun import (binom_range_prob, bracketed_root, inv_reg_inc_beta_int, kummer_pair,
                      lambert_w0, log_binomial)


@dataclass(frozen=True)
class DesignTarget:
    """Outage-count design target.

    ``pi_star`` is the per-user outage probability at which the chance of
    ``count_floor``-or-more outages equals ``p_th``: the level the radius
    equation must hit.  It is stored itself, not as 1 - pi_star, which
    rounds to 1 at strict caps (pi_star below about 1e-16).
    """

    p_th: float
    count_floor: int
    pi_star: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_th < 1.0):
            raise ValueError(f"p_th must lie in (0, 1), got {self.p_th}")
        if not (0.0 < self.pi_star < 1.0):
            raise ValueError(f"pi_star must lie strictly inside (0, 1), got {self.pi_star}")

    @classmethod
    def for_outage_cap(cls, p_th: float, count_floor: int, num_users: int) -> "DesignTarget":
        """Target for 'at most probability p_th of count_floor+ users in outage'."""
        if not (1 <= count_floor <= num_users):
            raise ValueError(f"need 1 <= count_floor <= num_users, got ({count_floor}, {num_users})")
        pi_star = inv_reg_inc_beta_int(p_th, count_floor, num_users - count_floor + 1)
        return cls(p_th=p_th, count_floor=count_floor, pi_star=pi_star)


@dataclass(frozen=True)
class RadiusSolution:
    radius: float
    residual: float      # ln F - ln pi_star at the root
    iterations: int      # root-finder iterations


@dataclass(frozen=True)
class UtilizationRadius:
    """One candidate radius from the utilization optimality conditions."""

    radius: float
    equation: str        # "level" or "stationary"
    range_prob: float    # probability the served-count lands in range here
    residual: float      # of the equation solved: ln pi_g - ln level, or D(t)
    iterations: int


@dataclass(frozen=True)
class UtilizationDesign:
    """All candidate radii for a utilization-range design query.

    ``has_maximum`` is False when no radius maximizes the range probability.
    """

    solutions: tuple[UtilizationRadius, ...]
    level_target: float | None
    level_attainable: bool
    semantic_possible: bool
    has_maximum: bool = True

    @property
    def best(self) -> UtilizationRadius | None:
        """The candidate with the largest range probability (on a tie, the
        smaller radius), or None without a maximizer."""
        if not (self.solutions and self.has_maximum):
            return None
        return max(self.solutions, key=lambda s: s.range_prob)


def radius_closed_form_a2(y_th: float, u_th: float, params: NetworkParams) -> float:
    """Radius solving 1F1(1; 2; -(y_th/c_L) R^2) = u_th under free-space loss.

    The paper's closed form R = sqrt((c_L / y_th) (1/u_th + W0(-(1/u_th) e^(-1/u_th))));
    the W0 argument lies in (-1/e, 0) for u_th in (0, 1), so the radicand
    is a positive root of the scalar equation e^z - 1 = u_th z.  Its
    precision falls as u_th -> 1, where the W0 argument nears the branch
    point and 1/u_th + W0 cancels, so :func:`radius_for_outage_threshold`
    solves in pi_star = 1 - u_th instead; this form is the reference it
    is checked against.
    """
    if params.pathloss_exp != 2.0:
        raise ValueError(
            f"closed-form radius needs pathloss_exp == 2, got {params.pathloss_exp}")
    if not (0.0 < u_th < 1.0):
        raise ValueError(f"u_th must lie strictly inside (0, 1), got {u_th}")
    if y_th <= 0.0:
        raise ValueError(f"y_th must be positive, got {y_th}")
    inv_u = 1.0 / u_th
    x = inv_u + lambert_w0(-inv_u * math.exp(-inv_u))
    return math.sqrt(snr_scale(params) / y_th * x)


def _kummer_level_root(s: float, pi_star: float) -> tuple[float, int, float]:
    """(x, iterations, residual) for F(x) = pi_star, x > 0, F = 1 - 1F1(s; s+1; -x).

    Solved as ln F - ln pi_star in ln x, whose derivative is s h(x) / F(x).
    F rises strictly from 0 to 1 between the bounds
    F(x) <= s x / (s+1) and 1 - F(x) <= Gamma(s+1) x^(-s), which bracket
    the root in closed form (with a factor-two margin on each side).  The
    solve starts at the first bound's root pi_star (s+1) / s, at or below
    the root, where F ~ s x / (s+1) keeps the equation nearly linear, and
    evaluates neither bracket end unless the iteration collapses onto it.
    """
    log_target = math.log(pi_star)

    def fdf(x: float) -> tuple[float, float]:
        phi, h = kummer_pair(s, x)
        # F without cancellation below x = s + 1; this formula lives here
        # only until the re-pin of ROADMAP item 1 moves it into snr_cdf
        cdf = -math.expm1(-x) - h if x < s + 1.0 else 1.0 - phi
        return math.log(cdf) - log_target, s * h / cdf

    start = pi_star * (s + 1.0) / s
    hi = (2.0 * math.gamma(s + 1.0) / (1.0 - pi_star)) ** (1.0 / s)
    return bracketed_root(fdf, 0.5 * start, hi, start=start, rising=True)


def radius_for_outage_threshold(target: DesignTarget, thr: RateThresholds,
                                params: NetworkParams) -> RadiusSolution:
    """Largest radius keeping P[count_floor or more users in outage] <= p_th.

    Solves F_g(y_th) = pi_star, i.e. 1 - 1F1(2/a; 1+2/a; -(y_th/c_L) R^a) = pi_star,
    where [0, y_th] is the hybrid outage event on the SNR axis, one interval
    on every fit (:meth:`~semcell.ratemodel.RateThresholds.outage_cdf_argument`);
    any smaller radius then satisfies the target strictly (the per-user
    outage probability F_g(y_th) increases with the radius).  Every
    exponent, free space included, takes the same root of
    ln F - ln pi_star, and SolverError is raised unless that residual is
    at most 1e-12, so strict caps stay exact in relative terms.
    """
    y_th = thr.outage_cdf_argument()
    a = params.pathloss_exp
    x, iterations, residual = _kummer_level_root(2.0 / a, target.pi_star)
    radius = (x * snr_scale(params) / y_th) ** (1.0 / a)
    if not (radius > 0.0 and abs(residual) <= 1e-12):
        raise SolverError(
            f"radius solve left residual {residual} at R={radius}; target may be degenerate")
    return RadiusSolution(radius=radius, residual=residual, iterations=iterations)


def exact_count_prob(num_users: int, count: int, thr: RateThresholds,
                     params: NetworkParams) -> float:
    """Probability exactly ``count`` of ``num_users`` users are served semantically."""
    return binom_range_prob(sem_util_prob(thr, params), num_users, count, count)


def range_count_prob_deriv(num_users: int, count_lo: int, count_hi: int,
                           thr: RateThresholds, params: NetworkParams) -> float:
    """Radius derivative of the served-count range probability.

    d f(L, m)/dR = (d pi_g/dR) L [f(L-1, m-1) - f(L-1, m)] for the pmf f,
    with the one-sided forms at m = 0 and m = L; over the range the
    interior terms cancel telescopically, leaving only the two boundary
    terms (or one of them in the extreme cases).  ``count_lo = count_hi``
    gives the derivative of :func:`exact_count_prob`.
    """
    if not (0 <= count_lo <= count_hi <= num_users):
        raise ValueError(
            f"need 0 <= count_lo <= count_hi <= num_users, got ({count_lo}, {count_hi}, {num_users})")
    if count_lo == 0 and count_hi == num_users:
        return 0.0
    dpi = sem_util_prob_deriv(thr, params)
    if dpi == 0.0:
        return 0.0
    pi_g = sem_util_prob(thr, params)
    L = num_users

    def pmf(count: int) -> float:
        return binom_range_prob(pi_g, L - 1, count, count)

    if count_hi == L:
        return dpi * L * pmf(count_lo - 1)
    if count_lo == 0:
        return -dpi * L * pmf(count_hi)
    return dpi * L * (pmf(count_lo - 1) - pmf(count_hi))


def _utilization_peak(s: float, window: tuple[float, float], curve) -> tuple[float, int, float]:
    """Root of D(t) = 0, where t pi_g'(t) = s D(t) changes sign from + to -.

    ``curve(t)`` is :func:`~semcell.outage._utilization_terms` of the
    window.  h rises on [0, 1] and falls on [X, inf) with
    X = 8 + 2 ln(1 + 1/s) (for s <= 2, i.e. a >= 1), so D > 0 at
    g_hi t = 1 and D < 0 at g_lo t = X, with one sign change between.
    The solve starts where h ~ x / (s+1) at g_lo t meets h ~ Gamma(s+1) x^(-s)
    at g_hi t: t = (Gamma(s+2) (g_lo/g_hi)^s)^(1/(s+1)) / g_lo, inside the
    bracket since g_hi t >= 1 and g_lo t <= Gamma(s+2)^(1/(s+1)) < 2.
    """
    def fdf(t: float) -> tuple[float, float]:
        return curve(t)[1:]

    g_lo, g_hi = window
    x_big = 8.0 + 2.0 * math.log1p(1.0 / s)
    start = (math.gamma(s + 2.0) * (g_lo / g_hi) ** s) ** (1.0 / (s + 1.0)) / g_lo
    return bracketed_root(fdf, 1.0 / g_hi, x_big / g_lo, start=start, rising=False)


def _utilization_level_root(s: float, window: tuple[float, float], curve, level: float,
                            t_peak: float, side: str) -> tuple[float, int, float]:
    """Root of pi_g(t) = level on one side of the peak (the level must not exceed it).

    Solved as ln pi_g - ln level in ln t, whose derivative is s D / pi_g;
    it rises below the peak and falls above it.  The bounds
    pi_g <= s (g_hi - g_lo) t / (s+1) below the peak and
    pi_g <= phi(g_lo t) <= Gamma(s+1) (g_lo t)^(-s) above it reach the
    level at level (s+1) / (s (g_hi - g_lo)) and (Gamma(s+1) / level)^(1/s) / g_lo,
    on the far side of the root.  The solve starts there (or at the peak,
    if that lies nearer), and those radii, halved or doubled, are the far
    ends of the two brackets; the near end is the peak itself.
    """
    log_level = math.log(level)

    def fdf(t: float) -> tuple[float, float]:
        value, d, _ = curve(t)
        return math.log(value) - log_level, s * d / value

    g_lo, g_hi = window
    if side == "below":
        start = level * (s + 1.0) / (s * (g_hi - g_lo))
        return bracketed_root(fdf, min(0.5 * start, 0.5 * t_peak), t_peak, start=start, rising=True)
    bound = math.gamma(s + 1.0) / level
    start = bound ** (1.0 / s) / g_lo
    t_far = (2.0 * bound) ** (1.0 / s) / g_lo
    return bracketed_root(fdf, t_peak, max(t_far, 2.0 * t_peak), start=start, rising=False)


def optimal_sem_util_radius(num_users: int, count_lo: int, count_hi: int,
                            thr: RateThresholds, params: NetworkParams) -> UtilizationDesign:
    """Candidate radii maximizing P[count_lo <= served-count <= count_hi].

    Stationary points of the range probability are the peak of the
    per-user utilization probability plus (away from the extreme count
    ranges) the radii where it crosses the binomial level
    1 / (1 + (C(L-1, count_hi) / C(L-1, count_lo - 1))^(1/(count_hi - count_lo + 1))),
    which can hold at up to two radii, one on each side of the peak.
    Every candidate is tagged with its range probability, a level radius
    with the one at the level itself so that the two tie bit for bit, and
    ``.best`` picks the maximizer; when the level exceeds the utilization
    peak only the stationary radius is returned, flagged unattainable.
    With count_lo = 0 and count_hi < num_users the range probability
    P[count <= count_hi] falls as pi_g rises: the stationary radius is its
    minimum, it tends to 1 as R -> 0 or infinity, and ``.best`` is None.
    """
    if not (0 <= count_lo <= count_hi <= num_users):
        raise ValueError(
            f"need 0 <= count_lo <= count_hi <= num_users, got ({count_lo}, {count_hi}, {num_users})")
    window = thr.utilization_window()
    if window is None:
        return UtilizationDesign(solutions=(), level_target=None,
                                 level_attainable=False, semantic_possible=False)

    extreme = count_lo == 0 or count_hi == num_users
    level = None
    if not extreme:
        log_ratio = log_binomial(num_users - 1, count_hi) - log_binomial(num_users - 1, count_lo - 1)
        level = 1.0 / (1.0 + math.exp(log_ratio / (count_hi - count_lo + 1)))

    a = params.pathloss_exp
    s = 2.0 / a
    c_l = snr_scale(params)

    curve = cache(partial(_utilization_terms, s, window))

    def solution(t: float, pi_g: float, equation: str, iterations: int,
                 residual: float) -> UtilizationRadius:
        return UtilizationRadius(
            radius=(t * c_l) ** (1.0 / a), equation=equation,
            range_prob=binom_range_prob(pi_g, num_users, count_lo, count_hi),
            residual=residual, iterations=iterations)

    t_peak, iterations, residual = _utilization_peak(s, window, curve)
    pi_peak = curve(t_peak)[0]
    solutions = [solution(t_peak, pi_peak, "stationary", iterations, residual)]

    attainable = level is not None and level <= pi_peak
    if attainable:
        for side in ("below", "above"):
            t_root, iterations, residual = _utilization_level_root(
                s, window, curve, level, t_peak, side)
            solutions.append(solution(t_root, level, "level", iterations, residual))
    solutions.sort(key=lambda sol: sol.radius)
    return UtilizationDesign(solutions=tuple(solutions), level_target=level,
                             level_attainable=attainable, semantic_possible=True,
                             has_maximum=not (count_lo == 0 and count_hi < num_users))
