"""Rate models and SNR breakpoints.

The semantic channel is summarized by a fitted generalized-logistic curve
mapping received SNR (in dB) to a similarity score in (a1, a2); the bit
channel by the gap-to-capacity rate log2(1 + g / gamma) / mu.  Both rates
are expressed in the same normalized units (semantic units per second,
per Hz of user bandwidth and per unit of information-per-word), which is
what lets every SNR breakpoint below come out independent of bandwidth.

Breakpoints:

* ``g_min``  -- lowest SNR meeting the similarity QoS threshold,
* ``g_max``  -- largest SNR where the semantic rate still matches the bit
  rate (above it the bit rate wins),
* ``g_bit``  -- SNR where the bit rate equals the outage rate threshold,
* ``g_sem``  -- SNR where the semantic rate equals the outage rate
  threshold (absent when the logistic floor/ceiling makes it vacuous;
  ``sem_outage_edge`` is then 0 or infinity).

Every per-user event is a union of disjoint intervals on the SNR axis
with these breakpoints as ends, and :class:`RateThresholds` alone builds
them, so :mod:`semcell.outage` only sums SNR-CDF differences.  The hybrid
outage event is [0, min(g_bit, max(g_min, sem_outage_edge))] on every fit;
the rows of the paper's branch table are its single-crossing cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import SolverError


@dataclass(frozen=True)
class SimilarityFit:
    """Logistic similarity curve constants plus symbols-per-word k."""

    a1: float
    a2: float
    c1: float
    c2: float
    k: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.a1 < self.a2 <= 1.0):
            raise ValueError(f"asymptotes must satisfy 0 <= a1 < a2 <= 1, got a1={self.a1}, a2={self.a2}")
        if not (math.isfinite(self.c1) and self.c1 > 0.0):
            raise ValueError(f"logistic slope c1 must be positive, got {self.c1}")
        if not math.isfinite(self.c2):
            raise ValueError(f"logistic offset c2 must be finite, got {self.c2}")
        if self.k < 1:
            raise ValueError(f"symbols per word k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class RateConfig:
    """Bit-channel and threshold constants for one scenario."""

    mu: int
    ber: float
    m_th: float
    r_out: float
    use_capacity: bool = False

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError(f"bit symbols per word mu must be >= 1, got {self.mu}")
        if not (0.0 < self.ber < 0.2):
            raise ValueError(f"ber must lie in (0, 0.2) so the SNR gap stays positive, got {self.ber}")
        if not (0.0 < self.m_th < 1.0):
            raise ValueError(f"similarity threshold must lie in (0, 1), got {self.m_th}")
        if not (math.isfinite(self.r_out) and self.r_out > 0.0):
            raise ValueError(f"outage rate threshold must be positive, got {self.r_out}")
        try:
            g_bit = _bit_outage_edge(self)
        except OverflowError:
            g_bit = math.inf
        if not math.isfinite(g_bit):
            raise ValueError(f"outage rate threshold {self.r_out} puts the bit outage edge "
                             "g_bit = gamma (2^(mu r_out) - 1) "
                             f"beyond the float range at mu={self.mu}")


Interval = tuple[float, float]


@dataclass(frozen=True)
class RateThresholds:
    """Derived SNR breakpoints and the per-user events they bound.

    ``sem_outage_edge`` is the SNR below which the semantic rate misses
    r_out: 0 when it never does, infinity when it always does, ``g_sem``
    between.
    """

    g_min: float
    g_max: float
    g_bit: float
    sem_outage_edge: float

    @property
    def g_sem(self) -> float | None:
        """SNR where the semantic rate equals r_out; None when the edge is 0 or infinity."""
        edge = self.sem_outage_edge
        return edge if 0.0 < edge < math.inf else None

    def hybrid_outage_parts(self) -> tuple[tuple[Interval, ...], tuple[Interval, ...]]:
        """The hybrid outage event split at the semantic window [g_min, g_max]:
        (bit part, semantic part), [0, g_bit] outside it and [0, sem_outage_edge]
        inside it.  Its only reader is the pinned pi_h column; on a
        multi-crossing fit, whose window spans a second crossing, it can differ
        from the event [0, outage_cdf_argument()] (ROADMAP item 16).
        """
        g_min, g_max, g_bit = self.g_min, self.g_max, self.g_bit
        if g_max <= g_min:
            return ((0.0, g_bit),), ()
        bit = ((0.0, min(g_bit, g_min)),)
        if g_bit > g_max:
            bit += ((g_max, g_bit),)
        edge = min(self.sem_outage_edge, g_max)
        return bit, ((g_min, edge),) if edge > g_min else ()

    def sem_outage(self) -> tuple[Interval, ...]:
        """The semantic-only outage event: below g_min or ``sem_outage_edge``."""
        return ((0.0, max(self.g_min, self.sem_outage_edge)),)

    def utilization_window(self) -> Interval | None:
        """The semantic window [g_min, g_max] above ``sem_outage_edge``, where a
        user is served semantically above the outage rate; None when empty."""
        lo = max(self.g_min, self.sem_outage_edge)
        return (lo, self.g_max) if lo < self.g_max else None

    def outage_cdf_argument(self) -> float:
        """The y for which the hybrid outage event is [0, y], so that its
        probability is F_g(y), on every fit: a hybrid user gets the bit rate
        below g_min and the larger of the two rates above it, both increasing
        in g, so the hybrid rate never decreases, and g_max plays no part."""
        return min(self.g_bit, max(self.g_min, self.sem_outage_edge))


def _scalar_like(value, template):
    return float(value) if np.ndim(template) == 0 else value


def similarity(g, fit: SimilarityFit):
    """Similarity score at linear SNR g: a1 + (a2-a1) / (1 + e^-(c1*10*log10(g)+c2)).

    Accepts scalars or arrays; strictly increasing from a1 (g -> 0) to a2
    (g -> infinity).
    """
    garr = np.asarray(g, dtype=float)
    if np.any(garr <= 0.0) or np.any(np.isnan(garr)):
        raise ValueError("similarity requires strictly positive SNR")
    z = fit.c1 * 10.0 * np.log10(garr) + fit.c2
    value = fit.a1 + (fit.a2 - fit.a1) / (1.0 + np.exp(-np.clip(z, -745.0, 745.0)))
    return _scalar_like(value, g)


def inv_similarity(m: float, fit: SimilarityFit) -> float:
    """Linear SNR at which the similarity curve reaches m in (a1, a2);
    ValueError when that SNR is beyond the float range."""
    if not (fit.a1 < m < fit.a2):
        raise ValueError(f"inverse similarity needs a1 < m < a2, got m={m} for bounds ({fit.a1}, {fit.a2})")
    try:
        g = 10.0 ** (-(math.log((fit.a2 - m) / (m - fit.a1)) + fit.c2) / (10.0 * fit.c1))
    except OverflowError:
        g = math.inf
    if g == math.inf:
        raise ValueError(f"the similarity curve reaches {m} at an SNR beyond the float range "
                         f"(c1={fit.c1}, c2={fit.c2})")
    return g


def gamma_gap(cfg: RateConfig) -> float:
    """SNR gap of the uncoded scheme: max(-ln(5 ber) / 1.5, 1); 1 at capacity."""
    if cfg.use_capacity:
        return 1.0
    return max(1.0, -math.log(5.0 * cfg.ber) / 1.5)


def _bit_outage_edge(cfg: RateConfig) -> float:
    """g_bit = gamma (2^(mu r_out) - 1), where the bit rate equals r_out."""
    return gamma_gap(cfg) * (2.0 ** (cfg.mu * cfg.r_out) - 1.0)


def rate_crossing_bracket(mu: int, fit: SimilarityFit, gap: float) -> float:
    """g_hi = gamma (2^(mu a2 / k) - 1), where the bit rate passes the semantic
    ceiling a2/k, so that every rate crossing lies below it; ValueError when
    it overflows or rounds to 0."""
    try:
        g_hi = gap * (2.0 ** (mu * fit.a2 / fit.k) - 1.0)
    except OverflowError:
        g_hi = math.inf
    if not 0.0 < g_hi < math.inf:
        raise ValueError(f"rate-crossing bracket gamma (2^(mu a2 / k) - 1) "
                         f"{'overflowed' if g_hi else 'rounded to 0'} "
                         f"at mu={mu}, a2={fit.a2}, k={fit.k}")
    return g_hi


def semantic_edges(cfg: RateConfig, fit: SimilarityFit) -> tuple[float, float]:
    """(g_min, sem_outage_edge): the SNRs where the similarity curve reaches
    m_th and k r_out, the edge 0 or infinity as k r_out lies at most a1 or at
    least a2.  ValueError when m_th lies outside the fit asymptotes or either
    SNR is beyond the float range."""
    if not (fit.a1 < cfg.m_th < fit.a2):
        raise ValueError(
            f"similarity threshold {cfg.m_th} must lie strictly between the fit asymptotes ({fit.a1}, {fit.a2})")
    sim_out = fit.k * cfg.r_out
    if sim_out <= fit.a1:
        edge = 0.0
    elif sim_out >= fit.a2:
        edge = math.inf
    else:
        edge = inv_similarity(sim_out, fit)
    return inv_similarity(cfg.m_th, fit), edge


def bit_rate(g, cfg: RateConfig):
    """Bit-transmission rate log2(1 + g / gamma) / mu.

    Zero at g = 0, strictly increasing and unbounded.
    """
    garr = np.asarray(g, dtype=float)
    if np.any(garr < 0.0) or np.any(np.isnan(garr)):
        raise ValueError("bit_rate requires nonnegative SNR")
    value = np.log2(1.0 + garr / gamma_gap(cfg)) / cfg.mu
    return _scalar_like(value, g)


def sem_rate(g, cfg: RateConfig, fit: SimilarityFit):
    """Semantic-transmission rate similarity(g) / k.

    Bounded between a1/k and a2/k; strictly increasing.
    """
    return similarity(g, fit) / fit.k


def _rate_gap_deriv(g: float, mu: int, fit: SimilarityFit, gap: float) -> float:
    z = fit.c1 * 10.0 * math.log10(g) + fit.c2
    z = min(700.0, max(-700.0, z))
    sig = 1.0 / (1.0 + math.exp(-z))
    dm = (fit.a2 - fit.a1) * sig * (1.0 - sig) * fit.c1 * 10.0 / (g * math.log(10.0))
    return dm / fit.k - 1.0 / (mu * math.log(2.0) * (gap + g))


_POLISH_STEPS = 40  # Newton steps the g_max polish may take


def _geomspace_grid(start: float, stop: float) -> list[float]:
    """``np.geomspace(start, stop, 121).tolist()`` for positive start and stop,
    element for element: the ufunc calls numpy's geomspace, logspace and
    linspace make, in their order, without the argument handling."""
    log_start, log_stop = np.log10(start), np.log10(stop)
    exponents = np.arange(121.0)
    exponents *= (log_stop - log_start) / 120
    exponents += log_start
    exponents[-1] = log_stop
    grid = np.power(10.0, exponents)
    grid[0], grid[-1] = start, stop
    return grid.tolist()


@lru_cache(maxsize=128)
def _solve_rate_crossing(mu: int, fit: SimilarityFit, gap: float) -> float:
    """Largest g with sem_rate(g) = bit_rate(g): g_max.

    The largest crossing lies below :func:`rate_crossing_bracket` g_hi;
    scan a log grid downwards for the first sign change, bisect, then
    polish with safeguarded Newton steps to machine residual.

    The returned float is pinned, bit for bit, by the reference CSVs, so
    the work is cut without moving it.  Each 121-point grid is the one
    ``np.geomspace(upper, upper * 1e-6, 121)`` returns, built from the same
    ufunc calls without its Python wrapper (:func:`_geomspace_grid`); the
    scan reads about two of its points.  The bisection and every exit test
    are unchanged.  The polish's only state is g, so once an iterate
    repeats, the loop would cycle to its 40th step without meeting an exit
    test: it stops there and returns the cycle member that step ends on.

    The memo key is exactly what the crossing reads, so configs that
    differ only in m_th or r_out share one solve.  It is bounded because
    design queries each bring a new fit; a failed solve is not stored and
    raises again on the next call.
    """
    try:
        g_hi = rate_crossing_bracket(mu, fit, gap)
    except ValueError as exc:
        raise SolverError(str(exc)) from exc

    slope, a1, span, c2, k = fit.c1 * 10.0, fit.a1, fit.a2 - fit.a1, fit.c2, fit.k
    log10, log2, exp = math.log10, math.log2, math.exp

    def f(g: float) -> float:
        """Normalized semantic-minus-bit rate; its largest zero is g_max."""
        z = min(745.0, max(-745.0, slope * log10(g) + c2))
        return (a1 + span / (1.0 + exp(-z))) / k - log2(1.0 + g / gap) / mu

    hi, f_hi = g_hi, f(g_hi)
    if f_hi >= 0.0:
        # the similarity value rounds onto the ceiling a2 once the
        # logistic tail underflows, which pins the crossing at g_hi to
        # within float resolution; anything larger is a logic error
        if f_hi <= 1e-13:
            return g_hi
        raise SolverError(f"semantic rate should lie below the bit rate at g={g_hi}, got gap {f_hi}")
    lo = None
    upper = hi
    # the documented search window spans six decades below g_hi; extend
    # further only if no sign change was seen (can happen when a1 ~ 0)
    for _ in range(5):
        for g in _geomspace_grid(upper, upper * 1e-6)[1:]:
            if f(g) > 0.0:
                lo = g
                break
            upper = g
        if lo is not None:
            break
    if lo is None:
        raise SolverError(
            "no semantic/bit rate crossing found below "
            f"g={g_hi} (searched 30 decades); thresholds are inconsistent")
    hi = upper
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    g = 0.5 * (lo + hi)
    path = {g: 0}  # iterate -> step at which the polish first stood on it
    for i in range(1, _POLISH_STEPS + 1):
        fg = f(g)
        if fg == 0.0:
            break
        d = _rate_gap_deriv(g, mu, fit, gap)
        if d == 0.0:
            break
        step = fg / d
        nxt = g - step
        if not (lo * (1 - 1e-9) <= nxt <= hi * (1 + 1e-9)):
            break
        if abs(step) <= 1e-16 * g:
            g = nxt
            break
        g = nxt
        j = path.setdefault(g, i)
        if j < i:
            # a cycle of period i - j: the iterate after the last step
            cycle = list(path)[j:]
            return cycle[(_POLISH_STEPS - j) % (i - j)]
    return g


def thresholds(cfg: RateConfig, fit: SimilarityFit) -> RateThresholds:
    """Compute the SNR breakpoints: the closed-form edges and the rate crossing.

    g_max, the largest rate crossing, is the one breakpoint that takes an
    iterative solve.  It depends only on mu, the SNR gap (ber,
    use_capacity) and the fit, and the solve is memoized on exactly those,
    so configs that differ only in m_th or r_out solve it once per
    process.  The semantic outage edge is 0, ``g_sem`` or infinity as
    k r_out lies at most a1, inside (a1, a2) or at least a2
    (:func:`semantic_edges`).
    """
    g_min, edge = semantic_edges(cfg, fit)
    return RateThresholds(g_min=g_min,
                          g_bit=_bit_outage_edge(cfg),
                          sem_outage_edge=edge,
                          g_max=_solve_rate_crossing(cfg.mu, fit, gamma_gap(cfg)))
