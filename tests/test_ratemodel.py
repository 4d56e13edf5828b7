import math
from dataclasses import replace

import numpy as np
import pytest

from semcell import (RateConfig, SimilarityFit, SolverError, bit_rate, gamma_gap,
                     inv_similarity, sem_rate, similarity, thresholds)
from semcell.ratemodel import _geomspace_grid, _solve_rate_crossing
from conftest import draw_scenario

# the first fit conftest._single_rate_crossing redraws at rng seed 0: the
# rate curves cross near g = 0.237, 1.054 and 9.652, and the bit rate
# wins on about (0.806, 1.053) inside the window (0.8051, 9.6530)
MULTI_CROSSING_CFG = RateConfig(mu=20, ber=0.005774492237192097, m_th=0.1927671979065681,
                                r_out=0.007859145290653742, use_capacity=True)
MULTI_CROSSING_FIT = SimilarityFit(a1=0.061746575342689174, a2=0.8905643024285452,
                                   c1=0.43829617225885853, c2=-1.2598412067528215, k=5)


def reference_rate_crossing(mu: int, fit: SimilarityFit, gap: float) -> tuple[float, bool]:
    """The plain form of the g_max solve, the bits the trimmed one must
    return: 121-point np.geomspace scans, bisection, and a Newton polish
    that runs up to 40 steps whatever its iterates do.  Returns g_max and
    whether the polish ran all 40 steps."""
    g_hi = gap * (2.0 ** (mu * fit.a2 / fit.k) - 1.0)
    slope, a1, span, c2, k = fit.c1 * 10.0, fit.a1, fit.a2 - fit.a1, fit.c2, fit.k
    log10, log2, exp = math.log10, math.log2, math.exp

    def f(g: float) -> float:
        z = min(745.0, max(-745.0, slope * log10(g) + c2))
        return (a1 + span / (1.0 + exp(-z))) / k - log2(1.0 + g / gap) / mu

    def deriv(g: float) -> float:
        z = fit.c1 * 10.0 * math.log10(g) + fit.c2
        z = min(700.0, max(-700.0, z))
        sig = 1.0 / (1.0 + math.exp(-z))
        dm = (fit.a2 - fit.a1) * sig * (1.0 - sig) * fit.c1 * 10.0 / (g * math.log(10.0))
        return dm / fit.k - 1.0 / (mu * math.log(2.0) * (gap + g))

    hi, f_hi = g_hi, f(g_hi)
    if f_hi >= 0.0:
        assert f_hi <= 1e-13
        return g_hi, False
    lo = None
    upper = hi
    for _ in range(5):
        grid = np.geomspace(upper, upper * 1e-6, 121).tolist()
        for g in grid[1:]:
            if f(g) > 0.0:
                lo = g
                break
            upper = g
        if lo is not None:
            break
    assert lo is not None
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
    for _ in range(40):
        fg = f(g)
        if fg == 0.0:
            break
        d = deriv(g)
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
    else:
        return g, True
    return g, False


class TestSimilarity:
    def test_asymptotes(self, table1_fit):
        assert similarity(1e-30, table1_fit) == pytest.approx(table1_fit.a1, abs=1e-9)
        assert similarity(1e30, table1_fit) == pytest.approx(table1_fit.a2, abs=1e-9)

    def test_midpoint(self, table1_fit):
        # exponent vanishes at g = 10^(0.7895 / 2.525), leaving (a1 + a2) / 2
        g_mid = 10.0 ** (0.7895 / 2.525)
        assert similarity(g_mid, table1_fit) == pytest.approx(0.675, abs=1e-12)

    def test_inverse_round_trip_value(self, table1_fit):
        # 0.75 maps to ~3.2473 (about 5.12 dB); frozen via the inverse
        g = inv_similarity(0.75, table1_fit)
        assert g == pytest.approx(3.24729363966538, rel=1e-12)
        assert g == pytest.approx(3.247, abs=1e-3)
        assert similarity(3.2474, table1_fit) == pytest.approx(0.75, abs=1e-5)

    def test_vectorized(self, table1_fit):
        grid = np.geomspace(1e-3, 1e3, 50)
        values = similarity(grid, table1_fit)
        assert values.shape == grid.shape
        assert np.all(np.diff(values) > 0)

    def test_domain(self, table1_fit):
        with pytest.raises(ValueError):
            similarity(0.0, table1_fit)
        with pytest.raises(ValueError):
            similarity(-1.0, table1_fit)


class TestInvSimilarity:
    def test_midpoint_closed_form(self, table1_fit):
        m = 0.5 * (table1_fit.a1 + table1_fit.a2)
        assert inv_similarity(m, table1_fit) == pytest.approx(
            10.0 ** (-table1_fit.c2 / (10.0 * table1_fit.c1)), rel=1e-13)

    def test_semantic_rate_threshold_value(self, table1_fit):
        # k r_out = 0.6 for r_out = 0.12, k = 5
        assert inv_similarity(0.60, table1_fit) == pytest.approx(1.2996456955970945, rel=1e-12)
        assert inv_similarity(0.60, table1_fit) == pytest.approx(1.300, abs=1e-3)

    def test_monotone_and_identity(self, table1_fit):
        ms = np.linspace(0.372, 0.978, 60)
        gs = [inv_similarity(float(m), table1_fit) for m in ms]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        for m, g in zip(ms, gs):
            assert similarity(g, table1_fit) == pytest.approx(float(m), abs=1e-10)

    def test_domain(self, table1_fit):
        for bad in (table1_fit.a1, table1_fit.a2, 0.0, 1.0):
            with pytest.raises(ValueError):
                inv_similarity(bad, table1_fit)


class TestGammaGap:
    def test_table1_ber(self):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04)
        assert gamma_gap(cfg) == pytest.approx(-math.log(0.005) / 1.5, rel=1e-14)
        assert gamma_gap(cfg) == pytest.approx(3.5322, abs=1e-4)

    def test_capacity_override(self):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04, use_capacity=True)
        assert gamma_gap(cfg) == 1.0

    def test_unit_boundary(self):
        cfg = RateConfig(mu=40, ber=math.exp(-1.5) / 5.0, m_th=0.75, r_out=0.04)
        assert gamma_gap(cfg) == 1.0

    def test_clamped_below_one(self):
        cfg = RateConfig(mu=40, ber=0.15, m_th=0.75, r_out=0.04)
        assert gamma_gap(cfg) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            RateConfig(mu=40, ber=0.2, m_th=0.75, r_out=0.04)
        with pytest.raises(ValueError):
            RateConfig(mu=40, ber=0.0, m_th=0.75, r_out=0.04)


_CFG = {"mu": 40, "ber": 1e-3, "m_th": 0.75, "r_out": 0.04}


@pytest.mark.parametrize("call, match", [
    (lambda fit: replace(fit, a1=fit.a2, a2=fit.a1), "asymptotes"),
    (lambda fit: replace(fit, c1=0.0), "slope c1"),
    (lambda fit: replace(fit, c2=math.nan), "offset c2"),
    (lambda fit: replace(fit, k=0), "symbols per word k"),
    (lambda fit: RateConfig(**{**_CFG, "mu": 0}), "bit symbols per word mu"),
    (lambda fit: RateConfig(**{**_CFG, "m_th": 1.0}), "similarity threshold"),
    (lambda fit: RateConfig(**{**_CFG, "r_out": 0.0}), "outage rate threshold"),
    (lambda fit: bit_rate(-1.0, RateConfig(**_CFG)), "nonnegative SNR"),
], ids=["fit-asymptotes", "fit-slope", "fit-offset", "fit-k", "cfg-mu", "cfg-m_th",
        "cfg-r_out", "bit-rate-negative-snr"])
def test_out_of_range_values_raise(table1_fit, call, match):
    with pytest.raises(ValueError, match=match):
        call(table1_fit)


class TestRates:
    def test_bit_rate_anchors(self, table1_cfg):
        gap = gamma_gap(table1_cfg)
        assert bit_rate(0.0, table1_cfg) == 0.0
        assert bit_rate(gap, table1_cfg) == pytest.approx(1.0 / table1_cfg.mu, rel=1e-14)
        # rate 0.04 is reached at the bit outage threshold SNR
        assert bit_rate(7.175, table1_cfg) == pytest.approx(0.04, abs=2e-6)

    def test_bit_rate_unbounded_increasing(self, table1_cfg):
        grid = np.geomspace(1e-3, 1e9, 60)
        values = bit_rate(grid, table1_cfg)
        assert np.all(np.diff(values) > 0)
        assert values[-1] > 10.0 / table1_cfg.mu

    def test_sem_rate_anchors(self, table1_cfg, table1_fit):
        assert sem_rate(1e30, table1_cfg, table1_fit) == pytest.approx(0.196, abs=1e-9)
        g_min = inv_similarity(0.75, table1_fit)
        assert sem_rate(g_min, table1_cfg, table1_fit) == pytest.approx(0.15, rel=1e-12)
        assert sem_rate(3.2474, table1_cfg, table1_fit) == pytest.approx(0.15, abs=1e-5)


class TestThresholds:
    def test_table1_values(self, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        assert thr.g_min == pytest.approx(3.247, abs=1e-3)
        assert thr.g_bit == pytest.approx(7.175, abs=1e-2)
        assert thr.g_sem is None  # k r_out = 0.2 below the 0.37 floor
        assert thr.g_max == pytest.approx(801.86, abs=0.5)
        assert 10 * math.log10(thr.g_max) == pytest.approx(29.0, abs=0.1)
        # the semantic rate never misses r_out: the QoS cutoff bounds the outage
        assert thr.sem_outage_edge == 0.0
        assert thr.outage_cdf_argument() == thr.g_min

    def test_crossing_residual(self, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        gap = abs(sem_rate(thr.g_max, table1_cfg, table1_fit)
                  - bit_rate(thr.g_max, table1_cfg))
        assert gap <= 1e-12

    def test_bit_threshold_capacity_form(self, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04, use_capacity=True)
        thr = thresholds(cfg, table1_fit)
        assert thr.g_bit == 2.0 ** (40 * 0.04) - 1.0

    def test_bit_threshold_carries_gap(self, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        assert thr.g_bit == pytest.approx(
            gamma_gap(table1_cfg) * (2.0 ** (40 * 0.04) - 1.0), rel=1e-14)

    def test_crossing_brackets(self, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        low, high = thr.g_max / 10.0, thr.g_max * 10.0
        assert sem_rate(low, table1_cfg, table1_fit) > bit_rate(low, table1_cfg)
        assert sem_rate(high, table1_cfg, table1_fit) < bit_rate(high, table1_cfg)

    def test_g_sem_present_in_mid_band(self, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)
        thr = thresholds(cfg, table1_fit)
        assert thr.g_sem == pytest.approx(1.2996456955970945, rel=1e-12)
        assert thr.g_sem < thr.g_min <= thr.g_bit <= thr.g_max
        assert thr.outage_cdf_argument() == thr.g_min

    def test_saturated_band(self, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.2)
        thr = thresholds(cfg, table1_fit)
        assert thr.g_sem is None
        assert thr.sem_outage_edge == math.inf
        assert thr.outage_cdf_argument() == thr.g_bit

    def test_sem_rate_bound_band(self, table1_fit):
        # k r_out above m_th puts the semantic-rate cutoff above the QoS one
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.16)
        thr = thresholds(cfg, table1_fit)
        assert thr.g_sem is not None and thr.g_sem > thr.g_min
        assert thr.outage_cdf_argument() == thr.g_sem

    def test_regime_classification_randomized(self):
        rng = np.random.default_rng(5)
        qos_bound_low_rate = bit_bound_saturated = 0
        for _ in range(300):
            _, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            # the hybrid outage event is always one interval [0, y_th]
            y_th = thr.outage_cdf_argument()
            assert y_th is not None and y_th > 0.0
            qos_bound_low_rate += thr.sem_outage_edge == 0.0 and y_th == thr.g_min
            bit_bound_saturated += thr.sem_outage_edge == math.inf and y_th == thr.g_bit
        assert qos_bound_low_rate and bit_bound_saturated

    def test_sem_outage_edge_at_the_fit_asymptotes(self):
        # k r_out landing exactly on a1 or a2 (binary-exact values): the
        # semantic rate then never, or always, misses r_out
        fit = SimilarityFit(a1=0.25, a2=0.5, c1=0.2525, c2=-0.7895, k=4)
        for r_out, sim_out, edge in ((0.0625, fit.a1, 0.0), (0.125, fit.a2, math.inf)):
            cfg = RateConfig(mu=40, ber=1e-3, m_th=0.375, r_out=r_out)
            assert fit.k * r_out == sim_out
            thr = thresholds(cfg, fit)
            assert thr.sem_outage_edge == edge
            assert thr.g_sem is None

    def test_events_are_their_breakpoint_expressions(self):
        # the semantic outage set and the utilization window, float for float
        rng = np.random.default_rng(11)
        empty = 0
        for _ in range(300):
            _, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            lo = max(thr.g_min, thr.sem_outage_edge)
            assert thr.sem_outage() == ((0.0, lo),)
            assert thr.utilization_window() == ((lo, thr.g_max) if lo < thr.g_max else None)
            empty += thr.utilization_window() is None
        assert 0 < empty < 300

    def test_m_th_outside_fit_rejected(self, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.2, r_out=0.04)
        with pytest.raises(ValueError):
            thresholds(cfg, table1_fit)


class TestRateCrossingMemo:
    def test_memo_returns_the_fresh_solve(self, table1_fit):
        rng = np.random.default_rng(131)
        keys = [(40, table1_fit, gamma_gap(RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04,
                                                      use_capacity=capacity)))
                for capacity in (False, True)]
        for _ in range(150):
            _, fit, cfg = draw_scenario(rng)
            keys.append((cfg.mu, fit, gamma_gap(cfg)))
        for key in keys:
            fresh = _solve_rate_crossing.__wrapped__(*key)
            assert _solve_rate_crossing(*key) == fresh
            assert _solve_rate_crossing(*key) == fresh
        assert _solve_rate_crossing(*keys[0]) == 801.8648348545444
        assert _solve_rate_crossing(*keys[1]) == 223.6714648798875

    def test_bit_identical_to_the_reference_solve(self, table1_fit):
        # the pinned CSVs carry g_max's bits, so the trimmed solve must return
        # the very float the reference does; about a fifth of the fits cycle
        # in the polish until its 40th step, which the cycle rule must reproduce
        rng = np.random.default_rng(43)
        keys = [(40, table1_fit, gamma_gap(RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04,
                                                      use_capacity=capacity)))
                for capacity in (False, True)]
        keys.append((MULTI_CROSSING_CFG.mu, MULTI_CROSSING_FIT, gamma_gap(MULTI_CROSSING_CFG)))
        for _ in range(600):
            _, fit, cfg = draw_scenario(rng)
            keys.append((cfg.mu, fit, gamma_gap(cfg)))
        full_polish = 0
        for key in keys:
            expected, ran_all_steps = reference_rate_crossing(*key)
            assert repr(_solve_rate_crossing.__wrapped__(*key)) == repr(expected), key
            full_polish += ran_all_steps
        assert full_polish >= 50

    def test_scan_grid_is_numpys_geomspace(self):
        rng = np.random.default_rng(47)
        for upper in map(float, 10.0 ** rng.uniform(-3.0, 30.0, 10_000)):
            assert _geomspace_grid(upper, upper * 1e-6) == np.geomspace(upper, upper * 1e-6, 121).tolist(), upper

    def test_failed_solve_raises_again(self):
        # 2^(mu a2 / k) overflows the bracket; lru_cache stores no exception
        fit = SimilarityFit(a1=0.37, a2=0.98, c1=0.2525, c2=-0.7895, k=1)
        cfg = RateConfig(mu=5000, ber=1e-3, m_th=0.75, r_out=0.04)
        misses = _solve_rate_crossing.cache_info().misses
        for _ in range(2):
            with pytest.raises(SolverError, match="overflowed"):
                thresholds(cfg, fit)
        assert _solve_rate_crossing.cache_info().misses == misses + 2


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: thresholds() keeps only the largest rate "
                          "crossing, so the utilization window spans a second one")
def test_utilization_window_on_a_multi_crossing_fit():
    cfg, fit = MULTI_CROSSING_CFG, MULTI_CROSSING_FIT
    lo, hi = thresholds(cfg, fit).utilization_window()
    grid = np.geomspace(lo, hi, 2001)[1:-1]
    assert np.all(sem_rate(grid, cfg, fit) >= bit_rate(grid, cfg))
