import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from semcell import (HybridOutage, NetOutageMode, OutageReport, RateConfig, RateThresholds,
                     Scenario, SemOutage, SemUtilization, BitOutage, binom_range_prob, bit_rate,
                     estimate_many, network_outage, outage_report, sem_rate, sem_util_prob,
                     sem_util_prob_deriv, similarity, snr_cdf, thresholds, user_outage_bit,
                     user_outage_hybrid, user_outage_sem)
from semcell.cli import _point_state, parse_scenario_config
from semcell.presets import PRESETS, expand_preset, table1_config
from conftest import draw_scenario

def binom_pmf_oracle(p: float, n: int, m: int) -> float:
    return math.comb(n, m) * p**m * (1.0 - p) ** (n - m)


def _table_cdf_argument(thr):
    """The branch table's single CDF argument: g_bit when the semantic window
    is empty (pure bit transmission), else that of the lowest-numbered
    matching branch, None when no branch matches (the composite corner)."""
    if thr.g_max <= thr.g_min:
        return thr.g_bit
    hits = _matching_branches(thr)
    return hits[min(hits)] if hits else None


class TestHybridUserOutage:
    def test_table1_regime_and_value(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        assert thr.outage_cdf_argument() == thr.g_min
        assert user_outage_hybrid(thr, table1_params) == pytest.approx(
            snr_cdf(thr.g_min, table1_params), abs=1e-15)

    def test_saturated_rate_is_pure_bit(self, table1_params, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.5)
        thr = thresholds(cfg, table1_fit)
        assert thr.sem_outage_edge == math.inf and thr.g_max <= thr.g_bit
        assert thr.outage_cdf_argument() == thr.g_bit
        assert user_outage_hybrid(thr, table1_params) == pytest.approx(
            snr_cdf(thr.g_bit, table1_params), abs=1e-12)

    def test_mid_band_max_of_cutoffs(self, table1_params, table1_fit):
        # with the semantic-rate cutoff present, the outage boundary is
        # whichever of the QoS / semantic-rate cutoffs is higher
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)
        thr = thresholds(cfg, table1_fit)
        params = replace(table1_params, pathloss_exp=2.0, tx_power_w=1e-3,
                         cell_radius_m=1000.0)
        expected = max(snr_cdf(thr.g_min, params), snr_cdf(thr.g_sem, params))
        assert user_outage_hybrid(thr, params) == pytest.approx(expected, abs=1e-15)

    def test_composition_matches_branch_table(self):
        # the union-of-events composition must reproduce the single-CDF
        # branch table whenever a branch applies
        rng = np.random.default_rng(23)
        for _ in range(300):
            params, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            composed = user_outage_hybrid(thr, params)
            y_th = _table_cdf_argument(thr)
            assert y_th is not None
            assert composed == pytest.approx(snr_cdf(y_th, params), abs=1e-12)

    def test_branch_conditions_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            _, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            if thr.g_max <= thr.g_min:
                continue
            hits = _matching_branches(thr)
            assert hits
            # conditions overlap only at ties, where the branches agree
            assert set(hits.values()) == {thr.outage_cdf_argument()}

    def test_boundary_continuity_at_branch_tie(self, table1_params, table1_fit):
        # r_out at which the bit cutoff meets the QoS cutoff: adjacent
        # branches agree there, so tie resolution is observationally
        # irrelevant
        from semcell import gamma_gap, inv_similarity

        g_min = inv_similarity(0.75, table1_fit)
        gap = gamma_gap(RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04))
        r_tie = math.log2(1.0 + g_min / gap) / 40
        values = []
        for nudge in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=r_tie * nudge)
            thr = thresholds(cfg, table1_fit)
            values.append(user_outage_hybrid(thr, table1_params))
        assert values[1] == pytest.approx(values[0], rel=1e-6)
        assert values[1] == pytest.approx(values[2], rel=1e-6)


def _matching_branches(thr):
    """The rows of the paper's closed-form branch table whose conditions
    hold, numbered as in the paper, each mapped to its single CDF argument.

    The semantic outage edge tells the rate classes apart: 0 when
    k r_out <= a1, infinity when k r_out >= a2, g_sem between.
    """
    hits = {}
    edge = thr.sem_outage_edge
    g_bit, g_min, g_max = thr.g_bit, thr.g_min, thr.g_max
    if edge == 0.0:
        if g_bit <= g_min:
            hits[1] = g_bit
        if g_min <= g_bit <= g_max:
            hits[2] = g_min
    elif edge == math.inf:
        if g_max <= g_bit:
            hits[7] = g_bit
    else:
        g_sem = edge
        if g_sem <= g_bit <= g_min:
            hits[3] = g_bit
        if g_sem <= g_min <= g_bit <= g_max:
            hits[4] = g_min
        if g_min <= g_sem <= g_bit <= g_max:
            hits[5] = g_sem
        if g_max <= g_bit <= g_sem:
            hits[6] = g_bit
    return hits


def _member(g, intervals) -> bool:
    return any(lo < g < hi for lo, hi in intervals)


class TestIntervalEvents:
    def test_cdf_argument_matches_branch_table_on_draws(self):
        # and F(y_h) = min(pi_b, pi_s) exactly, ROADMAP item 16's identity
        rng = np.random.default_rng(71)
        for _ in range(2000):
            params, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            assert thr.outage_cdf_argument() == _table_cdf_argument(thr)
            assert snr_cdf(thr.outage_cdf_argument(), params) == min(
                user_outage_bit(thr, params), user_outage_sem(thr, params))

    def test_cdf_argument_matches_branch_table_on_preset_grids(self):
        points = 0
        for preset in PRESETS:
            for label, doc in expand_preset(table1_config(), preset):
                sc = parse_scenario_config(doc, label=label)
                shared = thresholds(sc.scenario.cfg, sc.scenario.fit)
                for value in sc.grid:
                    thr = _point_state(sc, value, shared)[2]
                    assert thr.outage_cdf_argument() == _table_cdf_argument(thr), (label, value)
                    points += 1
        assert points > 1000

    def test_composite_corner_split_has_no_branch_row(self, table1_params):
        # a bit cutoff above the crossing with no semantic-rate outage: the
        # two-part split is [0, g_min] plus [g_max, g_bit], with a gap, and
        # no row of the branch table matches
        thr = RateThresholds(g_min=1.0, g_max=2.0, g_bit=3.0, sem_outage_edge=0.0)
        assert thr.hybrid_outage_parts() == (((0.0, 1.0), (2.0, 3.0)), ())
        assert _table_cdf_argument(thr) is None
        cdf = [snr_cdf(g, table1_params) for g in (1.0, 2.0, 3.0)]
        assert user_outage_hybrid(thr, table1_params) == cdf[0] + cdf[2] - cdf[1]

    def test_membership_matches_raw_indicators(self):
        # between breakpoints every event is either wholly in or wholly out;
        # probe each gap (and beyond both ends) against the rate curves
        rng = np.random.default_rng(73)
        for _ in range(400):
            _, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            breaks = sorted({thr.g_min, thr.g_max, thr.g_bit}
                            | ({thr.g_sem} if thr.g_sem is not None else set()))
            probes = ([1e-3 * breaks[0]] + [math.sqrt(a * b) for a, b in zip(breaks, breaks[1:])]
                      + [1e3 * breaks[-1]])
            window = thr.utilization_window()
            events = {
                "bit": ((0.0, thr.g_bit),),
                "sem": thr.sem_outage(),
                "hybrid": ((0.0, thr.outage_cdf_argument()),),
                "util": (window,) if window is not None else (),
            }
            for g in probes:
                m, r_sem, r_bit = similarity(g, fit), sem_rate(g, cfg, fit), bit_rate(g, cfg)
                prefers_sem = m >= cfg.m_th and r_sem >= r_bit
                raw = {
                    "bit": r_bit <= cfg.r_out,
                    "sem": r_sem <= cfg.r_out or m <= cfg.m_th,
                    "hybrid": r_sem <= cfg.r_out if prefers_sem else r_bit <= cfg.r_out,
                    "util": prefers_sem and r_sem > cfg.r_out,
                }
                for name, intervals in events.items():
                    assert _member(g, intervals) == raw[name], (name, g, thr)


class TestPureModes:
    def test_bit_outage_is_cdf_at_bit_cutoff(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        assert user_outage_bit(thr, table1_params) == snr_cdf(thr.g_bit, table1_params)

    def test_bit_outage_vanishes_with_rate_threshold(self, table1_params, table1_fit):
        values = []
        for r_out in (0.04, 0.004, 0.0004):
            cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=r_out)
            values.append(user_outage_bit(thresholds(cfg, table1_fit), table1_params))
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-4

    def test_capacity_beats_uncoded(self, table1_params, table1_fit):
        uncoded = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04)
        capacity = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04, use_capacity=True)
        pi_uncoded = user_outage_bit(thresholds(uncoded, table1_fit), table1_params)
        pi_capacity = user_outage_bit(thresholds(capacity, table1_fit), table1_params)
        assert pi_capacity < pi_uncoded

    def test_sem_outage_saturated_is_one(self, table1_params, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.2)
        thr = thresholds(cfg, table1_fit)
        assert user_outage_sem(thr, table1_params) == 1.0

    def test_sem_outage_table1_is_qos_bound(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        assert user_outage_sem(thr, table1_params) == snr_cdf(thr.g_min, table1_params)

    def test_sem_outage_grows_to_one_with_qos(self, table1_params, table1_fit):
        values = []
        for m_th in (0.75, 0.9, 0.975, 0.98 - 1e-9):
            cfg = RateConfig(mu=40, ber=1e-3, m_th=m_th, r_out=0.04)
            values.append(user_outage_sem(thresholds(cfg, table1_fit), table1_params))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999


class TestHybridDominance:
    def test_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            params, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            report = outage_report(thr, params)
            assert report.pi_h <= report.pi_b + 1e-12
            assert report.pi_h <= report.pi_s + 1e-12

    def test_extends_to_network_modes(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        report = outage_report(thr, table1_params)
        for mode in NetOutageMode:
            net_h = network_outage(report.pi_h, 30, mode)
            assert net_h <= network_outage(report.pi_b, 30, mode) + 1e-12
            assert net_h <= network_outage(report.pi_s, 30, mode) + 1e-12


class TestNetworkOutage:
    def test_degenerate_probabilities(self):
        for mode in NetOutageMode:
            assert network_outage(0.0, 30, mode) == 0.0
            assert network_outage(1.0, 30, mode) == 1.0

    def test_single_user(self):
        for mode in NetOutageMode:
            assert network_outage(0.37, 1, mode) == pytest.approx(0.37, rel=1e-15)

    def test_at_least_one_value(self):
        assert network_outage(0.1, 30, NetOutageMode.AT_LEAST_ONE) == pytest.approx(
            0.9576088417247838, rel=1e-13)

    def test_all_value(self):
        assert network_outage(0.1, 30, NetOutageMode.ALL_IN_OUTAGE) == pytest.approx(
            1e-30, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            network_outage(-0.1, 5, NetOutageMode.AT_LEAST_ONE)
        with pytest.raises(ValueError):
            network_outage(0.5, 0, NetOutageMode.AT_LEAST_ONE)
        with pytest.raises(ValueError, match="mode"):
            network_outage(0.5, 5, "all_in_outage")  # the mode's value, not the mode


class TestBinomRangeProb:
    def test_full_support(self):
        for p in (0.0, 0.2, 0.77, 1.0):
            assert binom_range_prob(p, 12, 0, 12) == pytest.approx(1.0, abs=1e-13)

    def test_symmetric_point(self):
        assert binom_range_prob(0.5, 4, 2, 2) == pytest.approx(0.375, abs=1e-14)

    def test_matches_beta_tail(self):
        # I_p(3, 28) = P[Binomial(30, p) >= 3], summed exactly in integers
        num, den = (0.3).as_integer_ratio()
        exact = Fraction(sum(math.comb(30, j) * num**j * (den - num) ** (30 - j)
                             for j in range(3, 31)), den**30)
        assert binom_range_prob(0.3, 30, 3, 30) == pytest.approx(float(exact), abs=1e-13)

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 61))
            p = float(rng.uniform(0.001, 0.999))
            total = sum(binom_range_prob(p, n, m, m) for m in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            lo = int(rng.integers(0, n + 1))
            hi = int(rng.integers(lo, n + 1))
            p = float(rng.uniform(0.001, 0.999))
            oracle = sum(binom_pmf_oracle(p, n, m) for m in range(lo, hi + 1))
            assert binom_range_prob(p, n, lo, hi) == pytest.approx(oracle, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binom_range_prob(0.5, 10, 5, 3)
        with pytest.raises(ValueError):
            binom_range_prob(1.5, 10, 0, 3)


class TestSemUtilization:
    def test_saturated_is_zero(self, table1_params, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.2)
        thr = thresholds(cfg, table1_fit)
        assert sem_util_prob(thr, table1_params) == 0.0
        assert thr.utilization_window() is None

    def test_tiny_cell_limit(self, table1_cfg, table1_fit, table1_params):
        thr = thresholds(table1_cfg, table1_fit)
        tiny = replace(table1_params, cell_radius_m=1e-3)
        assert sem_util_prob(thr, tiny) == pytest.approx(0.0, abs=1e-9)

    def test_window_difference_of_cdfs(self, table1_cfg, table1_fit, table1_params):
        thr = thresholds(table1_cfg, table1_fit)
        value = sem_util_prob(thr, table1_params)
        expected = snr_cdf(thr.g_max, table1_params) - snr_cdf(thr.g_min, table1_params)
        assert value == pytest.approx(expected, abs=1e-13)

    def test_derivative_zero_when_saturated(self, table1_params, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.2)
        thr = thresholds(cfg, table1_fit)
        assert sem_util_prob_deriv(thr, table1_params) == 0.0

    def test_derivative_positive_at_tiny_radius_under_urban_loss(self, table1_params,
                                                                 table1_cfg, table1_fit):
        # at a = 4 and R = 1e-4 r_char both window edges sit near x = 1e-16
        # on the Kummer axis: the bracket h(x_hi) - h(x_lo) must follow its
        # small-x series sum_{n>=1} (-1)^(n+1) x^n / ((s+n) (n-1)!) instead
        # of cancelling to zero
        from semcell import snr_scale

        thr = thresholds(table1_cfg, table1_fit)
        g_lo, g_hi = thr.utilization_window()
        params = replace(table1_params, pathloss_exp=4.0)
        a, s = 4.0, 0.5
        r_char = (snr_scale(params) / g_hi) ** (1.0 / a)
        radius = 1e-4 * r_char
        scale = radius ** a / snr_scale(params)
        x_lo, x_hi = g_lo * scale, g_hi * scale
        series = (x_hi - x_lo) / (s + 1.0) - (x_hi**2 - x_lo**2) / (s + 2.0)
        expected = 2.0 / radius * series
        analytic = sem_util_prob_deriv(thr, replace(params, cell_radius_m=radius))
        assert analytic > 0.0
        assert analytic == pytest.approx(expected, rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 60:
            params, fit, cfg = draw_scenario(rng)
            thr = thresholds(cfg, fit)
            if thr.utilization_window() is None:
                continue
            radius = params.cell_radius_m
            h = 1e-4 * radius
            up = sem_util_prob(thr, replace(params, cell_radius_m=radius + h))
            down = sem_util_prob(thr, replace(params, cell_radius_m=radius - h))
            fd = (up - down) / (2.0 * h)
            analytic = sem_util_prob_deriv(thr, params)
            scale = max(abs(fd), 1e-3 / radius)
            assert analytic == pytest.approx(fd, abs=1e-5 * scale)
            checked += 1

    def test_derivative_root_is_local_max(self, table1_cfg, table1_fit, table1_params):
        from semcell import optimal_sem_util_radius

        thr = thresholds(table1_cfg, table1_fit)
        design = optimal_sem_util_radius(30, 5, 10, thr, table1_params)
        peak = next(s for s in design.solutions if s.equation == "stationary")
        radius = peak.radius
        h = 1e-3 * radius
        center = sem_util_prob(thr, replace(table1_params, cell_radius_m=radius))
        up = sem_util_prob(thr, replace(table1_params, cell_radius_m=radius + h))
        down = sem_util_prob(thr, replace(table1_params, cell_radius_m=radius - h))
        second = (up - 2.0 * center + down) / h**2
        assert second < 0.0
        assert center >= max(up, down)


class TestMonteCarloAgreement:
    def test_closed_forms_within_three_sigma(self):
        rng = np.random.default_rng(47)
        n = 150_000
        for _ in range(4):
            params, fit, cfg = draw_scenario(rng, max_users=5)
            params = _radius_for_moderate_outage(params, fit, cfg)
            thr = thresholds(cfg, fit)
            report = outage_report(thr, params)
            scenario = Scenario(params, fit, cfg)
            events = [HybridOutage(), BitOutage(), SemOutage(), SemUtilization()]
            analytic = [report.pi_h, report.pi_b, report.pi_s, report.pi_g]
            for est, value in zip(estimate_many(events, n, 1234, [scenario])[0], analytic):
                tol = 3.0 * est.std_error
                assert abs(est.estimate - value) <= tol, (est, value)


def _radius_for_moderate_outage(params, fit, cfg):
    """Rescale the cell so the hybrid outage probability is mid-range."""
    from semcell.design import _kummer_level_root

    thr = thresholds(cfg, fit)
    y_th = thr.outage_cdf_argument()
    from semcell import snr_scale

    x = _kummer_level_root(2.0 / params.pathloss_exp, 0.35)[0]
    radius = (x * snr_scale(params) / y_th) ** (1.0 / params.pathloss_exp)
    return replace(params, cell_radius_m=radius)


def test_readme_library_example_runs():
    # the README's Library block runs as printed, so renaming an export or a
    # method it calls fails here instead of leaving the example stale
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    report, params = namespace["report"], namespace["params"]
    assert isinstance(report, OutageReport)
    assert snr_cdf(namespace["y_h"], params) == min(report.pi_b, report.pi_s)
