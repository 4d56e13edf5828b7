import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sp

from semcell import (BitOutage, ExactCount, HybridOutage, RangeCount, RateConfig,
                     Scenario, SemOutage, SemUtilization, SimilarityFit, binom_range_prob,
                     estimate_many, gamma_gap, network_outage, NetOutageMode, outage_report,
                     sample_user, sem_util_prob, snr_cdf, snr_scale, thresholds,
                     user_outage_hybrid, user_stream)
from semcell import montecarlo
from semcell.montecarlo import BLOCK_SIZE
from semcell.presets import table1_config
from conftest import draw_scenario


class _DrawFailed(Exception):
    """Raised by a patched draw inside a Monte Carlo worker."""


def _per_worker_count(monkeypatch, counts, events, n, seed, scenarios):
    """estimate_many's results with SEMCELL_THREADS set to each of ``counts`` in turn."""
    runs = []
    for workers in counts:
        monkeypatch.setenv("SEMCELL_THREADS", str(workers))
        runs.append(estimate_many(events, n, seed, scenarios))
    return runs


class _StubStream:
    """Plays back prescribed uniform draws, in call order."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self, size, out=None):
        return np.full(size, self._draws.pop(0), dtype=float)


@pytest.fixture
def table1_scenario(table1_params, table1_fit, table1_cfg):
    return Scenario(params=table1_params, fit=table1_fit, cfg=table1_cfg)


class TestSampleUser:
    def test_cell_edge_draw(self, table1_params):
        # U1 = 1 puts the user on the cell edge; U2 fixes the fading draw
        u2 = 0.5
        stream = _StubStream(1.0, u2)
        [g] = sample_user(stream, table1_params, size=1)
        gain = -math.log1p(-u2)
        expected = snr_scale(table1_params) * gain * table1_params.cell_radius_m ** (-3.0)
        assert g == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("u2", [0.5, 0.0])
    def test_draw_at_the_origin_is_infinite(self, table1_params, u2):
        # U1 = 0 puts the user at the origin, also when the fading draw is 0
        assert sample_user(_StubStream(0.0, u2), table1_params, size=1)[0] == math.inf
        g = sample_user(_StubStream(0.0, u2), table1_params, size=(2, 3))
        assert np.all(g == math.inf)

    def test_mean_radial_distance(self, table1_params):
        stream = user_stream(99, 0)
        u1 = stream.random(1_000_000)
        r = table1_params.cell_radius_m * np.sqrt(u1)
        mean = float(np.mean(r))
        # E[r] = 2R/3, sd(r) = R sqrt(1/18)
        sigma_mean = table1_params.cell_radius_m * math.sqrt(1.0 / 18.0) / 1000.0
        assert abs(mean - 2.0 * table1_params.cell_radius_m / 3.0) <= 3.0 * sigma_mean

    def test_offset_draw_is_a_slice_of_the_sequential_draw(self, table1_params):
        full = sample_user(user_stream(3, 1), table1_params, size=(400, 3))
        # rows 52..69 of a 400-row run: U1 at 3 * 52 values in, U2 1200 values after U1
        out = np.empty((2, 17, 3))
        part = sample_user(user_stream(3, 1, offset=156), table1_params, size=(17, 3),
                           u2_offset=1200, out=out)
        assert part.base is out
        assert np.array_equal(part, full[52:69])
        single = sample_user(user_stream(3, 1), table1_params, size=1000)
        assert np.array_equal(
            sample_user(user_stream(3, 1, offset=8), table1_params, size=5, u2_offset=1000),
            single[8:13])

    def test_unaligned_offsets_draw_a_slice_of_the_sequential_draw(self, table1_params):
        full = sample_user(user_stream(3, 1), table1_params, size=(399, 3))
        # rows 7..12 of a 399-row run: U1 at 3 * 7 values in, U2 1197 values after U1
        part = sample_user(user_stream(3, 1, offset=21), table1_params, size=(6, 3),
                           u2_offset=1197)
        assert np.array_equal(part, full[7:13])
        single = sample_user(user_stream(3, 1), table1_params, size=999)
        assert np.array_equal(
            sample_user(user_stream(3, 1, offset=7), table1_params, size=5, u2_offset=999),
            single[7:12])

    def test_u2_offset_inside_the_u1_run_rejected(self, table1_params):
        with pytest.raises(ValueError):
            sample_user(user_stream(3, 1), table1_params, size=12, u2_offset=11)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            user_stream(3, 1, offset=-1)

    @pytest.mark.parametrize("x", [0, 5, 2**31 - 1, 2**32 - 1])
    def test_seed_and_block_keys_do_not_collide(self, x):
        # an entropy list [seed, block] would zero-pad: (x, 1) and (x + 2^32, 0)
        # would give the same stream
        def first(seed, block):
            return user_stream(seed, block).random()

        assert first(x, 1) != first(x + 2**32, 0)
        assert first(x, 0) != first(x + 1, 0)

    def test_empirical_cdf_ks(self, table1_params):
        # sup-norm distance between the empirical CDF of 10^6 draws and
        # the closed form stays below the 1% Kolmogorov-Smirnov critical
        # value 1.628 / sqrt(n)
        n = 1_000_000
        stream = user_stream(12345, 0)
        g = np.sort(sample_user(stream, table1_params, size=n))

        s = 2.0 / table1_params.pathloss_exp
        x = g * table1_params.cell_radius_m ** table1_params.pathloss_exp / snr_scale(table1_params)
        cdf = 1.0 - s * x ** (-s) * sp.gamma(s) * sp.gammainc(s, x)
        # the vectorized expression is the same function snr_cdf evaluates
        for y in np.geomspace(g[0], g[-1], 25):
            idx = np.searchsorted(g, y)
            if idx < n:
                assert snr_cdf(float(g[idx]), table1_params) == pytest.approx(
                    float(cdf[idx]), abs=1e-12)
        steps = np.arange(n, dtype=float)
        d_stat = max(float(np.max(cdf - steps / n)), float(np.max((steps + 1.0) / n - cdf)))
        assert d_stat <= 1.628 / math.sqrt(n)


class TestDeterminism:
    def test_bit_identical_across_workers(self, table1_scenario, monkeypatch):
        events = [HybridOutage(), ExactCount(30), RangeCount(3, 30)]
        n = 150_000
        runs = _per_worker_count(monkeypatch, (1, 4, 16), events, n, 777, [table1_scenario])
        for per_event in zip(*(run[0] for run in runs)):
            assert len({e.estimate for e in per_event}) == 1
            assert len({e.std_error for e in per_event}) == 1

    def test_single_matches_batch(self, table1_scenario, monkeypatch):
        n = 140_000
        for event in (BitOutage(), SemUtilization(), RangeCount(1, 30)):
            monkeypatch.setenv("SEMCELL_THREADS", "2")
            single = estimate_many([event], n, 31, [table1_scenario])[0][0]
            monkeypatch.setenv("SEMCELL_THREADS", "3")
            batch = estimate_many([event, HybridOutage()], n, 31, [table1_scenario])[0][0]
            assert single.estimate == batch.estimate

    def test_one_user_cells_are_shared(self, table1_scenario, monkeypatch):
        # at one user a count event and its per-user event count the same cells
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        params = replace(table1_scenario.params, num_users=1, cell_radius_m=1500.0)
        scenario = replace(table1_scenario, params=params)
        events = [RangeCount(1, 1), ExactCount(1), HybridOutage(),
                  RangeCount(1, 1, indicator=SemUtilization()), SemUtilization()]
        got = [e.estimate for e in estimate_many(events, 70_001, 5, [scenario])[0]]
        assert got[0] == got[1] == got[2]
        assert got[3] == got[4]

    def test_seed_changes_estimate(self, table1_scenario, monkeypatch):
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        a = estimate_many([HybridOutage()], 100_000, 1, [table1_scenario])[0][0]
        b = estimate_many([HybridOutage()], 100_000, 2, [table1_scenario])[0][0]
        assert a.estimate != b.estimate


class TestEventProbabilities:
    def test_zero_probability_event(self, table1_params, table1_fit, monkeypatch):
        # QoS threshold at the similarity floor sends the QoS cutoff to
        # zero, so with the rate threshold below the floor a pure
        # semantic user can essentially never be in outage
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.37 + 1e-9, r_out=0.04)
        scenario = Scenario(table1_params, table1_fit, cfg)
        monkeypatch.setenv("SEMCELL_THREADS", "4")
        est = estimate_many([SemOutage()], 1_000_000, 5, [scenario])[0][0]
        assert est.estimate == 0.0

    def test_hybrid_outage_against_closed_form(self, table1_scenario, monkeypatch):
        thr = thresholds(table1_scenario.cfg, table1_scenario.fit)
        analytic = user_outage_hybrid(thr, table1_scenario.params)
        monkeypatch.setenv("SEMCELL_THREADS", "4")
        est = estimate_many([HybridOutage()], 2_000_000, 2024, [table1_scenario])[0][0]
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error

    def test_count_range_against_binomial(self, table1_params, table1_fit, monkeypatch):
        # free-space 1 mW cell: the outage-count range probability follows
        # the binomial built on the per-user outage probability
        params = replace(table1_params, num_users=10, pathloss_exp=2.0,
                         tx_power_w=1e-3, cell_radius_m=800.0)
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)
        scenario = Scenario(params, table1_fit, cfg)
        thr = thresholds(cfg, table1_fit)
        pi_h = user_outage_hybrid(thr, params)
        analytic = binom_range_prob(pi_h, 10, 3, 10)
        monkeypatch.setenv("SEMCELL_THREADS", "4")
        est = estimate_many([RangeCount(3, 10)], 400_000, 99, [scenario])[0][0]
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error

    def test_all_outage_count_against_power(self, table1_params, table1_fit, monkeypatch):
        params = replace(table1_params, num_users=3, cell_radius_m=2500.0)
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04)
        scenario = Scenario(params, table1_fit, cfg)
        thr = thresholds(cfg, table1_fit)
        analytic = network_outage(user_outage_hybrid(thr, params), 3,
                                  NetOutageMode.ALL_IN_OUTAGE)
        monkeypatch.setenv("SEMCELL_THREADS", "4")
        est = estimate_many([ExactCount(3)], 400_000, 4242, [scenario])[0][0]
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error

    def test_utilization_count_event(self, table1_params, table1_fit, table1_cfg, monkeypatch):
        params = replace(table1_params, num_users=8, cell_radius_m=700.0)
        scenario = Scenario(params, table1_fit, table1_cfg)
        thr = thresholds(table1_cfg, table1_fit)
        pi_g = sem_util_prob(thr, params)
        analytic = binom_range_prob(pi_g, 8, 4, 8)
        monkeypatch.setenv("SEMCELL_THREADS", "4")
        est = estimate_many([RangeCount(4, 8, indicator=SemUtilization())], 300_000, 77,
                            [scenario])[0][0]
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error


class TestCoverageCalibration:
    def test_two_sigma_interval_coverage(self, table1_scenario, monkeypatch):
        # across 100 seeds the closed-form value should land inside
        # estimate +/- 2 stderr in at least 92 runs (~95.4% nominal)
        thr = thresholds(table1_scenario.cfg, table1_scenario.fit)
        truth = user_outage_hybrid(thr, table1_scenario.params)
        n = 40_000
        hits = 0
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        for seed in range(100):
            est = estimate_many([HybridOutage()], n, seed, [table1_scenario])[0][0]
            if abs(est.estimate - truth) <= 2.0 * est.std_error:
                hits += 1
        assert hits >= 92


class TestValidation:
    def test_bad_counts_rejected(self, table1_scenario):
        with pytest.raises(ValueError):
            estimate_many([ExactCount(31)], 10_000, 1, [table1_scenario])
        with pytest.raises(ValueError):
            estimate_many([RangeCount(5, 3)], 10_000, 1, [table1_scenario])
        with pytest.raises(ValueError):
            estimate_many([HybridOutage()], 0, 1, [table1_scenario])

    @pytest.mark.parametrize("event, message", [
        (RangeCount(1, 30, indicator=BitOutage), "indicator"),
        (ExactCount(2, indicator="typo"), "indicator"),
        (BitOutage, "unknown event"),
    ], ids=["indicator_class", "indicator_string", "event_class"])
    def test_non_events_rejected(self, table1_scenario, event, message, monkeypatch):
        # an event class in place of an instance, or a misspelt indicator
        monkeypatch.setenv("SEMCELL_THREADS", "1")
        with pytest.raises(TypeError, match=message):
            estimate_many([event], 5_000, 1, [table1_scenario])

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, table1_scenario, seed):
        with pytest.raises(ValueError, match="seed"):
            estimate_many([HybridOutage()], 1_000, seed, [table1_scenario])

    def test_workers_env(self, table1_scenario, monkeypatch):
        from semcell import resolve_workers

        monkeypatch.setenv("SEMCELL_THREADS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("SEMCELL_THREADS", "zebra")
        with pytest.raises(ValueError):
            resolve_workers()
        monkeypatch.delenv("SEMCELL_THREADS")
        assert resolve_workers() >= 1

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        from semcell import resolve_workers

        monkeypatch.delenv("SEMCELL_THREADS", raising=False)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers() == 1


class TestOracleAgreementRandomized:
    def test_user_events_across_scenarios(self, monkeypatch):
        monkeypatch.setenv("SEMCELL_THREADS", "4")
        rng = np.random.default_rng(71)
        n = 120_000
        for _ in range(3):
            params, fit, cfg = draw_scenario(rng, max_users=6)
            thr = thresholds(cfg, fit)
            report = outage_report(thr, params)
            scenario = Scenario(params, fit, cfg)
            events = [HybridOutage(), BitOutage(), SemOutage(), SemUtilization()]
            expected = [report.pi_h, report.pi_b, report.pi_s, report.pi_g]
            for est, value in zip(estimate_many(events, n, 555, [scenario])[0], expected):
                assert abs(est.estimate - value) <= max(3.0 * est.std_error, 1e-4)


# ---------------------------------------------------------------------------
# reference: one grid point at a time, one indicator at a time
# ---------------------------------------------------------------------------

def _reference_user_event_mask(event, g, scenario, gap):
    """Evaluate a per-user event directly from similarity and raw rates."""
    fit = scenario.fit
    cfg = scenario.cfg
    with np.errstate(divide="ignore", invalid="ignore"):
        z = fit.c1 * 10.0 * np.log10(g) + fit.c2
    z = np.where(np.isnan(z), -np.inf, z)
    m = fit.a1 + (fit.a2 - fit.a1) / (1.0 + np.exp(-np.clip(z, -745.0, 745.0)))
    rate_sem = m / fit.k
    with np.errstate(invalid="ignore"):
        rate_bit = np.log2(1.0 + g / gap) / cfg.mu
    if isinstance(event, BitOutage):
        return rate_bit <= cfg.r_out
    if isinstance(event, SemOutage):
        return (rate_sem <= cfg.r_out) | (m <= cfg.m_th)
    prefers_sem = (m >= cfg.m_th) & (rate_sem >= rate_bit)
    if isinstance(event, HybridOutage):
        return np.where(prefers_sem, rate_sem <= cfg.r_out, rate_bit <= cfg.r_out)
    if isinstance(event, SemUtilization):
        return prefers_sem & (rate_sem > cfg.r_out)
    raise TypeError(f"unknown per-user event {event!r}")


def _reference_count_matches(event, counts):
    if isinstance(event, ExactCount):
        return int(np.count_nonzero(counts == event.count))
    return int(np.count_nonzero((counts >= event.count_lo) & (counts <= event.count_hi)))


def _reference_hits(events, n, seed, scenario):
    """Hits of every event at one point: each block draws its own SNRs from
    the point's parameters, in one sequential draw of BLOCK_SIZE users for the
    per-user events and one of BLOCK_SIZE full cells for the count events,
    and each event re-evaluates the rate curves."""
    params = scenario.params
    gap = gamma_gap(scenario.cfg)
    hits = [0] * len(events)
    for block_index in range(-(-n // BLOCK_SIZE)):
        rows_used = min(BLOCK_SIZE, n - block_index * BLOCK_SIZE)
        g = sample_user(user_stream(seed, block_index), params, size=BLOCK_SIZE)
        for i, event in enumerate(events):
            if not isinstance(event, (ExactCount, RangeCount)):
                mask = _reference_user_event_mask(event, g, scenario, gap)
                hits[i] += int(np.count_nonzero(mask[:rows_used]))
        g = sample_user(user_stream(seed, block_index), params,
                        size=(BLOCK_SIZE, params.num_users))
        for i, event in enumerate(events):
            if isinstance(event, (ExactCount, RangeCount)):
                counts = _reference_user_event_mask(event.indicator, g, scenario, gap).sum(axis=1)
                hits[i] += _reference_count_matches(event, counts[:rows_used])
    return hits


def _sweep_events(num_users):
    return [HybridOutage(), BitOutage(), SemOutage(), ExactCount(num_users),
            RangeCount(1, num_users), RangeCount(min(3, num_users), num_users),
            SemUtilization(),
            RangeCount(min(5, num_users), min(10, num_users), indicator=SemUtilization())]


def _domain_scenario(case):
    """Case 0-11 of the documented domain: every rate class, with and without
    capacity-achieving bit rates, two draws of each."""
    rate_class = ("low", "mid", "high")[case % 3]
    params, fit, cfg = draw_scenario(np.random.default_rng(900 + case), max_users=8,
                                     rate_class=rate_class)
    cfg = replace(cfg, use_capacity=(case // 3) % 2 == 1)
    return Scenario(params, fit, cfg)


class TestSweep:
    @pytest.mark.parametrize("case, seed", [pytest.param(None, 7, id="7"),
                                            pytest.param(None, 2024, id="2024")]
                             + [pytest.param(c, 300 + c, id=f"domain{c}") for c in range(12)])
    def test_radius_sweep_matches_per_point_reference(self, table1_scenario, case, seed,
                                                      monkeypatch):
        # the Table-1 radius grid, or five radii around a domain draw's own:
        # every point past the first scales the first point's draws instead
        # of drawing its own
        if case is None:
            scenario, grid = table1_scenario, table1_config()["sweep"]["grid"]
        else:
            scenario = _domain_scenario(case)
            grid = scenario.params.cell_radius_m * np.geomspace(0.3, 3.0, 5)
        scenarios = [replace(scenario, params=replace(scenario.params, cell_radius_m=float(r)))
                     for r in grid]
        events = _sweep_events(scenario.params.num_users)
        n = 20_000
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        swept = estimate_many(events, n, seed, scenarios)
        for scenario, estimates in zip(scenarios, swept):
            hits = _reference_hits(events, n, seed, scenario)
            assert [e.estimate for e in estimates] == [h / n for h in hits]

    @pytest.mark.parametrize("seed", [7, 2024])
    def test_m_th_sweep_matches_per_point_reference(self, table1_scenario, seed, monkeypatch):
        scenarios = [replace(table1_scenario, cfg=replace(table1_scenario.cfg, m_th=m))
                     for m in np.linspace(0.4, 0.95, 6)]
        events = _sweep_events(30)
        n = BLOCK_SIZE + 3000
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        swept = estimate_many(events, n, seed, scenarios)
        for scenario, estimates in zip(scenarios, swept):
            hits = _reference_hits(events, n, seed, scenario)
            assert [e.estimate for e in estimates] == [h / n for h in hits]

    def test_draw_runs(self, table1_scenario):
        # Table-1's odds scale at SNR ratio r is e^-(2.525 log10 r - 0.7895), within
        # e^(+-672) up to r = 10^266; a subnormal ratio starts a run however small its log
        def at(tx_power_w):
            return replace(table1_scenario,
                           params=replace(table1_scenario.params, tx_power_w=tx_power_w))

        runs = montecarlo._draw_runs([at(1e-150), at(1e115), at(1e117), at(1e117), at(1e-200)])
        assert [[ratio for _, ratio, _ in run] for run in runs] == [
            [1.0, pytest.approx(1e265, rel=1e-12)], [1.0, 1.0], [1.0]]

    def test_point_beyond_the_shared_range_draws_its_own(self, table1_scenario, monkeypatch):
        # draws at 1e-290 times Table-1's SNR scale have similarity odds beyond the
        # float range, so the second point, at 1e290 times the first, does not scale
        # them: both points get exactly their one-point estimates
        params = table1_scenario.params
        scenarios = [replace(table1_scenario, params=replace(params, tx_power_w=1e-290)),
                     table1_scenario]
        events = _sweep_events(params.num_users)
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        swept = estimate_many(events, 5_001, 3, scenarios)
        assert swept == [estimate_many(events, 5_001, 3, [s])[0] for s in scenarios]

    def test_identical_for_any_worker_count(self, table1_params, table1_fit, table1_cfg,
                                            monkeypatch):
        params = replace(table1_params, num_users=6)
        scenarios = [Scenario(replace(params, cell_radius_m=r), table1_fit, table1_cfg)
                     for r in (300.0, 900.0, 2700.0)]
        events = _sweep_events(6)[:5] + [RangeCount(2, 4, indicator=SemUtilization())]
        n = 3 * BLOCK_SIZE + 100
        runs = _per_worker_count(monkeypatch, (1, 2, 3), events, n, 99, scenarios)
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("change", [
        lambda sc: replace(sc, params=replace(sc.params, num_users=29)),
        lambda sc: replace(sc, params=replace(sc.params, pathloss_exp=3.5)),
        lambda sc: replace(sc, fit=SimilarityFit(a1=0.37, a2=0.98, c1=0.3, c2=-0.7895, k=5)),
    ])
    def test_mixed_shared_parameters_rejected(self, table1_scenario, change):
        with pytest.raises(ValueError):
            estimate_many([HybridOutage()], 1_000, 1, [table1_scenario, change(table1_scenario)])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["c2_high", "c2_low"])
    def test_fit_beyond_the_odds_scale_range_rejected(self, table1_scenario, sign):
        # a run's first point has odds scale e^(-c2): at |c2| = _LOG_SCALE_LIMIT it gets
        # its per-point reference, and the next float beyond is refused, not clamped
        edge = sign * montecarlo._LOG_SCALE_LIMIT
        at, beyond = (replace(table1_scenario, fit=replace(table1_scenario.fit, c2=c2))
                      for c2 in (edge, math.nextafter(edge, sign * math.inf)))
        events = [HybridOutage(), SemOutage(), SemUtilization()]
        with np.errstate(over="ignore"):
            hits = _reference_hits(events, 1_000, 1, at)
        [estimates] = estimate_many(events, 1_000, 1, [at])
        assert [e.estimate for e in estimates] == [h / 1_000 for h in hits]
        with pytest.raises(ValueError, match=r"^similarity_fit\.c2: "):
            estimate_many(events, 1_000, 1, [beyond])

    def test_empty_inputs(self, table1_scenario):
        assert estimate_many([HybridOutage()], 1_000, 1, []) == []
        assert estimate_many([], 1_000, 1, [table1_scenario] * 2) == [[], []]


class TestRowTiles:
    """A row tile draws its rows at their offsets in the block's streams."""

    @pytest.mark.parametrize("num_users", [1, 7, 13])
    @pytest.mark.parametrize("n", [70_001, 131_075])
    def test_any_worker_count_matches_reference(self, table1_params, table1_fit, table1_cfg,
                                                monkeypatch, num_users, n):
        params = replace(table1_params, num_users=num_users)
        scenarios = [Scenario(replace(params, cell_radius_m=r), table1_fit, table1_cfg)
                     for r in (400.0, 1300.0)]
        events = [HybridOutage(), BitOutage(), SemOutage(), SemUtilization(),
                  ExactCount(num_users), RangeCount(1, num_users),
                  RangeCount(min(3, num_users), num_users),
                  RangeCount(0, min(2, num_users), indicator=SemUtilization())]
        runs = _per_worker_count(monkeypatch, (1, 2, 3), events, n, 41, scenarios)
        assert runs[0] == runs[1] == runs[2]
        for scenario, estimates in zip(scenarios, runs[0]):
            hits = _reference_hits(events, n, 41, scenario)
            assert [e.estimate for e in estimates] == [h / n for h in hits]

    @pytest.mark.parametrize("tile_values", [64, 1_001, 30_000])
    def test_tile_size_does_not_change_estimates(self, table1_params, table1_fit, table1_cfg,
                                                 monkeypatch, tile_values):
        params = replace(table1_params, num_users=13)
        scenarios = [Scenario(replace(params, cell_radius_m=r), table1_fit, table1_cfg)
                     for r in (300.0, 900.0)]
        events = _sweep_events(13)
        n = BLOCK_SIZE + 4_099
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        expected = estimate_many(events, n, 8, scenarios)
        monkeypatch.setattr(montecarlo, "_TILE_VALUES", tile_values)
        assert estimate_many(events, n, 8, scenarios) == expected

    @pytest.mark.parametrize("n", [5_000, BLOCK_SIZE + 3_000])
    def test_draws_only_the_rows_used(self, table1_scenario, monkeypatch, n):
        # a per-user sample is a cell of one user: its draws are shaped (rows, 1);
        # counted in this process, at one worker: the tile plan is that of any count
        drawn = {"per_user": 0, "full_cell": 0}
        sample = montecarlo.sample_user

        def counting(stream, params, size=None, **kwargs):
            rows, width = size
            drawn["per_user" if width == 1 else "full_cell"] += rows
            return sample(stream, params, size=size, **kwargs)

        monkeypatch.setattr(montecarlo, "sample_user", counting)
        monkeypatch.setenv("SEMCELL_THREADS", "1")
        estimate_many([HybridOutage(), RangeCount(1, 30)], n, 3, [table1_scenario])
        assert drawn == {"per_user": n, "full_cell": n}

    def test_many_workers_lose_no_tile(self, table1_params, table1_fit, table1_cfg, monkeypatch):
        # more workers requested than there are CPUs: the processes started
        # tally every tile exactly once between them
        scenario = Scenario(replace(table1_params, num_users=5), table1_fit, table1_cfg)
        events = [HybridOutage(), RangeCount(1, 5)]
        monkeypatch.setattr(montecarlo, "_TILE_VALUES", 256)
        expected, many = _per_worker_count(monkeypatch, (1, 8), events, 20_003, 12, [scenario])
        assert many == expected

    def test_shares_add_up_to_the_whole_tally(self, table1_params, table1_fit, table1_cfg,
                                              monkeypatch):
        # the shares of k workers, every k-th tile, tallied in this process:
        # even and uneven splits, and more workers than tiles
        params = replace(table1_params, num_users=4)
        points = [(Scenario(replace(params, cell_radius_m=r), table1_fit, table1_cfg),
                   (r / 500.0) ** -3.0, gamma_gap(table1_cfg)) for r in (500.0, 1500.0)]
        ranges = {1: {HybridOutage: [(0, 1, 1)]},
                  4: {HybridOutage: [(1, 2, 4)], SemUtilization: [(2, 0, 1)]}}
        monkeypatch.setattr(montecarlo, "_TILE_VALUES", 4_096)
        tiles = montecarlo._tiles(BLOCK_SIZE + 5_003, [1, 4])
        assert len(tiles) > 16
        whole = montecarlo._tally_tiles(tiles, 6, points, ranges)
        assert whole.sum() > 0
        for k in (1, 2, 3, 16, len(tiles) + 1):
            shares = [montecarlo._tally_tiles(tiles[w::k], 6, points, ranges) for w in range(k)]
            assert np.array_equal(sum(shares), whole)

    def test_worker_failure_reaches_the_caller(self, table1_scenario, monkeypatch):
        # forked workers inherit the patch; the pool is gone once the error is raised
        def failing(*args, **kwargs):
            raise _DrawFailed("draw failed")

        monkeypatch.setattr(montecarlo, "sample_user", failing)
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        with pytest.raises(_DrawFailed):
            estimate_many([HybridOutage()], 3 * BLOCK_SIZE, 1, [table1_scenario])
        assert multiprocessing.active_children() == []


_STEEP = {"c1": 5.0, "c2": -150.0}  # Table-1's logistic, steep and centred at 30 dB


class TestCurves:
    """Per-point event flags from an SNR power taken once per tile."""

    @pytest.mark.parametrize("case", range(12))
    def test_saturated_snrs(self, case):
        # zero, subnormal, tiny, huge and infinite SNRs at three SNR ratios: every
        # event reads as it does from the similarity and the rates at g0 * ratio
        scenario = _domain_scenario(case)
        fit, cfg = scenario.fit, scenario.cfg
        gap = gamma_gap(cfg)
        g0 = np.array([0.0, 5e-324, 1e-300, 1e300, np.inf])
        odds0 = montecarlo._odds(g0, fit)
        kinds = [SemUtilization, HybridOutage, BitOutage, SemOutage]
        cuts = montecarlo._cuts(fit, cfg)
        for ratio in (1.0, 0.37, 2.9e3):
            scale = math.exp(-10.0 * fit.c1 * math.log10(ratio) - fit.c2)
            work, flags = np.empty((2, g0.size)), np.empty((4, g0.size), dtype=bool)
            with np.errstate(over="ignore", invalid="ignore"):
                got = montecarlo._point_flags(kinds, g0, odds0, (ratio / gap, scale, cuts),
                                              work, flags)
                expected = [_reference_user_event_mask(kind(), g0 * ratio, scenario, gap)
                            for kind in kinds]
            for flag, want in zip(got, expected):
                assert flag.tolist() == want.tolist()
            assert got[2][0] and not got[2][-1]  # bit outage at zero SNR, none at infinity

    @pytest.mark.parametrize("fit_change, cfg_change", [
        pytest.param({}, {"m_th": 0.2}, id="m_th_below_a1"),
        pytest.param(_STEEP, {"m_th": 0.37}, id="m_th_at_a1"),
        pytest.param(_STEEP, {"m_th": 0.98}, id="m_th_at_a2"),
        pytest.param({}, {"m_th": 0.99}, id="m_th_above_a2"),
        pytest.param(_STEEP, {"r_out": 0.37 / 5}, id="k_r_out_at_a1"),
        pytest.param(_STEEP, {"r_out": 0.98 / 5}, id="k_r_out_at_a2"),
        pytest.param({"a1": 0.0}, {}, id="a1_zero"),
    ])
    def test_threshold_edges_match_per_point_reference(self, table1_scenario, fit_change,
                                                       cfg_change, monkeypatch):
        # thresholds at and beyond the similarity's asymptotes; the steep fit puts the
        # similarity at exactly a1 in floats on about a fifth of the cell and at a2 on an
        # eighth, so m and the semantic rate tie with their thresholds there
        scenario = replace(table1_scenario, fit=replace(table1_scenario.fit, **fit_change),
                           cfg=replace(table1_scenario.cfg, **cfg_change))
        events = _sweep_events(30)
        n = 20_000
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        [estimates] = estimate_many(events, n, 17, [scenario])
        hits = _reference_hits(events, n, 17, scenario)
        assert [e.estimate for e in estimates] == [h / n for h in hits]

    @pytest.mark.parametrize("first, second, outage", [
        (dict(tx_power_w=1e200), dict(tx_power_w=1e-200), 1.0),
        (dict(tx_power_w=1e-200), dict(tx_power_w=1e200), 0.0),
    ], ids=["ratio_zero", "ratio_inf"])
    def test_snr_scales_beyond_the_float_range(self, table1_scenario, first, second, outage,
                                               monkeypatch):
        # the SNR scales of the two points differ by a factor of 0 or inf
        # in floats: the second point sees SNRs of exactly 0 or inf
        params = table1_scenario.params
        scenarios = [replace(table1_scenario, params=replace(params, **first)),
                     replace(table1_scenario, params=replace(params, **second))]
        events = _sweep_events(params.num_users)
        n = 5_001
        monkeypatch.setenv("SEMCELL_THREADS", "2")
        swept = estimate_many(events, n, 3, scenarios)
        assert [e.estimate for e in swept[1][:3]] == [outage] * 3
        for point, estimates in zip(scenarios, swept):
            with np.errstate(over="ignore"):
                hits = _reference_hits(events, n, 3, point)
            assert [e.estimate for e in estimates] == [h / n for h in hits]
