"""What a sweep computes once must equal what each point would compute alone.

A sweep along m_th or r_out solves the rate crossing g_max once (the
solve is memoized on mu, the SNR gap and the fit) and rebuilds only the
closed-form edges per point; inside a kernel scope one outage report
evaluates the Kummer kernel once per distinct breakpoint.  Both must
leave every number bit for bit as a fresh per-point evaluation gives it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import semcell.ratemodel
import semcell.specfun
from conftest import draw_scenario
from semcell import (NetOutageMode, Scenario, binom_range_prob, network_outage, outage_report,
                     sem_util_prob, thresholds, user_outage_bit, user_outage_hybrid,
                     user_outage_sem)
from semcell.cli import ScenarioConfig, evaluate_sweep, parse_scenario_config, run_scenario
from semcell.presets import expand_preset, table1_config
from semcell.specfun import kernel_scope


def _shifted_configs(cfg, fit, rng, count=4):
    """Copies of cfg with m_th inside the fit and r_out in every rate class."""
    span = fit.a2 - fit.a1
    for _ in range(count):
        m_th = float(rng.uniform(fit.a1 + 0.01 * span, fit.a2 - 0.01 * span))
        k_r_out = float(rng.uniform(0.2 * fit.a1, 1.5 * fit.a2))
        yield replace(cfg, m_th=m_th, r_out=k_r_out / fit.k)


def _sweep_config(params, fit, cfg, axis, grid) -> ScenarioConfig:
    num_users = params.num_users
    return ScenarioConfig(scenario=Scenario(params=params, fit=fit, cfg=cfg),
                          sweep_axis=axis, grid=tuple(grid),
                          outage_lo=1, outage_hi=num_users, util_lo=1,
                          util_hi=max(1, num_users // 2), mc_samples=0, mc_seed=0,
                          label="sweep")


def _fresh_row(sc: ScenarioConfig, value: float) -> dict[str, float]:
    """One row from a fresh thresholds() and the standalone closed forms."""
    params, fit = sc.scenario.params, sc.scenario.fit
    cfg = replace(sc.scenario.cfg, **{sc.sweep_axis: value})
    thr = thresholds(cfg, fit)
    pi_h = user_outage_hybrid(thr, params)
    pi_g = sem_util_prob(thr, params)
    num_users = params.num_users
    return {
        "axis_value": value,
        "pi_h": pi_h,
        "pi_b": user_outage_bit(thr, params),
        "pi_s": user_outage_sem(thr, params),
        "net_all": network_outage(pi_h, num_users, NetOutageMode.ALL_IN_OUTAGE),
        "net_any": network_outage(pi_h, num_users, NetOutageMode.AT_LEAST_ONE),
        "s_range": binom_range_prob(pi_h, num_users, sc.outage_lo, sc.outage_hi),
        "pi_g": pi_g,
        "util_range": binom_range_prob(pi_g, num_users, sc.util_lo, sc.util_hi),
    }


def test_rate_crossing_ignores_m_th_and_r_out():
    rng = np.random.default_rng(101)
    for _ in range(150):
        _, fit, cfg = draw_scenario(rng)
        thr = thresholds(cfg, fit)
        for shifted in _shifted_configs(cfg, fit, rng):
            assert thresholds(shifted, fit).g_max == thr.g_max


@pytest.mark.parametrize("axis", ["m_th", "r_out"])
def test_threshold_axis_rows_equal_fresh_points(axis):
    rng = np.random.default_rng(103 if axis == "m_th" else 107)
    for _ in range(25):
        params, fit, cfg = draw_scenario(rng)
        span = fit.a2 - fit.a1
        if axis == "m_th":
            grid = np.linspace(fit.a1 + 0.02 * span, fit.a2 - 0.02 * span, 12)
        else:
            grid = np.linspace(0.2 * fit.a1, 1.5 * fit.a2, 12) / fit.k
        sc = _sweep_config(params, fit, cfg, axis, map(float, grid))
        rows = evaluate_sweep(sc)
        assert rows == [_fresh_row(sc, value) for value in sc.grid]


def test_outage_report_equals_standalone_closed_forms():
    rng = np.random.default_rng(109)
    for _ in range(300):
        params, fit, cfg = draw_scenario(rng)
        thr = thresholds(cfg, fit)
        for scale in (10.0 ** -0.5, 1.0, 10.0 ** 0.5):
            at = replace(params, cell_radius_m=params.cell_radius_m * scale)
            report = outage_report(thr, at)
            assert report.pi_h == user_outage_hybrid(thr, at)
            assert report.pi_b == user_outage_bit(thr, at)
            assert report.pi_s == user_outage_sem(thr, at)
            assert report.pi_g == sem_util_prob(thr, at)


def test_outage_report_in_a_scope_takes_each_kummer_value_once(monkeypatch):
    # one report takes F at every finite nonzero end of its events and the
    # utilization curve at both window edges; inside a scope each distinct
    # one costs at most one kernel evaluation, though pi_h and pi_s ask
    # for F at shared breakpoints
    calls = []
    true_pair = semcell.specfun._kummer_pair

    def counted(s, x):
        calls.append(x)
        return true_pair(s, x)

    monkeypatch.setattr(semcell.specfun, "_kummer_pair", counted)
    rng = np.random.default_rng(113)
    unscoped = scoped = 0
    for _ in range(200):
        params, fit, cfg = draw_scenario(rng)
        thr = thresholds(cfg, fit)
        ends = {y for part in (*thr.hybrid_outage_parts(), thr.sem_outage(), ((0.0, thr.g_bit),))
                for interval in part for y in interval}
        bound = (len({y for y in ends if 0.0 < y < math.inf})
                 + len(set(thr.utilization_window() or ())))
        calls.clear()
        report = outage_report(thr, params)
        unscoped += len(calls)
        calls.clear()
        with kernel_scope():
            assert outage_report(thr, params) == report
        assert len(calls) <= bound
        scoped += len(calls)
    assert scoped < unscoped


@pytest.mark.parametrize("axis", ["m_th", "r_out", "radius_m"])
def test_one_rate_crossing_per_run(axis, table1_params, table1_fit, table1_cfg, tmp_path):
    # a memo miss is a real solve; a hit is not
    solve = semcell.ratemodel._solve_rate_crossing
    solve.cache_clear()
    grid = {"m_th": np.linspace(0.4, 0.95, 8), "r_out": np.linspace(0.01, 0.3, 8),
            "radius_m": np.linspace(100.0, 3000.0, 8)}[axis]
    sc = _sweep_config(table1_params, table1_fit, table1_cfg, axis, map(float, grid))
    run_scenario(sc, tmp_path)
    assert solve.cache_info().misses == 1


def test_reference_sweeps_share_two_rate_crossings(tmp_path):
    # every preset variant and both threshold axes use the Table-1 fit and
    # mu, with the uncoded or the capacity SNR gap: two keys in all
    solve = semcell.ratemodel._solve_rate_crossing
    solve.cache_clear()
    base = table1_config()
    docs = [doc for preset in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
            for _, doc in expand_preset(base, preset)]
    for axis, start, stop in (("m_th", 0.4, 0.96), ("r_out", 0.008, 0.28)):
        doc = table1_config()
        doc["sweep"] = {"axis": axis, "grid": [float(v) for v in np.linspace(start, stop, 100)]}
        docs.append(doc)
    for i, doc in enumerate(docs):
        run_scenario(parse_scenario_config(doc, label=f"sweep{i}"), tmp_path)
    assert len(docs) == 27
    assert solve.cache_info().misses == 2
