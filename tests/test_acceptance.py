"""End-to-end acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS line (to the real stdout, so it shows under pytest
capture) with the measured runtime.  A failed assertion means the
criterion is red.
"""

import csv
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from semcell import (BitOutage, ExactCount, HybridOutage, NetOutageMode,
                     RangeCount, Scenario, SemOutage, SemUtilization,
                     binom_range_prob, estimate_many, exact_count_prob, gamma_gap,
                     hyp1f1_ratio, network_outage, outage_report, radius_closed_form_a2,
                     range_count_prob_deriv, sem_util_prob, sem_util_prob_deriv, bit_rate,
                     sem_rate, snr_scale, thresholds)
from semcell.cli import main, parse_scenario_config, run_scenario
from semcell.design import _kummer_level_root
from semcell.presets import expand_preset, table1_config
from conftest import draw_scenario


_CONSOLE = None


@pytest.fixture(autouse=True)
def _live_console(capsys):
    # lets the PASS lines reach the terminal despite pytest's capture
    global _CONSOLE
    _CONSOLE = capsys
    yield
    _CONSOLE = None


def _report(index: int, name: str, elapsed: float) -> None:
    line = f"ACCEPTANCE {index} {name}: PASS ({elapsed:.2f}s)"
    if _CONSOLE is not None:
        with _CONSOLE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _moderate_radius(params, fit, cfg, target: float):
    """Radius at which the hybrid outage probability equals target."""
    thr = thresholds(cfg, fit)
    y_th = thr.outage_cdf_argument()
    x = _kummer_level_root(2.0 / params.pathloss_exp, target)[0]
    radius = (x * snr_scale(params) / y_th) ** (1.0 / params.pathloss_exp)
    return replace(params, cell_radius_m=radius)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_acceptance_1_hybrid_dominance(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        params, fit, cfg = draw_scenario(rng)
        report = outage_report(thresholds(cfg, fit), params)
        assert report.pi_h <= report.pi_b + 1e-12
        assert report.pi_h <= report.pi_s + 1e-12

    base = table1_config()
    for preset in ("fig2", "fig3"):
        for label, doc in expand_preset(base, preset):
            sc = parse_scenario_config(doc, label=label)
            csv_path, _ = run_scenario(sc, tmp_path / preset)
            for row in _read_csv(csv_path):
                pi_h = float(row["pi_h"])
                assert pi_h <= float(row["pi_b"]) + 1e-12
                assert pi_h <= float(row["pi_s"]) + 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, "hybrid outage never exceeds bit-only or semantic-only", elapsed)


def test_acceptance_2_closed_forms_match_monte_carlo():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    n = 1_000_000
    for scenario_index in range(20):
        params, fit, cfg = draw_scenario(rng, max_users=4)
        params = _moderate_radius(params, fit, cfg, target=float(rng.uniform(0.3, 0.6)))
        thr = thresholds(cfg, fit)
        report = outage_report(thr, params)
        num_users = params.num_users
        analytic = {
            "pi_b": report.pi_b,
            "pi_s": report.pi_s,
            "pi_h": report.pi_h,
            "net_all": network_outage(report.pi_h, num_users, NetOutageMode.ALL_IN_OUTAGE),
            "net_any": network_outage(report.pi_h, num_users, NetOutageMode.AT_LEAST_ONE),
            "pi_g": report.pi_g,
        }
        events = [BitOutage(), SemOutage(), HybridOutage(),
                  ExactCount(num_users), RangeCount(1, num_users), SemUtilization()]
        scenario = Scenario(params, fit, cfg)
        estimates = estimate_many(events, n, 9000 + scenario_index, [scenario])[0]
        for (name, value), est in zip(analytic.items(), estimates):
            assert abs(value - est.estimate) <= 3.0 * est.std_error, (
                scenario_index, name, value, est)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(2, "six probability quantities within 3 standard errors of MC", elapsed)


def test_acceptance_3_closed_form_radius_round_trip(table1_params):
    started = time.perf_counter()
    # the u_th = 1/2 level pins the dimensionless group at the root of
    # e^-x - 1 = -x/2
    params = replace(table1_params, pathloss_exp=2.0)
    y_ref = 3.0
    radius = radius_closed_form_a2(y_ref, 0.5, params)
    group = y_ref * radius**2 / snr_scale(params)
    assert group == pytest.approx(1.5936242600400399, abs=1e-9)

    rng = np.random.default_rng(13)
    for _ in range(100):
        y_th = float(10 ** rng.uniform(-1.5, 3.0))
        u_th = float(rng.uniform(0.01, 0.99))
        scale = float(10 ** rng.uniform(-3.0, 3.0))
        scaled = replace(params, tx_power_w=params.tx_power_w * scale)
        solved = radius_closed_form_a2(y_th, u_th, scaled)
        residual = hyp1f1_ratio(1.0, y_th * solved**2 / snr_scale(scaled)) - u_th
        assert abs(residual) <= 1e-9
        x_numeric = _kummer_level_root(1.0, 1.0 - u_th)[0]
        numeric = math.sqrt(x_numeric * snr_scale(scaled) / y_th)
        assert solved == pytest.approx(numeric, rel=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, "free-space radius closed form round trips", elapsed)


def _exact_upper_tails(p_grid: list[float], max_users: int) -> dict[tuple[int, int], list[float]]:
    """(n, k) -> P[Binomial(n, p) >= k] for each p of ``p_grid``, 1 <= k <= n <= max_users.

    With p = a / b exactly (the float's own value), each term
    C(n, j) p^j (1 - p)^(n - j) is C(n, j) a^j (b - a)^(n - j) / b^n: the
    tail is summed in integers and rounded once, by the int / int division.
    """
    tails = {}
    for p in p_grid:
        a, b = p.as_integer_ratio()
        for n in range(1, max_users + 1):
            scale = b ** n
            numerator = 0
            for k in range(n, 0, -1):
                numerator += math.comb(n, k) * a ** k * (b - a) ** (n - k)
                tails.setdefault((n, k), []).append(numerator / scale)
    return tails


def test_acceptance_4_count_tail_equals_beta_tail():
    p_grid = [float(p) for p in np.linspace(0.01, 0.99, 99)]
    exact = _exact_upper_tails(p_grid, 60)  # outside the timed loop: the bound times the tail
    started = time.perf_counter()
    tails = {}
    for num_users in range(1, 61):
        for count_lo in range(1, num_users + 1):
            # the upper count tail is I_p(count_lo, num_users - count_lo + 1)
            tails[num_users, count_lo] = [binom_range_prob(p, num_users, count_lo, num_users)
                                          for p in p_grid]
    elapsed = time.perf_counter() - started
    # the tail's own rounding error: at most 1.17e-13 relative, at p = 0.01, n = 60, k = 54
    worst = max((abs(got - want) / want, p, key)
                for key, row in tails.items() for got, want, p in zip(row, exact[key], p_grid))
    assert worst[0] <= 1.2e-13, worst
    assert elapsed < 5.0
    _report(4, "binomial range equals regularized beta tail", elapsed)


def test_acceptance_5_utilization_derivatives():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 200:
        params, fit, cfg = draw_scenario(rng)
        thr = thresholds(cfg, fit)
        if thr.utilization_window() is None:
            continue
        radius = params.cell_radius_m * float(10 ** rng.uniform(-0.5, 0.5))
        at = replace(params, cell_radius_m=radius)
        h = 1e-4 * radius
        up = sem_util_prob(thr, replace(params, cell_radius_m=radius + h))
        down = sem_util_prob(thr, replace(params, cell_radius_m=radius - h))
        fd = (up - down) / (2.0 * h)
        analytic = sem_util_prob_deriv(thr, at)
        # 1e-5 relative, with an absolute floor where the derivative
        # passes through zero at the utilization peak
        pi_scale = max(sem_util_prob(thr, at), 1e-9)
        assert abs(analytic - fd) <= 1e-5 * max(abs(fd), 1e-3 * pi_scale / radius)
        checked += 1

    checked = 0
    while checked < 60:
        params, fit, cfg = draw_scenario(rng, max_users=40)
        thr = thresholds(cfg, fit)
        if thr.utilization_window() is None:
            continue
        num_users = params.num_users
        count = int(rng.integers(0, num_users + 1))
        radius = params.cell_radius_m
        # the count probability carries exponents up to num_users, which
        # amplifies finite-difference truncation; a smaller step keeps
        # the comparison inside the 1e-6 relative budget
        h = 1e-6 * radius
        up = exact_count_prob(num_users, count, thr, replace(params, cell_radius_m=radius + h))
        down = exact_count_prob(num_users, count, thr, replace(params, cell_radius_m=radius - h))
        fd = (up - down) / (2.0 * h)
        analytic = range_count_prob_deriv(num_users, count, count, thr, params)
        f_scale = max(exact_count_prob(num_users, count, thr, params), 1e-9)
        assert abs(analytic - fd) <= 1e-6 * max(abs(fd), 1e-2 * f_scale / radius)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(5, "analytic radius derivatives match finite differences", elapsed)


def test_acceptance_6_figure_shape_properties(tmp_path):
    started = time.perf_counter()
    base = table1_config()

    fig2 = {}
    for label, doc in expand_preset(base, "fig2"):
        sc = parse_scenario_config(doc, label=label)
        csv_path, _ = run_scenario(sc, tmp_path / "fig2")
        fig2[label] = _read_csv(csv_path)

    # bit-only outage ignores the similarity threshold entirely
    for mode in ("uncoded", "capacity"):
        pi_b_curves = [[row["pi_b"] for row in fig2[f"fig2_mth{m}_{mode}"]]
                       for m in ("060", "075", "090")]
        assert pi_b_curves[0] == pi_b_curves[1] == pi_b_curves[2]

    # semantic-only outage grows with the similarity threshold
    for mode in ("uncoded", "capacity"):
        curves = [np.array([float(row["pi_s"]) for row in fig2[f"fig2_mth{m}_{mode}"]])
                  for m in ("060", "075", "090")]
        assert np.all(curves[0] <= curves[1] + 1e-15)
        assert np.all(curves[1] <= curves[2] + 1e-15)

    # capacity-achieving bit transmission dominates the uncoded gap
    for m in ("060", "075", "090"):
        uncoded = np.array([float(row["pi_b"]) for row in fig2[f"fig2_mth{m}_uncoded"]])
        capacity = np.array([float(row["pi_b"]) for row in fig2[f"fig2_mth{m}_capacity"]])
        assert np.all(capacity <= uncoded + 1e-15)

    fig3 = {}
    for label, doc in expand_preset(base, "fig3"):
        sc = parse_scenario_config(doc, label=label)
        csv_path, _ = run_scenario(sc, tmp_path / "fig3")
        fig3[label] = _read_csv(csv_path)

    # mid-range rate threshold: the semantic mode beats the bit mode by
    # at least an order of magnitude somewhere on the curve
    mid = fig3["fig3_rout012"]
    ratios = [float(row["pi_b"]) / float(row["pi_s"]) for row in mid
              if float(row["pi_s"]) > 1e-300]
    assert max(ratios) >= 10.0

    # once k * r_out reaches the similarity ceiling the semantic-only
    # network is in permanent outage
    high = fig3["fig3_rout020"]
    assert all(float(row["pi_s"]) == 1.0 for row in high)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(6, "headline curve properties reproduced on emitted CSVs", elapsed)


def test_acceptance_7_threshold_sanity(table1_cfg, table1_fit):
    started = time.perf_counter()
    thr = thresholds(table1_cfg, table1_fit)
    assert thr.g_min == pytest.approx(3.247, abs=1e-3)
    assert gamma_gap(table1_cfg) == pytest.approx(3.5322, abs=1e-4)
    assert thr.g_bit == pytest.approx(7.175, abs=1e-2)
    assert thr.g_sem is None  # k r_out = 0.2 sits below the 0.37 floor
    crossing_gap = abs(sem_rate(thr.g_max, table1_cfg, table1_fit)
                       - bit_rate(thr.g_max, table1_cfg))
    assert crossing_gap <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(7, "standard-parameter thresholds hit their values", elapsed)


def test_acceptance_8_run_determinism(tmp_path, monkeypatch):
    started = time.perf_counter()
    doc = table1_config()
    doc["sweep"] = {"axis": "radius_m", "grid": [400.0, 900.0, 1400.0]}
    doc["mc"] = {"samples": 100_000, "seed": 8}
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(doc))

    out_first = tmp_path / "first"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_first)]) == 0
    manifest = out_first / "det.manifest.json"

    blobs = []
    for workers in ("1", "4", "16"):
        monkeypatch.setenv("SEMCELL_THREADS", workers)
        for repeat in ("a", "b"):
            out = tmp_path / f"w{workers}{repeat}"
            assert main(["run", "--config", str(manifest), "--out", str(out)]) == 0
            blobs.append((out / "det.csv").read_bytes())
    assert all(blob == blobs[0] for blob in blobs[1:])
    assert blobs[0] == (out_first / "det.csv").read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(8, "manifest reruns are byte-identical across worker counts", elapsed)
