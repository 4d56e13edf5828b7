import math
from dataclasses import replace

import numpy as np
import pytest

from semcell import (DesignTarget, NetworkParams, RateConfig, SimilarityFit, SolverError,
                     binom_range_prob, dbm_per_hz_to_watts_per_hz, exact_count_prob,
                     inv_reg_inc_beta_int,
                     optimal_sem_util_radius, radius_closed_form_a2,
                     radius_for_outage_threshold, range_count_prob_deriv,
                     sem_util_prob, snr_scale, thresholds, user_outage_hybrid)
from semcell.cli import _Z_BOUND, _score_z
from conftest import draw_scenario, outage_cdf
from test_ratemodel import MULTI_CROSSING_CFG, MULTI_CROSSING_FIT


def bisect_level_equation(u_th: float) -> float:
    """Scalar bisection oracle for 1 - e^-x = u_th x on x > 0."""
    f = lambda x: 1.0 - math.exp(-x) - u_th * x
    lo, hi = 1e-12, 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def free_space_params(**overrides) -> NetworkParams:
    base = dict(num_users=10, tx_power_w=1e-3, total_bandwidth_hz=2e7,
                carrier_freq_hz=2.4e9,
                noise_density_w_per_hz=dbm_per_hz_to_watts_per_hz(-174.0),
                pathloss_exp=2.0, cell_radius_m=500.0)
    base.update(overrides)
    return NetworkParams(**base)


class TestClosedFormRadius:
    def test_half_level_dimensionless_group(self):
        # u_th = 0.5 pins y_th R^2 / c_L at the root of 1 - e^-x = x/2
        params = free_space_params()
        y_th = 3.0
        radius = radius_closed_form_a2(y_th, 0.5, params)
        x = y_th * radius**2 / snr_scale(params)
        assert x == pytest.approx(1.5936242600400399, rel=1e-12)
        assert x == pytest.approx(bisect_level_equation(0.5), rel=1e-10)

    def test_branch_point_limit(self):
        # u_th -> 1 pushes the Lambert argument onto the branch point and
        # the radius to zero
        params = free_space_params()
        radii = [radius_closed_form_a2(3.0, u, params) for u in (0.9, 0.99, 0.999999)]
        assert all(b < a for a, b in zip(radii, radii[1:]))
        assert radii[-1] < 1e-2 * radii[0]

    def test_agrees_with_numeric_solver(self):
        from semcell.design import _kummer_level_root

        rng = np.random.default_rng(53)
        params = free_space_params()
        for _ in range(100):
            y_th = float(10 ** rng.uniform(-1, 3))
            u_th = float(rng.uniform(0.01, 0.99))
            scale = float(10 ** rng.uniform(-3, 3))
            scaled = replace(params, tx_power_w=params.tx_power_w * scale)
            closed = radius_closed_form_a2(y_th, u_th, scaled)
            x = _kummer_level_root(1.0, 1.0 - u_th)[0]
            numeric = math.sqrt(x * snr_scale(scaled) / y_th)
            assert closed == pytest.approx(numeric, rel=1e-9)

    def test_wrong_exponent_rejected(self):
        params = free_space_params(pathloss_exp=3.0)
        with pytest.raises(ValueError):
            radius_closed_form_a2(3.0, 0.5, params)

    def test_level_equation_has_single_positive_root(self):
        # sign-change count over a log grid: e^-x - 1 + u x crosses zero
        # exactly once away from the origin
        for u_th in (0.05, 0.3, 0.5, 0.8, 0.99):
            grid = np.geomspace(1e-8, 1e3, 4000)
            values = 1.0 - np.exp(-grid) - u_th * grid
            signs = np.sign(values[values != 0.0])
            assert int(np.count_nonzero(np.diff(signs) != 0.0)) == 1


class TestRadiusForOutageThreshold:
    def test_subnormal_pi_star_raises_solver_error(self):
        # pi_star of p_th = 1e-310 at L = 30 (about 3.3e-312) is subnormal: the
        # count-tail inversion has no bracket, and fails with the solvers' one error
        with pytest.raises(SolverError, match="no sign change"):
            DesignTarget.for_outage_cap(1e-310, 1, 30)

    def test_round_trip_through_count_tail(self, table1_fit):
        # binomial tail at the solved radius returns the target exactly
        params = free_space_params(num_users=10)
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)
        thr = thresholds(cfg, table1_fit)
        target = DesignTarget.for_outage_cap(1e-3, 3, 10)
        solution = radius_for_outage_threshold(target, thr, params)
        assert abs(solution.residual) <= 1e-12
        sized = replace(params, cell_radius_m=solution.radius)
        pi_h = user_outage_hybrid(thr, sized)
        assert binom_range_prob(pi_h, 10, 3, 10) == pytest.approx(1e-3, abs=1e-9)
        # the paper's Lambert-W closed form names the same radius
        y_th = thr.outage_cdf_argument()
        for p_th in (1e-2, 1e-3, 1e-4):
            target = DesignTarget.for_outage_cap(p_th, 3, 10)
            radius = radius_for_outage_threshold(target, thr, params).radius
            closed = radius_closed_form_a2(y_th, 1.0 - target.pi_star, params)
            assert radius == pytest.approx(closed, rel=1e-9), p_th

    def test_numeric_branch_round_trip(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        target = DesignTarget.for_outage_cap(1e-2, 2, 30)
        solution = radius_for_outage_threshold(target, thr, table1_params)
        assert abs(solution.residual) <= 1e-12
        sized = replace(table1_params, cell_radius_m=solution.radius)
        pi_h = user_outage_hybrid(thr, sized)
        assert binom_range_prob(pi_h, 30, 2, 30) == pytest.approx(1e-2, abs=1e-9)

    def test_design_guarantee_monotone(self, table1_fit):
        # any radius below the solution stays below the probability cap
        params = free_space_params(num_users=10)
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)
        thr = thresholds(cfg, table1_fit)
        target = DesignTarget.for_outage_cap(1e-3, 3, 10)
        solution = radius_for_outage_threshold(target, thr, params)
        for shrink in (0.9, 0.6, 0.25):
            sized = replace(params, cell_radius_m=shrink * solution.radius)
            pi_h = user_outage_hybrid(thr, sized)
            assert binom_range_prob(pi_h, 10, 3, 10) < 1e-3

    def test_residuals_across_random_targets(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            params, fit, cfg = draw_scenario(rng, max_users=30)
            thr = thresholds(cfg, fit)
            num_users = params.num_users
            count_floor = int(rng.integers(1, num_users + 1))
            p_th = float(10 ** rng.uniform(-6, -0.5))
            target = DesignTarget.for_outage_cap(p_th, count_floor, num_users)
            solution = radius_for_outage_threshold(target, thr, params)
            assert solution.radius > 0.0
            assert abs(solution.residual) <= 1e-12

    def test_u_th_derivation_uses_inverse_tail(self):
        target = DesignTarget.for_outage_cap(1e-3, 3, 10)
        assert target.pi_star == inv_reg_inc_beta_int(1e-3, 3, 8)

    def test_degenerate_target_rejected(self):
        with pytest.raises(ValueError):
            DesignTarget(p_th=1e-3, count_floor=3, pi_star=1.0 - 0.0)
        with pytest.raises(ValueError):
            DesignTarget(p_th=1.0, count_floor=3, pi_star=1.0 - 0.5)

    @pytest.mark.parametrize("a", [1.5, 2.0, 2.5, 3.0, 4.5])
    def test_strict_caps_keep_relative_precision(self, a, table1_params, table1_cfg, table1_fit):
        # F at the solved radius meets pi_star to 1e-12 relative down to
        # p_th = 1e-15, where 1 - pi_star rounds to 1, and on to 1e-300,
        # free space (a = 2) included.  The reference F is conftest's
        # alternating power series (x < 1 here) and pi_star the closed form
        # of P[1 or more of L] = p_th, so neither shares code with
        # kummer_pair or inv_reg_inc_beta_int.
        params = replace(table1_params, pathloss_exp=a)
        thr = thresholds(table1_cfg, table1_fit)
        y_th, s, L = thr.outage_cdf_argument(), 2.0 / a, params.num_users
        for exponent in [*range(3, 16), 100, 300]:
            p_th = 10.0 ** -exponent
            pi_star = -math.expm1(math.log1p(-p_th) / L)
            solution = radius_for_outage_threshold(
                DesignTarget.for_outage_cap(p_th, 1, L), thr, params)
            x = y_th * solution.radius ** a / snr_scale(params)
            assert x < 1.0
            assert outage_cdf(s, x) == pytest.approx(pi_star, rel=1e-12), p_th

    @pytest.mark.parametrize("case", ["free_space", "multi_crossing_corner"])
    def test_solved_radius_confirmed_by_simulation(self, case, table1_params, table1_fit,
                                                   monkeypatch):
        # 10 users: at the designed radius the simulated probability of 3+
        # outages sits on the 1e-3 target, in a free-space 1 mW cell and in
        # the Table-1 cell with a multi-crossing fit, whose two-part outage
        # split has a gap although the event itself is one interval
        from semcell import RangeCount, Scenario, estimate_many

        if case == "free_space":
            params, fit = free_space_params(num_users=10), table1_fit
            cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)
        else:
            params, fit, cfg = _multi_crossing_corner(table1_params)
        thr = thresholds(cfg, fit)
        target = DesignTarget.for_outage_cap(1e-3, 3, 10)
        solution = radius_for_outage_threshold(target, thr, params)
        sized = replace(params, cell_radius_m=solution.radius)
        monkeypatch.setenv("SEMCELL_THREADS", "4")
        est = estimate_many([RangeCount(3, 10)], 1_000_000, 20240404,
                            [Scenario(sized, fit, cfg)])[0][0]
        assert abs(est.estimate - 1e-3) <= 3.0 * est.std_error

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 16: user_outage_hybrid sums the two-part split, "
                              "not F(outage_cdf_argument()); the fix moves 6 cells of "
                              "demos/output/fig3/fig3_rout020.csv, pinned in "
                              "perfbench/reference_csv.json, so it lands with the benchmark re-pin")
    def test_hybrid_outage_at_the_corner_radius_matches_simulation(self, table1_params):
        from semcell import HybridOutage, Scenario, estimate_many

        params, fit, cfg = _multi_crossing_corner(table1_params)
        thr = thresholds(cfg, fit)
        solution = radius_for_outage_threshold(DesignTarget.for_outage_cap(1e-3, 3, 10), thr, params)
        sized = replace(params, cell_radius_m=solution.radius)
        n = 1_000_000
        est = estimate_many([HybridOutage()], n, 20240404, [Scenario(sized, fit, cfg)])[0][0]
        assert abs(_score_z(est.estimate, user_outage_hybrid(thr, sized), n)) <= _Z_BOUND


def _multi_crossing_corner(table1_params):
    """The Table-1 cell with 10 users (a = 3) and the multi-crossing fit at
    r_out = 0.04, where the two-part hybrid outage split reads
    [0, g_bit] and [g_min, sem edge], with a gap between."""
    return (replace(table1_params, num_users=10), MULTI_CROSSING_FIT,
            replace(MULTI_CROSSING_CFG, r_out=0.04))


class TestCountDerivatives:
    def test_telescoped_exact_count_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 40:
            params, fit, cfg = draw_scenario(rng, max_users=40)
            thr = thresholds(cfg, fit)
            if thr.utilization_window() is None:
                continue
            num_users = params.num_users
            count = int(rng.integers(0, num_users + 1))
            radius = params.cell_radius_m
            h = 1e-4 * radius
            up = exact_count_prob(num_users, count, thr, replace(params, cell_radius_m=radius + h))
            down = exact_count_prob(num_users, count, thr, replace(params, cell_radius_m=radius - h))
            fd = (up - down) / (2.0 * h)
            analytic = range_count_prob_deriv(num_users, count, count, thr, params)
            scale = max(abs(fd), 1e-4 / radius)
            assert analytic == pytest.approx(fd, abs=2e-6 * scale)
            checked += 1

    def test_range_derivative_telescopes(self):
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 30:
            params, fit, cfg = draw_scenario(rng, max_users=30)
            thr = thresholds(cfg, fit)
            if thr.utilization_window() is None:
                continue
            num_users = params.num_users
            lo = int(rng.integers(0, num_users + 1))
            hi = int(rng.integers(lo, num_users + 1))
            direct = sum(range_count_prob_deriv(num_users, m, m, thr, params)
                         for m in range(lo, hi + 1))
            telescoped = range_count_prob_deriv(num_users, lo, hi, thr, params)
            assert telescoped == pytest.approx(direct, rel=1e-10, abs=1e-18)
            checked += 1

    def test_full_range_derivative_is_zero(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        assert range_count_prob_deriv(30, 0, 30, thr, table1_params) == 0.0

    def test_empty_utilization_window_has_zero_derivative(self, table1_params, table1_cfg,
                                                          table1_fit):
        # k r_out = 1 >= a2: no SNR serves a user semantically above the outage rate
        thr = thresholds(replace(table1_cfg, r_out=0.2), table1_fit)
        assert thr.utilization_window() is None
        for count_lo, count_hi in ((5, 10), (0, 10), (5, 30)):
            assert range_count_prob_deriv(30, count_lo, count_hi, thr, table1_params) == 0.0


class TestOptimalUtilizationRadius:
    def test_level_value_from_exact_binomials(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        design = optimal_sem_util_radius(30, 5, 10, thr, table1_params)
        expected = 1.0 / (1.0 + (20030010 / 23751) ** (1.0 / 6.0))
        assert design.level_target == pytest.approx(expected, rel=1e-12)
        assert design.level_target == pytest.approx(0.2455, abs=1e-4)

    def test_level_roots_hit_level(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        design = optimal_sem_util_radius(30, 5, 10, thr, table1_params)
        assert design.level_attainable
        level_roots = [s for s in design.solutions if s.equation == "level"]
        assert len(level_roots) == 2
        for root in level_roots:
            sized = replace(table1_params, cell_radius_m=root.radius)
            assert sem_util_prob(thr, sized) == pytest.approx(design.level_target, abs=1e-9)
            assert abs(root.residual) <= 1e-9

    def test_extreme_low_count_returns_only_stationary(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        design = optimal_sem_util_radius(30, 0, 10, thr, table1_params)
        assert design.level_target is None
        assert [s.equation for s in design.solutions] == ["stationary"]

    def test_maximizer_is_stationary_point_of_range_prob(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        design = optimal_sem_util_radius(30, 5, 10, thr, table1_params)
        best = design.best
        assert best is not None and best.equation == "level"
        radius = best.radius

        def range_prob(r):
            sized = replace(table1_params, cell_radius_m=r)
            return binom_range_prob(sem_util_prob(thr, sized), 30, 5, 10)

        h = 1e-4 * radius
        fd = (range_prob(radius + h) - range_prob(radius - h)) / (2.0 * h)
        # relative to the natural scale range_prob / radius
        assert abs(fd) * radius / range_prob(radius) <= 1e-6

    def test_best_beats_grid(self, table1_params, table1_cfg, table1_fit):
        thr = thresholds(table1_cfg, table1_fit)
        design = optimal_sem_util_radius(30, 5, 10, thr, table1_params)
        best = design.best

        def range_prob(r):
            sized = replace(table1_params, cell_radius_m=r)
            return binom_range_prob(sem_util_prob(thr, sized), 30, 5, 10)

        grid_max = max(range_prob(float(r)) for r in np.geomspace(20.0, 50_000.0, 400))
        assert best.range_prob >= grid_max - 1e-9

    def test_low_count_range_has_no_maximizer(self):
        # P[count <= 0] = (1 - pi_g)^L falls as pi_g rises: the stationary
        # radius is where it is smallest, so there is no best radius
        params, fit, cfg = draw_scenario(np.random.default_rng(127), rate_class="low")
        thr = thresholds(cfg, fit)
        design = optimal_sem_util_radius(params.num_users, 0, 0, thr, params)
        assert design.semantic_possible
        assert [s.equation for s in design.solutions] == ["stationary"]
        assert design.best is None
        stationary = design.solutions[0]
        for k in (1.0 - 1e-3, 1.0 + 1e-3):
            sized = replace(params, cell_radius_m=k * stationary.radius)
            pi_g = sem_util_prob(thr, sized)
            assert binom_range_prob(pi_g, params.num_users, 0, 0) > stationary.range_prob

    def test_peak_evaluates_neither_bracket_end(self, table1_params, table1_cfg, table1_fit,
                                                monkeypatch):
        # the peak solve of `design util --ll 5 --lu 10` at Table-1 starts at
        # its closed-form asymptote and never needs either end of its bracket
        from semcell import design as design_module
        from semcell.outage import _utilization_terms

        thr = thresholds(table1_cfg, table1_fit)
        window = thr.utilization_window()
        s = 2.0 / table1_params.pathloss_exp
        brackets, points = [], []
        solve = design_module.bracketed_root

        def spy(fdf, lo, hi, *args, **kwargs):
            brackets.append((lo, hi))
            return solve(fdf, lo, hi, *args, **kwargs)

        def curve(t):
            points.append(t)
            return _utilization_terms(s, window, t)

        monkeypatch.setattr(design_module, "bracketed_root", spy)
        t_peak, iterations, _ = design_module._utilization_peak(s, window, curve)
        [(lo, hi)] = brackets
        assert lo < t_peak < hi
        assert lo not in points and hi not in points
        assert iterations == len(points) <= 10

    def test_each_t_takes_one_curve_evaluation(self, monkeypatch):
        # the peak, the level roots and the reported range probabilities
        # share one evaluation of the utilization curve per distinct t
        from semcell import design as design_module
        from semcell.outage import _utilization_terms

        points = []

        def counted(s, window, t):
            points.append(t)
            return _utilization_terms(s, window, t)

        monkeypatch.setattr(design_module, "_utilization_terms", counted)
        rng = np.random.default_rng(137)
        level_roots = 0
        for _ in range(100):
            params, fit, cfg = draw_scenario(rng)
            num_users = params.num_users
            count_lo = int(rng.integers(1, num_users))
            count_hi = int(rng.integers(count_lo, num_users))
            points.clear()
            design = optimal_sem_util_radius(num_users, count_lo, count_hi,
                                             thresholds(cfg, fit), params)
            assert len(points) == len(set(points))
            level_roots += design.level_attainable
        assert level_roots > 10

    def test_level_radii_tie_to_the_smaller(self):
        # a draw whose level radii (580.96 m and 2723.28 m) give range
        # probabilities that differ in the last ulp when evaluated through
        # pi_g at each radius; both carry the one at the level itself, so
        # they tie exactly and the smaller radius is best
        params = NetworkParams(num_users=7, tx_power_w=0.02341567031989549,
                               total_bandwidth_hz=9908909.113437131,
                               carrier_freq_hz=1309652271.4417098,
                               noise_density_w_per_hz=3.777489582714735e-21,
                               pathloss_exp=2.70818164058554, cell_radius_m=32.934493074779354)
        cfg = RateConfig(mu=12, ber=0.0016047378208773448, m_th=0.7745680779259148,
                         r_out=0.18714356476449656, use_capacity=False)
        fit = SimilarityFit(a1=0.11123745503296854, a2=0.9121809873525262,
                            c1=0.15271101970639261, c2=0.6570596447927017, k=3)
        design = optimal_sem_util_radius(7, 1, 2, thresholds(cfg, fit), params)
        assert [s.equation for s in design.solutions] == ["level", "stationary", "level"]
        below, _, above = design.solutions
        assert below.radius == pytest.approx(580.96, rel=1e-5)
        assert above.radius == pytest.approx(2723.28, rel=1e-5)
        assert below.range_prob == above.range_prob == binom_range_prob(design.level_target, 7, 1, 2)
        assert design.best is below

    def test_unattainable_level_is_flagged(self, table1_params, table1_fit):
        # a narrow utilization window caps the per-user probability (peak
        # ~0.24) below the level demanded by a mid count range (~0.48)
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.1955)
        thr = thresholds(cfg, table1_fit)
        design = optimal_sem_util_radius(30, 14, 15, thr, table1_params)
        assert design.semantic_possible
        assert not design.level_attainable
        assert [s.equation for s in design.solutions] == ["stationary"]

    def test_degenerate_semantics_impossible(self, table1_params, table1_fit):
        cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.2)
        thr = thresholds(cfg, table1_fit)
        design = optimal_sem_util_radius(30, 5, 10, thr, table1_params)
        assert not design.semantic_possible
        assert design.solutions == ()
        assert design.best is None


@pytest.mark.parametrize("call, match", [
    (lambda thr, params: DesignTarget.for_outage_cap(1e-3, 0, 30), "count_floor"),
    (lambda thr, params: DesignTarget.for_outage_cap(1e-3, 31, 30), "count_floor"),
    (lambda thr, params: radius_closed_form_a2(3.0, 0.0, free_space_params()), "u_th"),
    (lambda thr, params: radius_closed_form_a2(3.0, 1.0, free_space_params()), "u_th"),
    (lambda thr, params: radius_closed_form_a2(0.0, 0.5, free_space_params()), "y_th"),
    (lambda thr, params: range_count_prob_deriv(30, 10, 5, thr, params), "count_lo"),
    (lambda thr, params: range_count_prob_deriv(30, 5, 31, thr, params), "count_lo"),
    (lambda thr, params: optimal_sem_util_radius(30, 10, 5, thr, params), "count_lo"),
    (lambda thr, params: optimal_sem_util_radius(30, -1, 5, thr, params), "count_lo"),
], ids=["floor-0", "floor-above-L", "u_th-0", "u_th-1", "y_th-0", "deriv-lo-above-hi",
        "deriv-hi-above-L", "util-lo-above-hi", "util-lo-negative"])
def test_out_of_range_design_inputs_raise(table1_params, table1_cfg, table1_fit, call, match):
    with pytest.raises(ValueError, match=match):
        call(thresholds(table1_cfg, table1_fit), table1_params)
