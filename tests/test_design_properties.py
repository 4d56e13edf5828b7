"""Property tests of both radius designs over the documented scenario domain.

Scenarios come from ``conftest.draw_scenario`` (path-loss exponent
1.5-4.5, every rate class, 2-50 users), seeded by hypothesis; the served
count range and the outage cap are drawn by hypothesis too.  Part of the
outage draws move the cell to free space (a = 2 exactly), and every
utilization draw is designed in free space as well.  The runs are
derandomized so the suite stays reproducible.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semcell import (DesignTarget, binom_range_prob, optimal_sem_util_radius,
                     radius_for_outage_threshold, sem_util_prob, snr_scale, thresholds)
from conftest import draw_scenario, outage_cdf

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])

scenarios = st.builds(
    lambda seed, rate_class: draw_scenario(np.random.default_rng(seed), rate_class=rate_class),
    st.integers(0, 2**32 - 1), st.sampled_from(["low", "mid", "high"]))


def _range_prob(thr, params, radius, count_lo, count_hi):
    sized = replace(params, cell_radius_m=radius)
    return binom_range_prob(sem_util_prob(thr, sized), params.num_users, count_lo, count_hi)


@PROPERTY_SETTINGS
@given(scenario=scenarios, lo_frac=st.floats(0.0, 1.0), width_frac=st.floats(0.0, 1.0))
def test_utilization_design_solves_every_nonempty_window(scenario, lo_frac, width_frac):
    params, fit, cfg = scenario
    thr = thresholds(cfg, fit)
    L = params.num_users
    count_lo = int(round(lo_frac * L))
    count_hi = count_lo + int(round(width_frac * (L - count_lo)))
    # every draw also in free space, where s = 2 / a = 1 starts the peak solve
    for cell in (params, replace(params, pathloss_exp=2.0)):
        _check_utilization_design(thr, cell, count_lo, count_hi)


def _check_utilization_design(thr, params, count_lo, count_hi):
    L = params.num_users
    design = optimal_sem_util_radius(L, count_lo, count_hi, thr, params)
    if thr.utilization_window() is None:
        assert not design.semantic_possible and design.best is None
        return

    assert design.semantic_possible
    for solution in design.solutions:
        assert solution.radius > 0.0
        assert 1 <= solution.iterations <= 60
        sized = replace(params, cell_radius_m=solution.radius)
        if solution.equation == "level":
            assert abs(solution.residual) <= 1e-9
            assert abs(sem_util_prob(thr, sized) - design.level_target) <= 1e-9
        else:
            # the stationary radius is the peak of pi_g
            peak = sem_util_prob(thr, sized)
            for k in (1.0 - 1e-3, 1.0 + 1e-3):
                assert peak >= sem_util_prob(thr, replace(params, cell_radius_m=solution.radius * k))

    best = design.best
    if count_lo == 0 and count_hi < L:
        # the range probability falls with pi_g: no radius maximizes it
        assert best is None
        return
    neighbours = [_range_prob(thr, params, best.radius * k, count_lo, count_hi)
                  for k in (1.0 - 1e-3, 1.0 + 1e-3)]
    centre = _range_prob(thr, params, best.radius, count_lo, count_hi)
    assert centre >= max(neighbours) - 1e-12


@PROPERTY_SETTINGS
@given(scenario=scenarios, log_p_th=st.floats(-15.0, -0.5), floor_frac=st.floats(0.0, 1.0),
       free_space=st.booleans())
def test_outage_radius_meets_the_level(scenario, log_p_th, floor_frac, free_space):
    params, fit, cfg = scenario
    if free_space:
        params = replace(params, pathloss_exp=2.0)
    thr = thresholds(cfg, fit)
    L = params.num_users
    count_floor = 1 + int(floor_frac * (L - 1))
    target = DesignTarget.for_outage_cap(10.0 ** log_p_th, count_floor, L)
    solution = radius_for_outage_threshold(target, thr, params)
    assert solution.radius > 0.0
    assert solution.iterations <= 60
    assert abs(solution.residual) <= 1e-12
    a = params.pathloss_exp
    x = thr.outage_cdf_argument() * solution.radius ** a / snr_scale(params)
    assert abs(outage_cdf(2.0 / a, x) - target.pi_star) <= 1e-12 * target.pi_star
