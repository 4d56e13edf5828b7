import math

import numpy as np
import pytest

from semcell import (NetworkParams, RateConfig, SimilarityFit,
                     dbm_per_hz_to_watts_per_hz, hyp1f1_ratio)


@pytest.fixture
def table1_params() -> NetworkParams:
    return NetworkParams(
        num_users=30,
        tx_power_w=1.0,
        total_bandwidth_hz=2.0e7,
        carrier_freq_hz=2.4e9,
        noise_density_w_per_hz=dbm_per_hz_to_watts_per_hz(-174.0),
        pathloss_exp=3.0,
        cell_radius_m=500.0)


@pytest.fixture
def table1_fit() -> SimilarityFit:
    return SimilarityFit(a1=0.37, a2=0.98, c1=0.2525, c2=-0.7895, k=5)


@pytest.fixture
def table1_cfg() -> RateConfig:
    return RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04)


def draw_scenario(rng: np.random.Generator, *, max_users: int = 50,
                  rate_class: str | None = None):
    """One random but well-posed scenario over a documented parameter grid.

    rate_class picks where k * r_out falls relative to the similarity
    asymptotes: 'low' (below a1, no semantic-rate outage), 'mid' (between
    the asymptotes), 'high' (at or above a2, semantic rate saturated), or
    None for a random mix.  Fits whose rate curves cross more than once
    are redrawn so the semantic-preference window stays a single
    interval; ``tests/test_ratemodel.py::
    test_utilization_window_on_a_multi_crossing_fit`` shows what goes
    wrong on one.
    """
    from semcell import NetworkParams, RateConfig, SimilarityFit

    for _ in range(200):
        a1 = rng.uniform(0.05, 0.45)
        a2 = rng.uniform(a1 + 0.3, 0.995)
        fit = SimilarityFit(a1=a1, a2=a2,
                            c1=rng.uniform(0.15, 0.45),
                            c2=rng.uniform(-1.5, 1.0),
                            k=int(rng.integers(2, 9)))
        m_th = rng.uniform(a1 + 0.1 * (a2 - a1), a2 - 0.1 * (a2 - a1))
        klass = rate_class or rng.choice(["low", "mid", "high"], p=[0.45, 0.45, 0.1])
        if klass == "low":
            kr = rng.uniform(0.2 * a1, 0.95 * a1)
        elif klass == "mid":
            kr = rng.uniform(a1 + 0.05 * (a2 - a1), min(m_th, a2 - 0.05 * (a2 - a1)))
        else:
            kr = rng.uniform(a2, 1.5 * a2)
        cfg = RateConfig(
            mu=int(rng.integers(10, 61)),
            ber=float(10.0 ** rng.uniform(-5.0, -0.9)),
            m_th=float(m_th),
            r_out=float(kr / fit.k),
            use_capacity=bool(rng.random() < 0.2))
        params = NetworkParams(
            num_users=int(rng.integers(2, max_users + 1)),
            tx_power_w=float(10.0 ** rng.uniform(-3.0, 0.0)),
            total_bandwidth_hz=float(10.0 ** rng.uniform(6.5, 7.7)),
            carrier_freq_hz=float(rng.uniform(0.7e9, 6.0e9)),
            noise_density_w_per_hz=dbm_per_hz_to_watts_per_hz(float(rng.uniform(-178.0, -165.0))),
            pathloss_exp=float(rng.uniform(1.5, 4.5)),
            cell_radius_m=float(10.0 ** rng.uniform(1.5, 3.5)))
        if _single_rate_crossing(cfg, fit):
            return params, fit, cfg
    raise AssertionError("could not draw a single-crossing scenario in 200 tries")


def _single_rate_crossing(cfg, fit) -> bool:
    from semcell import bit_rate, sem_rate

    grid = np.geomspace(1e-6, 1e12, 600)
    gap = sem_rate(grid, cfg, fit) - bit_rate(grid, cfg)
    signs = np.sign(gap)
    changes = int(np.count_nonzero(np.diff(signs[signs != 0.0]) != 0.0))
    return changes == 1


def outage_cdf(s: float, x: float) -> float:
    """Reference per-user outage probability F = 1 - 1F1(s; s+1; -x).

    Below x = 1 it is the alternating power series
    sum_n (-1)^(n+1) s x^n / ((s+n) n!), summed with math.fsum, which
    shares no code with kummer_pair; above it F > 0.2 for every s in
    [2/4.5, 2/1.5], so 1 - hyp1f1_ratio does not cancel.
    """
    if x >= 1.0:
        return 1.0 - hyp1f1_ratio(s, x)
    terms, term = [], 1.0
    for n in range(1, 40):
        term *= x / n
        terms.append((-1) ** (n + 1) * s * term / (s + n))
    return math.fsum(terms)
