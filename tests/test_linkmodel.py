import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import semcell.linkmodel
from semcell import (NetworkParams, dbm_per_hz_to_watts_per_hz, linear_to_db,
                     mean_edge_snr, snr_cdf, snr_scale)


def cdf_quadrature_oracle(y: float, params: NetworkParams) -> float:
    """Numerical integration of the conditional outage probability over the
    disc-uniform distance density, int_0^R (1 - e^(-y t^a / c_L)) 2t/R^2 dt."""
    c_l = snr_scale(params)
    radius = params.cell_radius_m
    a = params.pathloss_exp
    value, _ = integrate.quad(
        lambda t: (1.0 - math.exp(-y * t ** a / c_l)) * 2.0 * t / radius ** 2,
        0.0, radius, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


class TestSnrScale:
    def test_table1_value(self, table1_params):
        # hand evaluation of L P / (N0 W) (lambda / 4 pi)^2 with the
        # standard parameter set
        wavelength = 2.99792458e8 / 2.4e9
        by_hand = 30 * 1.0 / (10 ** (-17.4) * 1e-3 * 2e7) * (wavelength / (4 * math.pi)) ** 2
        value = snr_scale(table1_params)
        assert value == pytest.approx(by_hand, rel=1e-12)
        assert value == pytest.approx(3.73e10, rel=5e-3)

    def test_power_linearity(self, table1_params):
        doubled = replace(table1_params, tx_power_w=2.0 * table1_params.tx_power_w)
        assert snr_scale(doubled) == pytest.approx(2.0 * snr_scale(table1_params), rel=1e-14)

    def test_milliwatt_free_space_value(self, table1_params):
        params = replace(table1_params, pathloss_exp=2.0, tx_power_w=1e-3)
        assert snr_scale(params) == pytest.approx(3.73e7, rel=5e-3)

    def test_edge_snr(self, table1_params):
        edge = mean_edge_snr(table1_params)
        assert edge == pytest.approx(snr_scale(table1_params) / 500.0 ** 3, rel=1e-14)
        assert linear_to_db(edge) == pytest.approx(10 * math.log10(edge), rel=1e-14)


class TestSnrCdf:
    def test_at_origin(self, table1_params):
        assert snr_cdf(0.0, table1_params) == 0.0

    def test_free_space_unit_group(self, table1_params):
        # a = 2 and y R^2 / c_L = 1 reduces to 1 - (1 - e^-1)
        params = replace(table1_params, pathloss_exp=2.0)
        y = snr_scale(params) / params.cell_radius_m ** 2
        assert snr_cdf(y, params) == pytest.approx(1.0 - (1.0 - math.exp(-1.0)), rel=1e-13)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            params = NetworkParams(
                num_users=int(rng.integers(1, 60)),
                tx_power_w=float(10 ** rng.uniform(-3, 0)),
                total_bandwidth_hz=float(10 ** rng.uniform(6, 8)),
                carrier_freq_hz=float(rng.uniform(5e8, 6e9)),
                noise_density_w_per_hz=dbm_per_hz_to_watts_per_hz(float(rng.uniform(-178, -160))),
                pathloss_exp=float(rng.uniform(1.5, 5.0)),
                cell_radius_m=float(10 ** rng.uniform(1.5, 3.5)))
            edge = mean_edge_snr(params)
            y = float(edge * 10 ** rng.uniform(-1.5, 3.0))
            assert snr_cdf(y, params) == pytest.approx(
                cdf_quadrature_oracle(y, params), abs=1e-8)

    def test_monotone_in_y_and_radius(self, table1_params):
        ys = np.geomspace(1e-2, 1e12, 50)
        values = [snr_cdf(float(y), table1_params) for y in ys]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # the tail decays like a power law, so reach for a large y
        assert values[-1] > 1.0 - 1e-5
        radii = np.geomspace(50, 5000, 30)
        at_radius = [snr_cdf(10.0, replace(table1_params, cell_radius_m=float(r)))
                     for r in radii]
        assert all(b >= a for a, b in zip(at_radius, at_radius[1:]))

    def test_scale_invariance_of_dimensionless_group(self, table1_params):
        # the CDF depends on (y, c_L, R, a) only through (y / c_L) R^a
        y = 12.5
        base = snr_cdf(y, table1_params)
        for factor in (0.1, 3.0, 42.0):
            rescaled = replace(table1_params, tx_power_w=table1_params.tx_power_w * factor)
            assert snr_cdf(y * factor, rescaled) == pytest.approx(base, rel=1e-13)
            a = table1_params.pathloss_exp
            shrunk = replace(table1_params, cell_radius_m=table1_params.cell_radius_m
                             * factor ** (-1.0 / a))
            assert snr_cdf(y * factor, shrunk) == pytest.approx(base, rel=1e-13)

    def test_at_infinity(self, table1_params, monkeypatch):
        # the upper end of an unbounded SNR interval, and a finite SNR whose
        # group (y / c_L) R^a overflows, take no kernel call
        monkeypatch.setattr(semcell.linkmodel, "hyp1f1_ratio", None)
        assert snr_cdf(math.inf, table1_params) == 1.0
        assert snr_cdf(1e308, replace(table1_params, cell_radius_m=1e4)) == 1.0

    def test_domain_error(self, table1_params):
        for y in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                snr_cdf(y, table1_params)

    def test_linear_to_db_needs_a_positive_value(self):
        with pytest.raises(ValueError, match="positive"):
            linear_to_db(0.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(num_users=0, tx_power_w=1.0, total_bandwidth_hz=1e7,
                          carrier_freq_hz=1e9, noise_density_w_per_hz=1e-20,
                          pathloss_exp=3.0, cell_radius_m=100.0)
        with pytest.raises(ValueError):
            NetworkParams(num_users=5, tx_power_w=-1.0, total_bandwidth_hz=1e7,
                          carrier_freq_hz=1e9, noise_density_w_per_hz=1e-20,
                          pathloss_exp=3.0, cell_radius_m=100.0)
        with pytest.raises(ValueError):
            NetworkParams(num_users=5, tx_power_w=1.0, total_bandwidth_hz=1e7,
                          carrier_freq_hz=1e9, noise_density_w_per_hz=1e-20,
                          pathloss_exp=0.5, cell_radius_m=100.0)
