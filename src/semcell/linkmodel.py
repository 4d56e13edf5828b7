"""Physical-layer model of the downlink.

A single-cell FDMA system: the base station splits a total bandwidth
equally over L users placed uniformly at random on a disc of radius R,
each seeing Rayleigh fading on top of power-law path loss.  The received
SNR of a user at distance r is c_L |h|^2 r^(-a) with |h|^2 unit-mean
exponential, and the marginal SNR distribution over a random user admits
the closed form implemented by :func:`snr_cdf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import hyp1f1_ratio

SPEED_OF_LIGHT = 2.99792458e8  # m/s


def dbm_per_hz_to_watts_per_hz(value_dbm: float) -> float:
    """Convert a spectral density from dBm/Hz to linear W/Hz."""
    return 10.0 ** (value_dbm / 10.0) * 1e-3


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    if value <= 0.0:
        raise ValueError(f"linear_to_db requires a positive value, got {value}")
    return 10.0 * math.log10(value)


def _check_positive(name: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a finite positive number, got {value}")


def _check_radius(radius, pathloss_exp: float) -> None:
    """A cell radius R whose path-loss powers R^a and R^-a are finite positive floats."""
    _check_positive("cell_radius_m", radius)
    try:
        powers = (radius ** pathloss_exp, radius ** -pathloss_exp)
    except OverflowError:
        powers = (math.inf,)
    if not all(0.0 < power < math.inf for power in powers):
        raise ValueError(f"cell_radius_m {radius} at pathloss_exp {pathloss_exp} has R^a "
                         "or R^-a beyond the float range")


@dataclass(frozen=True)
class NetworkParams:
    """Cell-level constants.  All fields are linear-scale SI values."""

    num_users: int
    tx_power_w: float
    total_bandwidth_hz: float
    carrier_freq_hz: float
    noise_density_w_per_hz: float
    pathloss_exp: float
    cell_radius_m: float

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        for name in ("tx_power_w", "total_bandwidth_hz", "carrier_freq_hz",
                     "noise_density_w_per_hz"):
            _check_positive(name, getattr(self, name))
        if not (math.isfinite(self.pathloss_exp) and self.pathloss_exp >= 1.0):
            raise ValueError(f"pathloss_exp must be >= 1, got {self.pathloss_exp}")
        _check_radius(self.cell_radius_m, self.pathloss_exp)

    def with_radius(self, radius: float) -> NetworkParams:
        """These params at cell radius ``radius``, which gets the radius check;
        the other fields were checked when ``self`` was built.  A sweep makes
        one per point, so this skips ``dataclasses.replace``'s field walk."""
        _check_radius(radius, self.pathloss_exp)
        point = object.__new__(NetworkParams)
        vars(point).update(vars(self), cell_radius_m=radius)
        return point


def snr_scale(params: NetworkParams) -> float:
    """SNR scale constant c_L = L P / (N0 W) (lambda / 4 pi)^2.

    The mean received SNR at distance r is snr_scale(params) * r**(-a);
    the per-user bandwidth W/L and the L-fold power reuse fold into the
    single factor L.
    """
    wavelength = SPEED_OF_LIGHT / params.carrier_freq_hz
    return (params.num_users * params.tx_power_w
            / (params.noise_density_w_per_hz * params.total_bandwidth_hz)
            * (wavelength / (4.0 * math.pi)) ** 2)


def mean_edge_snr(params: NetworkParams) -> float:
    """Mean received SNR of a user at the cell edge, c_L R^(-a)."""
    return snr_scale(params) * params.cell_radius_m ** (-params.pathloss_exp)


def snr_cdf(y: float, params: NetworkParams) -> float:
    """CDF of the received SNR of a uniformly placed user.

    F_g(y) = 1 - 1F1(2/a; 1 + 2/a; -(y / c_L) R^a); depends on the inputs
    only through the dimensionless group (y / c_L) R^a.  It is 0 at y = 0
    and 1 where the group is infinite (y = inf, or beyond the float range).
    """
    if not y >= 0.0:
        raise ValueError(f"snr_cdf requires y >= 0, got y={y}")
    if y == 0.0:
        return 0.0
    a = params.pathloss_exp
    x = (y / snr_scale(params)) * params.cell_radius_m ** a
    return 1.0 if x == math.inf else 1.0 - hyp1f1_ratio(2.0 / a, x)
