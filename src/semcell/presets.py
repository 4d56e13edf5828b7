"""Canned sweep definitions reproducing the headline result curves.

Each preset is a base-config override plus a list of labelled variants,
applied on top of the caller's config (normally :func:`table1_config`).
Grids are stored as explicit float lists so an emitted manifest replays
byte-identically.
"""

from __future__ import annotations

import copy

import numpy as np


def _lin(start: float, stop: float, points: int) -> list[float]:
    return [float(v) for v in np.linspace(start, stop, points)]


#: Default scenario: the standard simulation parameter set.
TABLE1_CONFIG = {
    "network": {
        "num_users": 30,
        "tx_power_w": 1.0,
        "total_bandwidth_hz": 2.0e7,
        "carrier_freq_hz": 2.4e9,
        "noise_density_dbm_per_hz": -174.0,
        "pathloss_exp": 3.0,
        "cell_radius_m": 500.0,
    },
    "similarity_fit": {
        "a1": 0.37,
        "a2": 0.98,
        "c1": 0.2525,
        "c2": -0.7895,
        "symbols_per_word": 5,
    },
    "rate": {
        "bit_symbols_per_word": 40,
        "ber": 1.0e-3,
        "use_capacity": False,
        "similarity_threshold": 0.75,
        "outage_rate_threshold": 0.04,
    },
    "sweep": {"axis": "radius_m", "grid": _lin(100.0, 3000.0, 30)},
    "outage_counts": {"lo": 1, "hi": None},
    "util_counts": {"lo": 1, "hi": None},
    "mc": {"samples": 0, "seed": 20260808},
}


def table1_config() -> dict:
    """Fresh deep copy of the default scenario config."""
    return copy.deepcopy(TABLE1_CONFIG)


_EDGE_SNR_GRID = _lin(10.0, 60.0, 51)
_RADIUS_GRID_A2 = _lin(100.0, 4000.0, 79)
_RADIUS_GRID_UTIL = _lin(50.0, 5000.0, 100)

#: preset name -> {"base": override dict, "variants": [(suffix, override dict), ...]}
PRESETS: dict[str, dict] = {
    # at-least-one network outage vs mean cell-edge SNR, similarity
    # threshold sweep, uncoded vs capacity-achieving bit transmission
    "fig2": {
        "base": {"sweep": {"axis": "edge_snr_db", "grid": _EDGE_SNR_GRID}},
        "variants": [
            (f"mth{int(round(100 * m_th)):03d}_{mode}",
             {"rate": {"similarity_threshold": m_th, "use_capacity": mode == "capacity"}})
            for m_th in (0.6, 0.75, 0.9)
            for mode in ("uncoded", "capacity")
        ],
    },
    # at-least-one network outage vs mean cell-edge SNR, outage rate
    # threshold sweep (the largest value saturates the semantic rate)
    "fig3": {
        "base": {"sweep": {"axis": "edge_snr_db", "grid": _EDGE_SNR_GRID}},
        "variants": [
            (f"rout{int(round(100 * r_out)):03d}",
             {"rate": {"outage_rate_threshold": r_out}})
            for r_out in (0.04, 0.12, 0.2)
        ],
    },
    # probability of 3+ users in outage vs radius under free-space loss
    # at 1 mW, for two population sizes and rate/similarity thresholds
    "fig4": {
        "base": {
            "network": {"pathloss_exp": 2.0, "tx_power_w": 1.0e-3},
            "sweep": {"axis": "radius_m", "grid": _RADIUS_GRID_A2},
            "outage_counts": {"lo": 3, "hi": None},
        },
        "variants": [
            (f"L{num_users}_rout{int(round(100 * r_out)):03d}_mth{int(round(100 * m_th)):03d}",
             {"network": {"num_users": num_users},
              "rate": {"outage_rate_threshold": r_out, "similarity_threshold": m_th}})
            for num_users in (10, 50)
            for (r_out, m_th) in ((0.12, 0.75), (0.16, 0.75), (0.12, 0.9))
        ],
    },
    # generalized outage vs radius for two outage-count floors
    "fig5": {
        "base": {
            "network": {"pathloss_exp": 2.0, "tx_power_w": 1.0e-3},
            "rate": {"outage_rate_threshold": 0.12},
            "sweep": {"axis": "radius_m", "grid": _RADIUS_GRID_A2},
        },
        "variants": [
            (f"L{num_users}_ll{count_lo}",
             {"network": {"num_users": num_users},
              "outage_counts": {"lo": count_lo, "hi": None}})
            for num_users in (10, 50)
            for count_lo in (2, 4)
        ],
    },
    # per-user semantic utilization probability vs radius
    "fig6": {
        "base": {"sweep": {"axis": "radius_m", "grid": _RADIUS_GRID_UTIL}},
        "variants": [
            (f"mth{int(round(100 * m_th)):03d}_rout{int(round(100 * r_out)):03d}",
             {"rate": {"similarity_threshold": m_th, "outage_rate_threshold": r_out}})
            for (m_th, r_out) in ((0.75, 0.04), (0.9, 0.04), (0.75, 0.12))
        ],
    },
    # probability the semantically served count lands in a range, vs radius
    "fig7": {
        "base": {"sweep": {"axis": "radius_m", "grid": _RADIUS_GRID_UTIL}},
        "variants": [
            (f"ll{count_lo}_lu{count_hi}_mth{int(round(100 * m_th)):03d}",
             {"util_counts": {"lo": count_lo, "hi": count_hi},
              "rate": {"similarity_threshold": m_th}})
            for (count_lo, count_hi, m_th) in ((5, 10, 0.75), (5, 10, 0.9), (10, 20, 0.75))
        ],
    },
}


def _overlay(base: dict, override: dict) -> dict:
    """base with override merged in recursively, sharing every value it does not merge."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = _overlay(merged[key], value)
        merged[key] = value
    return merged


def expand_preset(config: dict, preset: str) -> list[tuple[str, dict]]:
    """Resolve a preset into (label, config dict) pairs on top of config;
    each doc is one deep copy, sharing no object with config or PRESETS."""
    if preset not in PRESETS:
        raise KeyError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    spec = PRESETS[preset]
    base = _overlay(config, spec["base"])
    return [(f"{preset}_{suffix}", copy.deepcopy(_overlay(base, override)))
            for suffix, override in spec["variants"]]
