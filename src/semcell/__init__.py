"""Reliability analysis and cell sizing for hybrid bit/semantic cellular downlinks.

The package computes closed-form outage and semantic-utilization
probabilities for a single noise-limited cell whose users pick between
conventional bit transmission and DNN-based semantic transmission,
solves the inverse cell-radius design problems those metrics induce, and
ships a deterministic Monte Carlo oracle that validates every closed
form by direct event simulation.
"""

from .design import (DesignTarget, RadiusSolution, UtilizationDesign, UtilizationRadius,
                     exact_count_prob, optimal_sem_util_radius, radius_closed_form_a2,
                     radius_for_outage_threshold, range_count_prob_deriv)
from .linkmodel import (NetworkParams, SPEED_OF_LIGHT, db_to_linear,
                        dbm_per_hz_to_watts_per_hz, linear_to_db, mean_edge_snr,
                        snr_cdf, snr_scale)
from .montecarlo import (BitOutage, ExactCount, HybridOutage, McEstimate, RangeCount,
                         Scenario, SemOutage, SemUtilization, estimate_many, resolve_workers,
                         sample_user, user_stream)
from .outage import (NetOutageMode, OutageReport, network_outage, outage_report,
                     sem_util_prob, sem_util_prob_deriv, user_outage_bit,
                     user_outage_hybrid, user_outage_sem)
from .ratemodel import (RateConfig, RateThresholds, SimilarityFit, SolverError, bit_rate,
                        gamma_gap, inv_similarity, sem_rate, similarity, thresholds)
from .specfun import (binom_range_prob, hyp1f1_ratio, inv_reg_inc_beta_int, lambert_w0,
                      log_binomial)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # specfun
    "hyp1f1_ratio", "binom_range_prob", "inv_reg_inc_beta_int", "lambert_w0",
    "log_binomial",
    # linkmodel
    "NetworkParams", "SPEED_OF_LIGHT", "snr_scale", "snr_cdf", "mean_edge_snr",
    "db_to_linear", "linear_to_db", "dbm_per_hz_to_watts_per_hz",
    # ratemodel
    "SimilarityFit", "RateConfig", "RateThresholds", "SolverError",
    "similarity", "inv_similarity", "gamma_gap", "bit_rate", "sem_rate",
    "thresholds",
    # outage
    "NetOutageMode", "OutageReport", "user_outage_hybrid", "user_outage_bit",
    "user_outage_sem", "network_outage", "sem_util_prob",
    "sem_util_prob_deriv", "outage_report",
    # design
    "DesignTarget", "RadiusSolution", "UtilizationRadius",
    "UtilizationDesign", "radius_for_outage_threshold", "radius_closed_form_a2",
    "optimal_sem_util_radius", "exact_count_prob", "range_count_prob_deriv",
    # montecarlo
    "Scenario", "McEstimate", "BitOutage", "SemOutage", "HybridOutage",
    "SemUtilization", "ExactCount", "RangeCount", "estimate_many", "sample_user",
    "user_stream", "resolve_workers",
]
