"""Pit every closed form against the simulation oracle.

The simulator draws raw placements and fading gains, evaluates each event
from the similarity curve and the two rate formulas alone (no shared
branch logic with the closed forms), and reports binomial standard
errors.  Everything should land within a few standard errors.
"""

from semcell import (BitOutage, ExactCount, HybridOutage, NetOutageMode, NetworkParams,
                     RangeCount, RateConfig, Scenario, SemOutage, SemUtilization,
                     SimilarityFit, binom_range_prob, dbm_per_hz_to_watts_per_hz,
                     estimate_many, network_outage, outage_report, thresholds)

params = NetworkParams(
    num_users=10,
    tx_power_w=1e-3,
    total_bandwidth_hz=20e6,
    carrier_freq_hz=2.4e9,
    noise_density_w_per_hz=dbm_per_hz_to_watts_per_hz(-174.0),
    pathloss_exp=2.0,
    cell_radius_m=900.0)
fit = SimilarityFit(a1=0.37, a2=0.98, c1=0.2525, c2=-0.7895, k=5)
cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)

thr = thresholds(cfg, fit)
report = outage_report(thr, params)
L = params.num_users
analytic = {
    "per-user hybrid outage": (HybridOutage(), report.pi_h),
    "per-user bit outage": (BitOutage(), report.pi_b),
    "per-user semantic outage": (SemOutage(), report.pi_s),
    "semantic utilization": (SemUtilization(), report.pi_g),
    "all users in outage": (ExactCount(L),
                            network_outage(report.pi_h, L, NetOutageMode.ALL_IN_OUTAGE)),
    "at least one in outage": (RangeCount(1, L),
                               network_outage(report.pi_h, L, NetOutageMode.AT_LEAST_ONE)),
    "3 or more in outage": (RangeCount(3, L),
                            binom_range_prob(report.pi_h, L, 3, L)),
}

n = 400_000
seed = 314159
scenario = Scenario(params, fit, cfg)
events = [event for event, _ in analytic.values()]
estimates = estimate_many(events, n, seed, [scenario])[0]

print(f"n = {n} samples, seed = {seed}")
print(f"{'quantity':<26} {'closed form':>12} {'monte carlo':>12} {'sigmas':>7}")
print("-" * 61)
for (name, (_, value)), est in zip(analytic.items(), estimates):
    if est.std_error:
        sigmas = f"{abs(value - est.estimate) / est.std_error:.2f}"
    else:
        sigmas = "-"  # zero hits: the event is (nearly) impossible here
    print(f"{name:<26} {value:>12.4e} {est.estimate:>12.4e} {sigmas:>7}")
