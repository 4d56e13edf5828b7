"""Walk through the closed-form reliability metrics for one cell.

Sets up the default downlink (30 users, 20 MHz shared at 2.4 GHz, 1 W per
user, path-loss exponent 3), derives the SNR breakpoints that govern the
bit/semantic mode choice, and tabulates every outage metric as the cell
radius grows.
"""

from dataclasses import replace

from semcell import (NetOutageMode, NetworkParams, RateConfig, SimilarityFit,
                     binom_range_prob, dbm_per_hz_to_watts_per_hz, gamma_gap,
                     linear_to_db, network_outage, outage_report, snr_scale,
                     thresholds)

params = NetworkParams(
    num_users=30,
    tx_power_w=1.0,
    total_bandwidth_hz=20e6,
    carrier_freq_hz=2.4e9,
    noise_density_w_per_hz=dbm_per_hz_to_watts_per_hz(-174.0),
    pathloss_exp=3.0,
    cell_radius_m=500.0)
fit = SimilarityFit(a1=0.37, a2=0.98, c1=0.2525, c2=-0.7895, k=5)
cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04)

thr = thresholds(cfg, fit)
print("derived constants")
print(f"  snr scale c_L        : {snr_scale(params):.4e}")
print(f"  snr gap (uncoded)    : {gamma_gap(cfg):.4f}")
print(f"  qos cutoff g_min     : {thr.g_min:.4f}  ({linear_to_db(thr.g_min):.2f} dB)")
print(f"  bit cutoff g_bit     : {thr.g_bit:.4f}")
print(f"  crossover g_max      : {thr.g_max:.1f}  ({linear_to_db(thr.g_max):.2f} dB)")
print(f"  sem cutoff g_sem     : {thr.g_sem}  (absent: k*r_out below the similarity floor)")
print(f"  hybrid outage        : [0, y_h], y_h = {thr.outage_cdf_argument():.4f}")
print()

header = f"{'R [m]':>7} {'pi_h':>10} {'pi_b':>10} {'pi_s':>10} {'net any':>10} {'P[3+ out]':>10}"
print(header)
print("-" * len(header))
for radius in (200, 400, 600, 800, 1200, 1600, 2400):
    report = outage_report(thr, replace(params, cell_radius_m=float(radius)))
    net_any = network_outage(report.pi_h, params.num_users, NetOutageMode.AT_LEAST_ONE)
    three_plus = binom_range_prob(report.pi_h, params.num_users, 3, params.num_users)
    print(f"{radius:>7} {report.pi_h:>10.3e} {report.pi_b:>10.3e} "
          f"{report.pi_s:>10.3e} {net_any:>10.3e} {three_plus:>10.3e}")

print()
print("the hybrid column is the smaller pure-mode column: a hybrid user takes the")
print("better of the two rates wherever the semantic QoS holds, so its rate never")
print("falls as the SNR grows, its outage event is [0, y_h] and F(y_h) = min(pi_b, pi_s).")
