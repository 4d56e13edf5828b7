"""Size the cell for an outage-count guarantee.

Question: how large can the cell be while keeping the probability that 3
or more of 10 users are in outage below 1e-3?  Every path-loss exponent
is solved by the same bracketed root on the level equation; under
free-space path loss the paper's Lambert-W closed form names the same
radius, printed beside it.  Shrinking the cell below the answer only
improves the guarantee.
"""

from dataclasses import replace

from semcell import (DesignTarget, NetworkParams, RateConfig, SimilarityFit,
                     binom_range_prob, dbm_per_hz_to_watts_per_hz, radius_closed_form_a2,
                     radius_for_outage_threshold, thresholds, user_outage_hybrid)

fit = SimilarityFit(a1=0.37, a2=0.98, c1=0.2525, c2=-0.7895, k=5)
cfg = RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.12)

for exponent, power in ((2.0, 1e-3), (3.0, 1.0)):
    params = NetworkParams(
        num_users=10,
        tx_power_w=power,
        total_bandwidth_hz=20e6,
        carrier_freq_hz=2.4e9,
        noise_density_w_per_hz=dbm_per_hz_to_watts_per_hz(-174.0),
        pathloss_exp=exponent,
        cell_radius_m=500.0)
    thr = thresholds(cfg, fit)
    target = DesignTarget.for_outage_cap(p_th=1e-3, count_floor=3,
                                         num_users=params.num_users)
    solution = radius_for_outage_threshold(target, thr, params)

    print(f"path-loss exponent {exponent:g}, tx power {power:g} W")
    print(f"  radius        : {solution.radius:.2f} m")
    if exponent == 2.0:
        closed = radius_closed_form_a2(thr.outage_cdf_argument(), 1.0 - target.pi_star, params)
        print(f"  closed form   : {closed:.2f} m (the paper's Lambert-W radius)")
    print(f"  residual      : {solution.residual:.2e}")
    print(f"  iterations    : {solution.iterations}")
    print(f"  pi_star level : {target.pi_star:.6e}")

    for label, scale in (("at the solution", 1.0), ("10% smaller", 0.9),
                         ("10% larger", 1.1)):
        sized = replace(params, cell_radius_m=scale * solution.radius)
        pi_h = user_outage_hybrid(thr, sized)
        prob = binom_range_prob(pi_h, params.num_users, 3, params.num_users)
        print(f"  P[3+ in outage] {label:<16}: {prob:.3e}")
    print()
