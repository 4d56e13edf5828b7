"""Correctness checks of the benchmark, independent of the program's branch logic.

Every check reads what the program emitted (CSV files, printed lines,
returned radii) and recomputes the expected numbers with scipy from the
scenario the benchmark handed in:

* the per-user events are rebuilt from the raw rate curves as a set of
  SNR intervals whose edges are found by root bracketing (no breakpoint
  formula or regime table of the program is used), and each interval is
  weighted by the SNR distribution P[g > y] = 1F1(2/a; 1 + 2/a; -y R^a / c_L)
  evaluated with ``scipy.special.hyp1f1``;
* count probabilities come from ``scipy.stats.binom``;
* Monte Carlo columns are scored against the closed form as the null
  hypothesis (score statistic z = (p_hat - p) / sqrt(p (1 - p) / n)); the
  verdict uses the exact binomial tail of the observed hit count under
  that null, with one Bonferroni bound over every estimate of a run, so a
  p_hat of exactly 0 or 1 is judged on its probability rather than on a
  vanishing standard error, and rare events (n p of order one, where the
  normal approximation behind z fails) do not raise false alarms.

Each check returns a list of human-readable failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize, special, stats

METRICS = ("pi_h", "pi_b", "pi_s", "net_all", "net_any", "s_range", "pi_g", "util_range")

#: |program - reference| <= REL_TOL * |reference| + ABS_TOL for every
#: closed-form column.  Both sides carry ~1e-15 absolute error from the
#: SNR-distribution terms.  The largest relative difference seen across
#: the presets and the axis sweeps is 3.3e-10 (``s_range`` near 3e-5 in
#: fig2, where the program sums the binomial range in log space); the
#: bound leaves a factor 30 above it.
REL_TOL = 1e-8
ABS_TOL = 1e-13

#: Family-wise false-alarm probability of one run's Monte Carlo checks.
MC_FAMILY_ALPHA = 1e-6

_SPEED_OF_LIGHT = 2.99792458e8
_LOG_G_RANGE = (math.log(1e-20), math.log(1e30))
_SCAN_POINTS = 4000

REFERENCE_DIGESTS = Path(__file__).with_name("reference_csv.json")


# ---------------------------------------------------------------------------
# reference model
# ---------------------------------------------------------------------------

class ReferenceScenario:
    """Plain numbers of one scenario, read from a config document."""

    def __init__(self, doc: dict):
        net, fit, rate = doc["network"], doc["similarity_fit"], doc["rate"]
        self.num_users = int(net["num_users"])
        if "noise_density_dbm_per_hz" in net:
            noise = 10.0 ** (net["noise_density_dbm_per_hz"] / 10.0) * 1e-3
        else:
            noise = net["noise_density_w_per_hz"]
        wavelength = _SPEED_OF_LIGHT / net["carrier_freq_hz"]
        self.snr_scale = (self.num_users * net["tx_power_w"] / (noise * net["total_bandwidth_hz"])
                          * (wavelength / (4.0 * math.pi)) ** 2)
        self.pathloss_exp = float(net["pathloss_exp"])
        self.radius = float(net["cell_radius_m"])
        self.a1, self.a2 = fit["a1"], fit["a2"]
        self.c1, self.c2 = fit["c1"], fit["c2"]
        self.k = fit["symbols_per_word"]
        self.mu = rate["bit_symbols_per_word"]
        self.m_th = rate["similarity_threshold"]
        self.r_out = rate["outage_rate_threshold"]
        self.info = rate.get("info_per_word", 1.0)
        self.gap = 1.0 if rate.get("use_capacity", False) else max(
            1.0, -math.log(5.0 * rate["ber"]) / 1.5)

    def curves(self, g):
        """(similarity, semantic rate, bit rate) at linear SNR g."""
        m = self.a1 + (self.a2 - self.a1) * special.expit(
            self.c1 * 10.0 * np.log10(g) + self.c2)
        return m, self.info * m / self.k, self.info * np.log2(1.0 + g / self.gap) / self.mu

    def indicator(self, event: str, g):
        """Per-user event at SNR g, straight from its definition."""
        m, r_sem, r_bit = self.curves(g)
        prefers_sem = (m >= self.m_th) & (r_sem >= r_bit)
        if event == "pi_b":
            return r_bit <= self.r_out
        if event == "pi_s":
            return (r_sem <= self.r_out) | (m <= self.m_th)
        if event == "pi_h":
            return np.where(prefers_sem, r_sem <= self.r_out, r_bit <= self.r_out)
        if event == "pi_g":
            return prefers_sem & (r_sem > self.r_out)
        raise ValueError(f"unknown per-user event {event!r}")

    def edges(self) -> list[float]:
        """Every SNR where one of the event comparisons changes sign."""
        def comparisons(t):
            m, r_sem, r_bit = self.curves(np.exp(t))
            return np.array([r_bit - self.r_out, m - self.m_th,
                             r_sem - self.r_out, r_sem - r_bit])

        grid = np.linspace(*_LOG_G_RANGE, _SCAN_POINTS)
        values = comparisons(grid)
        roots = []
        for row, vals in enumerate(values):
            sign = np.sign(vals)
            for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
                root = optimize.brentq(lambda t: comparisons(t)[row], grid[i], grid[i + 1],
                                       xtol=1e-15, rtol=8.9e-16)
                roots.append(math.exp(root))
            roots.extend(math.exp(t) for t in grid[sign == 0.0])
        return sorted(set(roots))

    def intervals(self, event: str, edges: list[float]) -> list[tuple[float, float]]:
        """The event as disjoint SNR intervals [lo, hi] (hi may be inf)."""
        bounds = [0.0, *edges, math.inf]
        out: list[tuple[float, float]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            probe = (hi * 1e-3 if lo == 0.0 else lo * 1e3 if hi == math.inf
                     else math.sqrt(lo * hi))
            if bool(self.indicator(event, probe)):
                if out and out[-1][1] == lo:
                    out[-1] = (out[-1][0], hi)
                else:
                    out.append((lo, hi))
        return out

    def survival(self, y, radius):
        """P[g > y] for a uniformly placed user in a cell of the given radius."""
        s = 2.0 / self.pathloss_exp
        y = np.asarray(y, dtype=float)
        x = np.where(np.isinf(y), 0.0, y) * np.asarray(radius) ** self.pathloss_exp / self.snr_scale
        return np.where(np.isinf(y), 0.0, special.hyp1f1(s, s + 1.0, -x))

    def prob(self, intervals, radius):
        """Probability of an interval set at one radius or an array of radii."""
        total = np.zeros(np.shape(radius))
        for lo, hi in intervals:
            total = total + self.survival(lo, radius) - self.survival(hi, radius)
        return np.clip(total, 0.0, 1.0)


def binom_range(p, n: int, lo: int, hi: int):
    """P[lo <= Binomial(n, p) <= hi], from whichever tail is better conditioned."""
    p = np.asarray(p, dtype=float)
    below = stats.binom.cdf(hi, n, p) - stats.binom.cdf(lo - 1, n, p)
    above = stats.binom.sf(lo - 1, n, p) - stats.binom.sf(hi, n, p)
    return np.where(stats.binom.cdf(lo - 1, n, p) < 0.5, below, above)


def _counts(doc: dict, key: str, num_users: int) -> tuple[int, int]:
    sec = doc.get(key) or {}
    lo = sec.get("lo", 1)
    hi = sec.get("hi")
    return lo, num_users if hi is None else hi


def reference_rows(doc: dict) -> list[dict[str, float]]:
    """Every closed-form column of a sweep, recomputed from its config."""
    sweep = doc["sweep"]
    axis, grid = sweep["axis"], [float(v) for v in sweep["grid"]]
    out_lo, out_hi = _counts(doc, "outage_counts", doc["network"]["num_users"])
    util_lo, util_hi = _counts(doc, "util_counts", doc["network"]["num_users"])
    rows = []
    shared = None
    for value in grid:
        point = json.loads(json.dumps(doc))
        if axis == "m_th":
            point["rate"]["similarity_threshold"] = value
        elif axis == "r_out":
            point["rate"]["outage_rate_threshold"] = value
        sc = ReferenceScenario(point)
        if axis == "radius_m":
            radius = value
        elif axis == "edge_snr_db":
            radius = (sc.snr_scale / 10.0 ** (value / 10.0)) ** (1.0 / sc.pathloss_exp)
        else:
            radius = sc.radius
        if shared is None or axis in ("m_th", "r_out"):
            edges = sc.edges()
            shared = {e: sc.intervals(e, edges) for e in ("pi_h", "pi_b", "pi_s", "pi_g")}
        row = {"axis_value": value}
        for event, ivals in shared.items():
            row[event] = float(sc.prob(ivals, radius))
        L, pi_h = sc.num_users, row["pi_h"]
        row["net_all"] = pi_h ** L
        row["net_any"] = -math.expm1(L * math.log1p(-pi_h)) if pi_h < 1.0 else 1.0
        row["s_range"] = float(binom_range(pi_h, L, out_lo, out_hi))
        row["util_range"] = float(binom_range(row["pi_g"], L, util_lo, util_hi))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# CSV checks
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[dict[str, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_reference_bytes(path: Path) -> list[str]:
    """A regenerated reference CSV must equal the committed one byte for byte.

    The committed CSVs under ``demos/output/`` are pinned by SHA-256 in
    ``reference_csv.json``, so the check needs only the benchmark's files.
    """
    digests = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    expected = digests.get(path.name)
    if expected is None:
        return [f"{path.name}: no pinned reference digest"]
    if sha256(path) != expected:
        return [f"{path.name}: bytes differ from the committed reference CSV"]
    return []


def check_closed_form_csv(path: Path, doc: dict) -> list[str]:
    """Every closed-form column of a sweep CSV against the scipy recomputation."""
    rows = read_csv(path)
    expected = reference_rows(doc)
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} rows, expected {len(expected)}"]
    errors = []
    for got, want in zip(rows, expected):
        if got["axis_value"] != want["axis_value"]:
            errors.append(f"{path.name}: axis value {got['axis_value']} != {want['axis_value']}")
            continue
        for name in METRICS:
            if not abs(got[name] - want[name]) <= REL_TOL * abs(want[name]) + ABS_TOL:
                errors.append(f"{path.name} @ {got['axis_value']}: {name}={got[name]!r}, "
                              f"scipy reference {want[name]!r}")
    return errors


# ---------------------------------------------------------------------------
# Monte Carlo score test
# ---------------------------------------------------------------------------

def score_z(p_hat: float, p: float, n: int) -> float:
    """Score statistic with the closed form p as the null; 0 when p_hat == p."""
    if p_hat == p:
        return 0.0
    var = p * (1.0 - p) / n
    return math.copysign(math.inf, p_hat - p) if var == 0.0 else (p_hat - p) / math.sqrt(var)


def binom_two_sided(hits: int, n: int, p: float) -> float:
    """Exact two-sided tail probability of ``hits`` under Binomial(n, p)."""
    lower = float(stats.binom.cdf(hits, n, p))
    upper = float(stats.binom.sf(hits - 1, n, p))
    return min(1.0, 2.0 * min(lower, upper))


def check_mc(estimates: list[tuple[str, float, float, int]],
             family_alpha: float = MC_FAMILY_ALPHA) -> tuple[list[str], float]:
    """Score (label, p_hat, p_closed_form, n) tuples under one Bonferroni bound.

    Returns the failure messages and the largest |z| seen.
    """
    bound = family_alpha / max(1, len(estimates))
    errors, max_z = [], 0.0
    for label, p_hat, p, n in estimates:
        z = score_z(p_hat, p, n)
        max_z = max(max_z, abs(z))
        tail = binom_two_sided(round(p_hat * n), n, p)
        if tail < bound:
            errors.append(f"{label}: mc={p_hat!r} vs closed form {p!r} at n={n}: "
                          f"z={z:.3g}, exact tail {tail:.3g} < {bound:.3g}")
    return errors, max_z


def mc_csv_estimates(path: Path, n: int) -> list[tuple[str, float, float, int]]:
    """(label, MC estimate, closed form, n) for every MC column of a sweep CSV."""
    return [(f"{path.name} @ {row['axis_value']}: {name}", row[f"mc_{name}"], row[name], n)
            for row in read_csv(path) for name in METRICS]


# ---------------------------------------------------------------------------
# design checks
# ---------------------------------------------------------------------------

#: The radius solver stops once the Kummer-ratio level is within 1e-9 of
#: its target; the per-user outage probability at the returned radius may
#: therefore miss the cap's per-user level by that much, plus rounding.
RADIUS_PI_TOL = 2e-9
#: Relative step to the neighbours the best utilization radius must beat.
NEIGHBOUR_STEP = 1e-3


def check_outage_radius(doc: dict, p_th: float, count_floor: int, radius: float) -> list[str]:
    """At the returned radius, P[count_floor+ users in outage] meets p_th, with equality."""
    sc = ReferenceScenario(doc)
    L = sc.num_users
    pi_star = float(special.betaincinv(count_floor, L - count_floor + 1, p_th))
    pi_h = float(sc.prob(sc.intervals("pi_h", sc.edges()), radius))
    if not abs(pi_h - pi_star) <= RADIUS_PI_TOL:
        tail = float(stats.binom.sf(count_floor - 1, L, pi_h))
        return [f"outage radius {radius!r}: P[>= {count_floor} of {L} in outage] = {tail!r}, "
                f"target {p_th!r} (per-user {pi_h!r} vs {pi_star!r})"]
    return []


def check_util_radius(doc: dict, count_lo: int, count_hi: int,
                      radius: float | None) -> list[str]:
    """The best utilization radius beats both neighbours; none only if no window exists."""
    sc = ReferenceScenario(doc)
    util = sc.intervals("pi_g", sc.edges())
    if radius is None:
        return [] if not util else ["utilization design returned no radius although "
                                    "the semantic-utilization event is not empty"]
    radii = np.array([radius * (1.0 - NEIGHBOUR_STEP), radius, radius * (1.0 + NEIGHBOUR_STEP)])
    f = binom_range(sc.prob(util, radii), sc.num_users, count_lo, count_hi)
    if not f[1] >= max(f[0], f[2]) - 1e-12:
        return [f"utilization radius {radius!r}: range probability {f[1]!r} below a "
                f"neighbour ({f[0]!r}, {f[2]!r})"]
    return []
