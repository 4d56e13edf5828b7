"""Scenario runner and validation command line.

``semcell run`` sweeps one axis of a JSON-configured scenario and writes
a CSV of every closed-form metric (optionally with Monte Carlo
estimates) plus a manifest that replays the run byte-identically.
``semcell validate`` pits the closed forms against the simulation oracle
at the configured operating point.  ``semcell design`` exposes the two
radius solvers.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 validation
mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache
from pathlib import Path
from statistics import NormalDist
from typing import get_type_hints

import numpy as np

from . import __version__
from .design import DesignTarget, optimal_sem_util_radius, radius_for_outage_threshold
from .linkmodel import (NetworkParams, db_to_linear, dbm_per_hz_to_watts_per_hz,
                        linear_to_db, mean_edge_snr, snr_scale)
from .montecarlo import (SEED_LIMIT, BitOutage, ExactCount, HybridOutage, RangeCount,
                         Scenario, SemOutage, SemUtilization, estimate_many)
from .outage import NetOutageMode, binom_range_prob, network_outage, outage_report
from .presets import PRESETS, expand_preset
from .ratemodel import (RateConfig, RateThresholds, SimilarityFit, gamma_gap,
                        rate_crossing_bracket, semantic_edges, thresholds)
from .specfun import kernel_scope

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

_METRICS = ("pi_h", "pi_b", "pi_s", "net_all", "net_any", "s_range", "pi_g", "util_range")
# validate: one Bonferroni bound on the score statistic for the whole family
_FAMILY_ALPHA = 1e-3
_Z_BOUND = NormalDist().inv_cdf(1.0 - _FAMILY_ALPHA / (2 * len(_METRICS)))
_SWEEP_AXES = ("edge_snr_db", "radius_m", "m_th", "r_out")
_MAX_POINTS = 10**6  # sweep.points, checked before the grid is allocated


class ConfigError(ValueError):
    """A config document failed validation; the message carries the field path."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved sweep: scenario, axis, grid, count ranges, MC plan."""

    scenario: Scenario
    sweep_axis: str
    grid: tuple[float, ...]
    outage_lo: int
    outage_hi: int
    util_lo: int
    util_hi: int
    mc_samples: int
    mc_seed: int
    label: str


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

# JSON names of the schema fields whose config key is not the field name
_JSON_NAMES = {"k": "symbols_per_word", "mu": "bit_symbols_per_word",
               "m_th": "similarity_threshold", "r_out": "outage_rate_threshold"}
_KINDS = {bool: "true/false", int: "an integer within the float range", float: "a finite number"}
# the config sections are these dataclasses: (field, JSON key, type, default) per field
_SCHEMA = {cls: [(f.name, _JSON_NAMES.get(f.name, f.name), get_type_hints(cls)[f.name], f.default)
                 for f in fields(cls)]
           for cls in (NetworkParams, SimilarityFit, RateConfig)}
# the keys each config section may hold; the root's keys are the sections
_SECTION_KEYS = {
    "network": {"noise_density_dbm_per_hz", *(key for _, key, _, _ in _SCHEMA[NetworkParams])},
    "similarity_fit": {key for _, key, _, _ in _SCHEMA[SimilarityFit]},
    "rate": {key for _, key, _, _ in _SCHEMA[RateConfig]},
    "sweep": {"axis", "grid", "start", "stop", "points"},
    "outage_counts": {"lo", "hi"}, "util_counts": {"lo", "hi"}, "mc": {"samples", "seed"},
}


def _check_keys(doc: dict) -> None:
    """Reject, by its path, a key no section defines: a typo must not fall back to a default."""
    for key, section in doc.items():
        if key not in _SECTION_KEYS:
            raise ConfigError(f"{key}: unknown field")
        for name in section if isinstance(section, dict) else ():
            if name not in _SECTION_KEYS[key]:
                raise ConfigError(f"{key}.{name}: unknown field")


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key)
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: required object is missing or not a JSON object")
    return value


def _value(value, kind: type, path: str):
    """One JSON value checked against a field type: a number lies within the
    float range, and a float field comes back as a float."""
    ok = (isinstance(value, bool) == (kind is bool)
          and isinstance(value, (int, float) if kind is float else kind))
    if ok and kind is not bool:
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            ok = False
        else:
            ok = math.isfinite(number)
            value = number if kind is float else value
    if not ok:
        raise ConfigError(f"{path}: expected {_KINDS[kind]}, got {value!r}")
    return value


def _get(section: dict, path: str, key: str, kind: type, default=MISSING):
    if key in section:
        return _value(section[key], kind, f"{path}.{key}")
    if default is MISSING:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return default


def _read_fields(cls, path: str, section: dict):
    """One dataclass from a config section, field by field, with its defaults."""
    kwargs = {name: _get(section, path, key, kind, default)
              for name, key, kind, default in _SCHEMA[cls]}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _noise_in_watts(sec: dict) -> dict:
    """The network section with its noise density given in W/Hz."""
    if "noise_density_dbm_per_hz" not in sec:
        return sec
    if "noise_density_w_per_hz" in sec:
        raise ConfigError("network: give noise density either in dBm/Hz or W/Hz, not both")
    try:
        noise = dbm_per_hz_to_watts_per_hz(
            _get(sec, "network", "noise_density_dbm_per_hz", float))
    except OverflowError as exc:
        raise ConfigError(f"network.noise_density_dbm_per_hz: {exc}") from exc
    return {**sec, "noise_density_w_per_hz": noise}


def _edge_radius(params: NetworkParams, snr_db: float) -> float:
    """Cell radius whose mean edge SNR is ``snr_db``: (c_L / SNR)^(1/a)."""
    return (snr_scale(params) / db_to_linear(snr_db)) ** (1.0 / params.pathloss_exp)


def _parse_sweep(doc: dict) -> tuple[str, tuple[float, ...]]:
    sec = _section(doc, "sweep")
    axis = sec.get("axis")
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep.axis: expected one of {_SWEEP_AXES}, got {axis!r}")
    if "grid" in sec:
        raw = sec["grid"]
        if not isinstance(raw, list) or len(raw) < 1:
            raise ConfigError("sweep.grid: expected a non-empty list of numbers")
        grid = [_value(value, float, f"sweep.grid[{i}]") for i, value in enumerate(raw)]
    else:
        start = _get(sec, "sweep", "start", float)
        stop = _get(sec, "sweep", "stop", float)
        points = _get(sec, "sweep", "points", int)
        if not 1 <= points <= _MAX_POINTS:
            raise ConfigError(f"sweep.points: must lie in [1, {_MAX_POINTS}], got {points}")
        grid = [float(v) for v in np.linspace(start, stop, points)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep.grid: values must be strictly increasing")
    return axis, tuple(grid)


def _parse_counts(doc: dict, key: str, num_users: int) -> tuple[int, int]:
    sec = doc.get(key)
    if sec is None:
        return 1, num_users
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: expected a JSON object")
    lo = _get(sec, key, "lo", int, 1)
    hi = num_users if sec.get("hi") is None else _get(sec, key, "hi", int)
    if not (0 <= lo <= hi <= num_users):
        raise ConfigError(f"{key}: need 0 <= lo <= hi <= num_users={num_users}, got ({lo}, {hi})")
    return lo, hi


def _check_seed(seed: int, path: str) -> int:
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"{path}: must lie in [0, 2^64), got {seed}")
    return seed


def parse_scenario_config(doc: dict, label: str = "run") -> ScenarioConfig:
    """Validate a config dict into a resolved ScenarioConfig.

    A config without ``sweep`` is the one point at ``network.cell_radius_m``.
    The grid is checked by building its first and last points with
    ``_point_state``; a value that builds no point is a ConfigError naming
    ``sweep.grid[i]``, and a failed ``g_max`` solve stays a SolverError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    _check_keys(doc)
    params = _read_fields(NetworkParams, "network", _noise_in_watts(_section(doc, "network")))
    fit = _read_fields(SimilarityFit, "similarity_fit", _section(doc, "similarity_fit"))
    cfg = _read_fields(RateConfig, "rate", _section(doc, "rate"))
    if not (fit.a1 < cfg.m_th < fit.a2):
        raise ConfigError(
            f"rate.similarity_threshold: {cfg.m_th} must lie strictly inside "
            f"the fit asymptotes ({fit.a1}, {fit.a2})")
    # g_min, the semantic outage edge and the rate-crossing bracket read two sections, so
    # no section's own check covers them; on the m_th and r_out axes the grid's ends, built
    # below, check the first two
    try:
        semantic_edges(cfg, fit)
    except ValueError as exc:
        raise ConfigError(f"similarity_fit: {exc}") from exc
    try:
        rate_crossing_bracket(cfg.mu, fit, gamma_gap(cfg))
    except ValueError as exc:
        raise ConfigError(f"rate: {exc}") from exc
    if "sweep" in doc:
        axis, grid = _parse_sweep(doc)
    else:
        axis, grid = "radius_m", (params.cell_radius_m,)
    outage_lo, outage_hi = _parse_counts(doc, "outage_counts", params.num_users)
    util_lo, util_hi = _parse_counts(doc, "util_counts", params.num_users)
    mc = doc.get("mc", {})
    if not isinstance(mc, dict):
        raise ConfigError("mc: expected a JSON object")
    samples = _get(mc, "mc", "samples", int, 0)
    if samples < 0:
        raise ConfigError(f"mc.samples: must be >= 0, got {samples}")
    seed = _check_seed(_get(mc, "mc", "seed", int, 0), "mc.seed")
    sc = ScenarioConfig(
        scenario=Scenario(params=params, fit=fit, cfg=cfg),
        sweep_axis=axis, grid=grid,
        outage_lo=outage_lo, outage_hi=outage_hi,
        util_lo=util_lo, util_hi=util_hi,
        mc_samples=samples, mc_seed=seed, label=label)
    # every check a point passes is monotone along its axis, so the ends cover the grid
    for i in sorted({0, len(grid) - 1}):
        try:
            _point_state(sc, grid[i], None)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:  # not a SolverError
            raise ConfigError(
                f"sweep.grid[{i}]: {axis} = {grid[i]!r} gives no point: {exc}") from exc
    return sc


def _json_fields(obj) -> dict:
    return {key: getattr(obj, name) for name, key, _, _ in _SCHEMA[type(obj)]}


def scenario_config_dict(sc: ScenarioConfig) -> dict:
    """Canonical config dict of a resolved scenario (manifest payload)."""
    return {
        "network": _json_fields(sc.scenario.params),
        "similarity_fit": _json_fields(sc.scenario.fit),
        "rate": _json_fields(sc.scenario.cfg),
        "sweep": {"axis": sc.sweep_axis, "grid": list(sc.grid)},
        "outage_counts": {"lo": sc.outage_lo, "hi": sc.outage_hi},
        "util_counts": {"lo": sc.util_lo, "hi": sc.util_hi},
        "mc": {"samples": sc.mc_samples, "seed": sc.mc_seed},
    }


def load_config(path: str | Path) -> tuple[dict, str, str | None]:
    """Load a config document with the label and preset a run of it takes:
    a manifest is unwrapped to its config and keeps its own label and preset,
    any other config takes its file stem and no preset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    label, preset = Path(path).stem, None
    if isinstance(doc, dict) and doc.get("kind") == "semcell-manifest" and "config" in doc:
        doc, label, preset = doc["config"], doc.get("label"), doc.get("preset")
        if not (isinstance(label, str) and label and Path(label).name == label):
            raise ConfigError(f"label of manifest {path}: expected a file name, got {label!r}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config root of {path}: expected a JSON object")
    return doc, label, preset


# ---------------------------------------------------------------------------
# sweep evaluation
# ---------------------------------------------------------------------------

def _point_state(sc: ScenarioConfig, axis_value: float, thr: RateThresholds | None):
    """Scenario (params, cfg, thresholds) at one grid point, given the thresholds
    ``thr`` of the sweep's own config: kept on the radius axes, the point's
    own on the ``m_th`` and ``r_out`` axes, which are ``RateConfig`` fields.

    The only code that knows the sweep axes.  A value that builds no point
    raises ValueError, OverflowError or ZeroDivisionError;
    ``parse_scenario_config`` builds the grid's two ends with ``thr=None``
    and reports such a value as a config error naming ``sweep.grid[i]``.
    """
    params = sc.scenario.params
    if sc.sweep_axis == "radius_m":
        return params.with_radius(axis_value), sc.scenario.cfg, thr
    if sc.sweep_axis == "edge_snr_db":
        return params.with_radius(_edge_radius(params, axis_value)), sc.scenario.cfg, thr
    cfg = replace(sc.scenario.cfg, **{sc.sweep_axis: axis_value})
    return params, cfg, thresholds(cfg, sc.scenario.fit)


_MC_EVENTS = {
    "pi_h": lambda sc: HybridOutage(),
    "pi_b": lambda sc: BitOutage(),
    "pi_s": lambda sc: SemOutage(),
    "net_all": lambda sc: ExactCount(sc.scenario.params.num_users),
    "net_any": lambda sc: RangeCount(1, sc.scenario.params.num_users),
    "s_range": lambda sc: RangeCount(sc.outage_lo, sc.outage_hi),
    "pi_g": lambda sc: SemUtilization(),
    "util_range": lambda sc: RangeCount(sc.util_lo, sc.util_hi, indicator=SemUtilization()),
}


def _analytic_row(sc: ScenarioConfig, axis_value: float, params: NetworkParams,
                  thr: RateThresholds) -> dict[str, float]:
    """Closed-form metric columns at one grid point."""
    report = outage_report(thr, params)
    num_users = params.num_users
    return {
        "axis_value": axis_value,
        "pi_h": report.pi_h,
        "pi_b": report.pi_b,
        "pi_s": report.pi_s,
        "net_all": network_outage(report.pi_h, num_users, NetOutageMode.ALL_IN_OUTAGE),
        "net_any": network_outage(report.pi_h, num_users, NetOutageMode.AT_LEAST_ONE),
        "s_range": binom_range_prob(report.pi_h, num_users, sc.outage_lo, sc.outage_hi),
        "pi_g": report.pi_g,
        "util_range": binom_range_prob(report.pi_g, num_users, sc.util_lo, sc.util_hi),
    }


def evaluate_sweep(sc: ScenarioConfig) -> list[dict[str, float]]:
    """Rows for every grid point, in axis order: the CSV columns, analytic
    and, with Monte Carlo samples, each metric's estimate and standard error.

    ``_point_state`` builds every point; ``parse_scenario_config`` built
    the grid's two ends with it, so no point of a parsed config fails to
    build.  The sweep's thresholds are computed once and serve every point on the
    radius axes; on the m_th and r_out axes each point takes its own,
    which rebuilds only the closed-form edges, since no axis moves g_max
    and its solve is memoized.  The points share one kernel scope, so
    each distinct Kummer and binomial-tail argument is evaluated once per
    sweep, or once per caller's scope when one is open (``semcell run``
    opens one around a preset's variants).  One Monte Carlo call covers
    the whole grid, so every point reuses the same channel draws.
    """
    fit = sc.scenario.fit
    thr = thresholds(sc.scenario.cfg, fit)
    states = [_point_state(sc, value, thr) for value in sc.grid]
    with kernel_scope():
        rows = [_analytic_row(sc, value, params, point_thr)
                for value, (params, _, point_thr) in zip(sc.grid, states)]
    if sc.mc_samples > 0:
        scenarios = [Scenario(params=params, fit=fit, cfg=cfg) for params, cfg, _ in states]
        events = [_MC_EVENTS[name](sc) for name in _METRICS]
        estimates = estimate_many(events, sc.mc_samples, sc.mc_seed, scenarios)
        for row, point_estimates in zip(rows, estimates):
            for name, est in zip(_METRICS, point_estimates):
                row[f"mc_{name}"] = est.estimate
                row[f"mc_{name}_stderr"] = est.std_error
    return rows


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_csv(path: Path, rows: list[dict[str, float]]) -> None:
    """One CSV line per row, with the rows' keys as the columns."""
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(row[c])) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def derived_constants(sc: ScenarioConfig) -> dict:
    """Derived quantities recorded in the manifest for the nominal config: the
    edge y of the hybrid outage event [0, y] and the utilization window, both finite."""
    params, cfg = sc.scenario.params, sc.scenario.cfg
    thr = thresholds(cfg, sc.scenario.fit)
    return {
        "snr_scale": snr_scale(params),
        "snr_gap": gamma_gap(cfg),
        "g_min": thr.g_min,
        "g_max": thr.g_max,
        "g_bit": thr.g_bit,
        "g_sem": thr.g_sem,
        "hybrid_outage_edge": thr.outage_cdf_argument(),
        "utilization_window": thr.utilization_window(),
        "mean_edge_snr_db": linear_to_db(mean_edge_snr(params)),
    }


def write_manifest(path: Path, sc: ScenarioConfig, preset: str | None) -> None:
    manifest = {
        "kind": "semcell-manifest",
        "label": sc.label,
        "preset": preset,
        "config": scenario_config_dict(sc),
        "derived": derived_constants(sc),
        "versions": {
            "semcell": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def run_scenario(sc: ScenarioConfig, out_dir: str | Path, preset: str | None = None,
                 rows: list[dict[str, float]] | None = None) -> tuple[Path, Path]:
    """Evaluate one sweep unless ``rows`` holds it, then make ``out_dir`` and write its
    CSV and manifest; returns the paths.  A sweep that fails leaves nothing behind,
    and an OSError making ``out_dir`` or writing into it is a ConfigError."""
    rows = evaluate_sweep(sc) if rows is None else rows
    out = Path(out_dir)
    csv_path = out / f"{sc.label}.csv"
    manifest_path = out / f"{sc.label}.manifest.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_csv(csv_path, rows)
        write_manifest(manifest_path, sc, preset=preset)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}") from exc
    return csv_path, manifest_path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _mc_overrides(args) -> dict:
    """The ScenarioConfig fields that --mc-samples and --seed set."""
    if args.mc_samples is not None and args.mc_samples < 0:
        raise ConfigError(f"--mc-samples: must be >= 0, got {args.mc_samples}")
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
    return {name: value for name, value in (("mc_samples", args.mc_samples),
                                            ("mc_seed", args.seed)) if value is not None}


def _cmd_run(args) -> int:
    doc, label, preset = load_config(args.config)
    overrides = _mc_overrides(args)
    if args.preset:
        preset = args.preset
        labelled = expand_preset(doc, preset)
    else:
        labelled = [(label, doc)]
    with kernel_scope():  # a preset's variants share its grid, c_L and most breakpoints
        # every variant is parsed and evaluated before --out is made: a failure writes nothing
        configs = [replace(parse_scenario_config(d, label=lb), **overrides) for lb, d in labelled]
        for sc, rows in [(sc, evaluate_sweep(sc)) for sc in configs]:
            csv_path, manifest_path = run_scenario(sc, args.out, preset=preset, rows=rows)
            print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def _configured_point(args, label: str) -> ScenarioConfig:
    """The config's one point at its radius and thresholds; its sweep is not read."""
    doc, _, _ = load_config(args.config)
    return parse_scenario_config({key: doc[key] for key in doc if key != "sweep"}, label=label)


def _cmd_validate(args) -> int:
    sc = replace(_configured_point(args, "validate"), **_mc_overrides(args))
    samples = sc.mc_samples if sc.mc_samples > 0 else 1_000_000
    row = evaluate_sweep(replace(sc, mc_samples=samples))[0]
    failures = 0
    print(f"closed form vs Monte Carlo at n={samples} (score test, |z| <= {_Z_BOUND:.3f}: "
          f"family-wise alpha {_FAMILY_ALPHA:g} over {len(_METRICS)} metrics)")
    if samples < 10_000:
        print("  low precision: fewer than 10^4 samples")
    for name in _METRICS:
        analytic = row[name]
        mc_value = row[f"mc_{name}"]
        z = _score_z(mc_value, analytic, samples)
        ok = abs(z) <= _Z_BOUND
        failures += 0 if ok else 1
        print(f"  {name:>10}: analytic={analytic:.6e} mc={mc_value:.6e} "
              f"stderr={row[f'mc_{name}_stderr']:.2e} {'ok' if ok else 'MISMATCH'}")
        print(f"  {'':>10}  z={z:+.3g}")
        expected = samples * min(analytic, 1.0 - analytic)
        if expected < 1.0:
            print(f"  {'':>10}  uninformative: n min(p, 1-p) = {expected:.3g} < 1")
    if failures:
        print(f"{failures} metric(s) outside |z| <= {_Z_BOUND:.3f}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _score_z(p_hat: float, p: float, n: int) -> float:
    """Score statistic (p_hat - p) / sqrt(p (1 - p) / n) with the closed form p
    as the null (Wilson 1927); infinite when p is 0 or 1 and p_hat differs."""
    if p in (0.0, 1.0):
        return 0.0 if p_hat == p else math.copysign(math.inf, p_hat - p)
    return (p_hat - p) / (math.sqrt(p) * math.sqrt((1.0 - p) / n))  # no underflow at tiny p


def _cmd_design_radius(args) -> int:
    sc = _configured_point(args, "design")
    params, fit, cfg = sc.scenario.params, sc.scenario.fit, sc.scenario.cfg
    if not (0.0 < args.pth < 1.0):
        raise ConfigError(f"--pth must lie in (0, 1), got {args.pth}")
    if not (1 <= args.ll <= params.num_users):
        raise ConfigError(f"--ll must lie in [1, {params.num_users}], got {args.ll}")
    thr = thresholds(cfg, fit)
    target = DesignTarget.for_outage_cap(args.pth, args.ll, params.num_users)
    solution = radius_for_outage_threshold(target, thr, params)
    print(json.dumps({
        "radius_m": solution.radius,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "pi_star": target.pi_star,
        "y_th": thr.outage_cdf_argument(),
    }, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_design_util(args) -> int:
    sc = _configured_point(args, "design")
    params, fit, cfg = sc.scenario.params, sc.scenario.fit, sc.scenario.cfg
    if not (0 <= args.ll <= args.lu <= params.num_users):
        raise ConfigError(
            f"need 0 <= --ll <= --lu <= num_users={params.num_users}, got ({args.ll}, {args.lu})")
    thr = thresholds(cfg, fit)
    result = optimal_sem_util_radius(params.num_users, args.ll, args.lu, thr, params)
    best = result.best
    print(json.dumps({
        "semantic_possible": result.semantic_possible,
        "level_target": result.level_target,
        "level_attainable": result.level_attainable,
        "solutions": [
            {"radius_m": s.radius, "equation": s.equation,
             "range_prob": s.range_prob, "residual": s.residual,
             "iterations": s.iterations}
            for s in result.solutions
        ],
        "best_radius_m": None if best is None else best.radius,
    }, indent=2, sort_keys=True))
    return EXIT_OK


@cache  # parse_args does not change the parser, so a process builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcell",
        description="Reliability metrics and cell sizing for a hybrid bit/semantic downlink.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep a scenario and write CSV + manifest")
    run_p.add_argument("--config", required=True, help="scenario config or manifest JSON")
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="expand a canned figure preset")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--mc-samples", type=int, default=None, help="Monte Carlo samples per point")
    run_p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check closed forms against the simulation oracle")
    val_p.add_argument("--config", required=True)
    val_p.add_argument("--mc-samples", type=int, default=None)
    val_p.add_argument("--seed", type=int, default=None)
    val_p.set_defaults(func=_cmd_validate)

    design_p = sub.add_parser("design", help="radius design solvers")
    design_sub = design_p.add_subparsers(dest="design_command", required=True)
    radius_p = design_sub.add_parser("radius", help="largest radius meeting an outage-count cap")
    radius_p.add_argument("--config", required=True)
    radius_p.add_argument("--pth", type=float, required=True, help="outage probability threshold")
    radius_p.add_argument("--ll", type=int, required=True, help="minimum outage count")
    radius_p.set_defaults(func=_cmd_design_radius)
    util_p = design_sub.add_parser("util", help="radius maximizing a served-count range probability")
    util_p.add_argument("--config", required=True)
    util_p.add_argument("--ll", type=int, required=True, help="lowest served count")
    util_p.add_argument("--lu", type=int, required=True, help="highest served count")
    util_p.set_defaults(func=_cmd_design_util)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a ConfigError, or a value a library check rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # a SolverError, or a float overflow
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
