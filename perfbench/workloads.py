"""The four benchmark workloads and the inputs each draws from its seed.

Every workload is a closed loop: one call into semcell at a time, back to
back, either through ``semcell.cli.main([...])`` or through the public
library functions.  Calls go through module attributes (``cli.main``,
``design.optimal_sem_util_radius``) so that the tracer's wrappers, which
replace those attributes, see every call.

Construction is the workload's set-up (config generation and parsing);
``prepare(k)`` makes the inputs of pass ``k`` outside the timed region;
``run_pass()`` is the timed unit of work; the workload's fixed amount of
work is one pass over each of its ``input_sets`` input sets; ``check()``
reads the outputs of the last pass on each input set and returns failure
messages (it imports scipy, so it is only called after timing).

This module imports no scipy: the set-up probe imports it to time what a
user of the CLI pays before the first result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from semcell import cli, design, presets, ratemodel
from semcell.montecarlo import Scenario
from semcell.ratemodel import SolverError

#: The reference CSVs committed for these presets must be reproduced byte for byte.
BYTE_COMPARED = ("fig2", "fig3", "fig6")


@dataclass
class PassResult:
    """Per-operation latencies of one pass (design queries only)."""

    latencies: list[float] = field(default_factory=list)


def mc_seed(seed: int) -> int:
    """Monte Carlo seed handed to semcell for a benchmark seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def _call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``semcell`` in-process; returns the exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


class _Workload:
    name = ""
    uses_mc = False
    kernel = "python"           # calibration kernel that resembles the hot loop
    max_z: float | None = None  # largest |score z| of the Monte Carlo checks
    input_sets = 1              # pass k runs input set k mod input_sets

    def __init__(self, out_dir: Path, seed: int, tiny: bool):
        self.seed = seed
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        #: operation -> whether it failed.  An operation is one CLI call or one
        #: design query of the seed's fixed inputs, however often it is repeated
        #: for timing, so attempted and failed counts depend on the seed alone.
        self.outcomes: dict = {}
        self.unstable: set = set()

    def record(self, op, failed: bool) -> None:
        """Outcome of one operation; every repetition must end the same way."""
        if self.outcomes.setdefault(op, failed) != failed:
            self.unstable.add(op)

    def prepare(self, k: int) -> None:
        """Inputs of pass k; most workloads repeat the same inputs."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def work(self) -> dict[str, float]:
        """Units of the fixed amount of work (points, queries, MC samples)."""
        raise NotImplementedError

    def details(self, results: list[PassResult], scale) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end metrics beyond the common ones.

        ``scale`` converts measured seconds to reference seconds.
        """
        return {}

    def check(self) -> list[str]:
        raise NotImplementedError


class AnalyticSweeps(_Workload):
    """``semcell run`` for presets fig2..fig7 plus seeded m_th and r_out sweeps, MC off."""

    name = "analytic_sweeps"

    def __init__(self, out_dir: Path, seed: int, tiny: bool):
        super().__init__(out_dir, seed, tiny)
        self.csv_dir = out_dir / "csv"
        base = presets.table1_config()
        base_path = _write_json(out_dir / "table1.json", base)
        names = ("fig2", "fig4") if tiny else ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
        # label -> (input doc, preset), the docs the CLI expands internally
        self.expected: dict[str, tuple[dict, str | None]] = {}
        self.commands: list[list[str]] = []
        for preset in names:
            for label, doc in presets.expand_preset(base, preset):
                self.expected[label] = (doc, preset)
            self.commands.append(["run", "--config", str(base_path), "--preset", preset,
                                  "--out", str(self.csv_dir)])
        rng = np.random.default_rng([seed, 1])
        points = 5 if tiny else 100
        axes = {
            "m_th_axis": ("m_th", rng.uniform(0.38, 0.42), rng.uniform(0.95, 0.97)),
            "r_out_axis": ("r_out", rng.uniform(0.005, 0.01), rng.uniform(0.25, 0.3)),
        }
        for label, (axis, start, stop) in axes.items():
            doc = presets.table1_config()
            doc["sweep"] = {"axis": axis,
                            "grid": [float(v) for v in np.linspace(start, stop, points)]}
            self.expected[label] = (doc, None)
            path = _write_json(out_dir / f"{label}.json", doc)
            self.commands.append(["run", "--config", str(path), "--out", str(self.csv_dir)])
        for label, (doc, _) in self.expected.items():
            cli.parse_scenario_config(doc, label=label)

    def run_pass(self) -> PassResult:
        for i, argv in enumerate(self.commands):
            code, _ = _call_cli(argv)
            self.record(i, code != cli.EXIT_OK)
        return PassResult()

    def work(self) -> dict[str, float]:
        return {"points": sum(len(doc["sweep"]["grid"]) for doc, _ in self.expected.values())}

    def check(self) -> list[str]:
        import checks

        errors = []
        for label, (doc, preset) in self.expected.items():
            path = self.csv_dir / f"{label}.csv"
            if preset in BYTE_COMPARED:
                errors += checks.check_reference_bytes(path)
            else:
                errors += checks.check_closed_form_csv(path, doc)
        return errors


# ---------------------------------------------------------------------------
# design queries
# ---------------------------------------------------------------------------

def _single_rate_crossing(scenario: Scenario) -> bool:
    grid = np.geomspace(1e-6, 1e12, 600)
    gap = (ratemodel.sem_rate(grid, scenario.cfg, scenario.fit)
           - ratemodel.bit_rate(grid, scenario.cfg))
    signs = np.sign(gap)
    return int(np.count_nonzero(np.diff(signs[signs != 0.0]) != 0.0)) == 1


def draw_scenario(rng: np.random.Generator) -> tuple[dict, Scenario]:
    """One scenario config over the documented parameter domain, and its parse.

    The same domain as the test suite's ``draw_scenario``: path-loss
    exponent 1.5-4.5, every rate class (k r_out below, between or above
    the similarity asymptotes), 2-50 users; fits whose rate curves cross
    more than once are redrawn.  Urban exponents (3.5 and up) stay in, so
    the known utilization-design failures there stay visible.
    """
    for _ in range(200):
        a1 = rng.uniform(0.05, 0.45)
        a2 = rng.uniform(a1 + 0.3, 0.995)
        fit = {"a1": a1, "a2": a2, "c1": rng.uniform(0.15, 0.45), "c2": rng.uniform(-1.5, 1.0),
               "symbols_per_word": int(rng.integers(2, 9))}
        m_th = rng.uniform(a1 + 0.1 * (a2 - a1), a2 - 0.1 * (a2 - a1))
        klass = rng.choice(["low", "mid", "high"], p=[0.45, 0.45, 0.1])
        if klass == "low":
            kr = rng.uniform(0.2 * a1, 0.95 * a1)
        elif klass == "mid":
            kr = rng.uniform(a1 + 0.05 * (a2 - a1), min(m_th, a2 - 0.05 * (a2 - a1)))
        else:
            kr = rng.uniform(a2, 1.5 * a2)
        rate = {"bit_symbols_per_word": int(rng.integers(10, 61)),
                "ber": float(10.0 ** rng.uniform(-5.0, -0.9)),
                "similarity_threshold": float(m_th),
                "outage_rate_threshold": float(kr / fit["symbols_per_word"]),
                "use_capacity": bool(rng.random() < 0.2)}
        network = {"num_users": int(rng.integers(2, 51)),
                   "tx_power_w": float(10.0 ** rng.uniform(-3.0, 0.0)),
                   "total_bandwidth_hz": float(10.0 ** rng.uniform(6.5, 7.7)),
                   "carrier_freq_hz": float(rng.uniform(0.7e9, 6.0e9)),
                   "noise_density_dbm_per_hz": float(rng.uniform(-178.0, -165.0)),
                   "pathloss_exp": float(rng.uniform(1.5, 4.5)),
                   "cell_radius_m": float(10.0 ** rng.uniform(1.5, 3.5))}
        doc = {"network": network, "similarity_fit": fit, "rate": rate,
               "sweep": {"axis": "radius_m", "grid": [network["cell_radius_m"]]}}
        scenario = cli.parse_scenario_config(doc).scenario
        if _single_rate_crossing(scenario):
            return doc, scenario
    raise RuntimeError("could not draw a single-crossing scenario in 200 tries")


@dataclass
class Query:
    """One design query: a scenario, an outage cap and a served-count range."""

    doc: dict
    scenario: Scenario
    p_th: float
    count_floor: int
    util_lo: int
    util_hi: int
    # outputs of the last run of this query
    radius: float | None = None        # outage-cap radius, None if it failed
    best_radius: float | None = None   # best utilization radius, None if none
    util_ok: bool = False              # the utilization design returned
    failed: bool = False


def draw_queries(seed: int, batch: int, size: int) -> list[Query]:
    rng = np.random.default_rng([seed, 2, batch])
    queries = []
    for _ in range(size):
        doc, scenario = draw_scenario(rng)
        L = scenario.params.num_users
        util_lo = int(rng.integers(1, L // 2 + 1))
        queries.append(Query(
            doc=doc, scenario=scenario,
            p_th=float(10.0 ** rng.uniform(-4.0, -1.0)),
            count_floor=int(rng.integers(1, L + 1)),
            util_lo=util_lo, util_hi=int(rng.integers(util_lo, L // 2 + 1))))
    return queries


class DesignBatch(_Workload):
    """Seeded design queries: thresholds -> outage-cap radius -> best utilization radius.

    The seed fixes ``BATCHES`` batches of queries; pass k runs batch
    k mod ``BATCHES``, every batch at least once, and every batch is
    verified with scipy.  A SolverError or ArithmeticError from either
    design counts the query as failed.
    """

    name = "design_batch"
    BATCHES = 4
    input_sets = BATCHES

    def __init__(self, out_dir: Path, seed: int, tiny: bool):
        super().__init__(out_dir, seed, tiny)
        self.size = 8 if tiny else 200
        self.batches: dict[int, list[Query]] = {}
        self.prepare(0)

    def prepare(self, k: int) -> None:
        self.index = k % self.BATCHES
        if self.index not in self.batches:
            self.batches[self.index] = draw_queries(self.seed, self.index, self.size)
        self.batch = self.batches[self.index]

    def run_pass(self) -> PassResult:
        latencies = []
        for i, q in enumerate(self.batch):
            t0 = perf_counter()
            q.radius = q.best_radius = None
            q.util_ok = q.failed = False
            params, L = q.scenario.params, q.scenario.params.num_users
            try:
                thr = ratemodel.thresholds(q.scenario.cfg, q.scenario.fit)
            except (SolverError, ArithmeticError):
                q.failed = True
            else:
                try:
                    target = design.DesignTarget.for_outage_cap(q.p_th, q.count_floor, L)
                    q.radius = design.radius_for_outage_threshold(target, thr, params).radius
                except (SolverError, ArithmeticError):
                    q.failed = True
                try:
                    best = design.optimal_sem_util_radius(
                        L, q.util_lo, q.util_hi, thr, params).best
                    q.best_radius, q.util_ok = (None if best is None else best.radius), True
                except (SolverError, ArithmeticError):
                    q.failed = True
            latencies.append(perf_counter() - t0)
            self.record((self.index, i), q.failed)
        return PassResult(latencies=latencies)

    def work(self) -> dict[str, float]:
        return {"queries": self.size * self.BATCHES}

    def details(self, results: list[PassResult], scale) -> dict[str, tuple[float, str]]:
        latencies = np.array([scale(t) for r in results for t in r.latencies]) * 1e3
        tail_pct = next(q for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
                        if latencies.size * (1.0 - q / 100.0) >= 10.0 or q == 50.0)
        return {"query_p50_ms": (float(np.percentile(latencies, 50.0)), "ms"),
                "query_tail_ms": (float(np.percentile(latencies, tail_pct)), "ms"),
                "query_tail_pct": (tail_pct, "%"),
                "query_samples": (float(latencies.size), "count")}

    def check(self) -> list[str]:
        import checks

        errors = []
        for index, batch in self.batches.items():
            for i, q in enumerate(batch):
                if (index, i) not in self.outcomes:
                    continue
                if q.radius is not None:
                    errors += checks.check_outage_radius(q.doc, q.p_th, q.count_floor, q.radius)
                if q.util_ok:
                    errors += checks.check_util_radius(q.doc, q.util_lo, q.util_hi,
                                                       q.best_radius)
        return errors


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

class McSweep(_Workload):
    """``semcell run --mc-samples 65536`` on the Table-1 30-point radius sweep."""

    name = "mc_sweep"
    uses_mc = True
    kernel = "numpy"

    def __init__(self, out_dir: Path, seed: int, tiny: bool):
        super().__init__(out_dir, seed, tiny)
        self.samples = 4096 if tiny else 65536
        self.doc = presets.table1_config()
        if tiny:
            self.doc["sweep"]["grid"] = self.doc["sweep"]["grid"][:: 10]
        config = _write_json(out_dir / "table1.json", self.doc)
        cli.parse_scenario_config(self.doc)
        self.argv = ["run", "--config", str(config), "--mc-samples", str(self.samples),
                     "--seed", str(mc_seed(seed)), "--out", str(out_dir / "csv")]
        self.csv = out_dir / "csv" / "table1.csv"

    def run_pass(self) -> PassResult:
        code, _ = _call_cli(self.argv)
        self.record("run", code != cli.EXIT_OK)
        return PassResult()

    def work(self) -> dict[str, float]:
        points = len(self.doc["sweep"]["grid"])
        # one per-user draw and one full-cell draw per sample and point
        return {"points": points, "mc_samples": 2 * self.samples * points}

    def check(self) -> list[str]:
        import checks

        errors = checks.check_closed_form_csv(self.csv, self.doc)
        mc_errors, self.max_z = checks.check_mc(checks.mc_csv_estimates(self.csv, self.samples))
        return errors + mc_errors


_VALIDATE_LINE = re.compile(
    r"^\s*(\w+): analytic=(\S+) mc=(\S+) stderr=(\S+) (ok|MISMATCH)$", re.MULTILINE)


class ValidatePoint(_Workload):
    """``semcell validate`` at the Table-1 defaults: one point, n = 10^6 (16 blocks).

    Exit 4 (validation mismatch) is a completed run: the gate's known
    false MISMATCHes at p_hat in {0, 1} are reported, not hidden.
    """

    name = "validate_point"
    uses_mc = True
    kernel = "numpy"

    def __init__(self, out_dir: Path, seed: int, tiny: bool):
        super().__init__(out_dir, seed, tiny)
        self.samples = 65536 if tiny else 1_000_000
        self.doc = presets.table1_config()
        config = _write_json(out_dir / "table1.json", self.doc)
        cli.parse_scenario_config(self.doc)
        self.argv = ["validate", "--config", str(config), "--seed", str(mc_seed(seed))]
        if tiny:
            self.argv += ["--mc-samples", str(self.samples)]
        self.lines: list[tuple[str, ...]] = []

    def run_pass(self) -> PassResult:
        code, text = _call_cli(self.argv)
        self.lines = _VALIDATE_LINE.findall(text)
        ok = code in (cli.EXIT_OK, cli.EXIT_VALIDATION) and len(self.lines) == 8
        self.record("validate", not ok)
        return PassResult()

    def work(self) -> dict[str, float]:
        return {"mc_samples": 2 * self.samples}

    def details(self, results: list[PassResult], scale) -> dict[str, tuple[float, str]]:
        return {"validate_mismatches": (float(sum(v == "MISMATCH" for *_, v in self.lines)),
                                        "count")}

    def check(self) -> list[str]:
        import checks

        doc = json.loads(json.dumps(self.doc))
        radius = doc["network"]["cell_radius_m"]
        doc["sweep"] = {"axis": "radius_m", "grid": [radius]}
        reference = checks.reference_rows(doc)[0]
        errors = []
        estimates = []
        for name, analytic, mc, _, _ in self.lines:
            analytic, mc = float(analytic), float(mc)
            # printed with 7 significant digits
            if not abs(analytic - reference[name]) <= 1e-6 * abs(reference[name]) + checks.ABS_TOL:
                errors.append(f"validate {name}: analytic={analytic!r}, "
                              f"scipy reference {reference[name]!r}")
            estimates.append((f"validate {name}", mc, analytic, self.samples))
        if sorted(n for n, *_ in self.lines) != sorted(checks.METRICS):
            errors.append(f"validate printed {len(self.lines)} metric lines, expected all 8")
        mc_errors, self.max_z = checks.check_mc(estimates)
        return errors + mc_errors


def make(name: str, out_dir: Path, seed: int, tiny: bool) -> _Workload:
    classes = {cls.name: cls for cls in (AnalyticSweeps, DesignBatch, McSweep, ValidatePoint)}
    return classes[name](out_dir, seed, tiny)
