"""semcell benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic_sweeps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, every metric

Workloads (see workloads.py):

* ``analytic_sweeps`` -- ``semcell run`` for presets fig2..fig7 and seeded
  Table-1 sweeps along m_th and r_out, Monte Carlo off;
* ``design_batch`` -- seeded design queries over the documented domain:
  thresholds -> outage-cap radius -> best utilization radius;
* ``mc_sweep`` -- ``semcell run --mc-samples 65536`` on the Table-1
  30-point radius sweep;
* ``validate_point`` -- ``semcell validate`` at the Table-1 defaults, n = 10^6.

``--trace 0`` repeats the workload's pass until ``--seconds`` have passed
and reports the end-to-end metrics: ``setup_s`` (median over seven fresh
processes, spread over the run, of the time from process start to a ready
workload: imports, config generation and parsing; in reference seconds,
see ``probe_setup``), ``wall_s`` (time of the
fixed amount of work: the sum over the workload's input sets of the
median pass time on each, in reference seconds: see ``Calibration``) and
``peak_rss_mb``; workload-specific metrics (throughputs, query latency,
fail ratio, validate mismatches, the measured pass time) are printed
above the final line.

``--trace 1`` alternates untraced and traced passes of the same inputs and
reports the per-layer metrics from the traced ones (medians of the times,
counts from the first traced pass) plus the tracing overhead.  Monte Carlo
workloads add a 1-worker pass per cycle for the 2-worker scaling
efficiency and check that 1- and 2-worker estimates are bit-identical.
Spans of the first traced pass go to ``perfbench/out/<workload>/trace.jsonl``.

Every run checks the program's outputs (checks.py) and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
1 when a check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_ENV = "SEMCELL_THREADS"
#: Monte Carlo runs on at most two workers, whatever os.cpu_count() says.
WORKERS = "2"
SETUP_PROBES = 7
#: Start-up time of the reference process at the reference machine state.
REFERENCE_START_S = 0.25
#: Calibration time per pass, as a share of the pass time.
CAL_SHARE = 0.04
WORKLOADS = ("analytic_sweeps", "design_batch", "mc_sweep", "validate_point")


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def probe_setup(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Time from process start to a ready workload, in a fresh process.

    The probe prints its own ``perf_counter`` once the workload is built;
    the monotonic clock is shared by all processes, so the difference to
    the launch time covers interpreter start, imports and input set-up.
    Right before it, a reference process starts an interpreter and imports
    NumPy, three quarters of the set-up time and no part of semcell.  Its
    time follows the machine's start-up speed, which drifts by 15-28 %
    between sets of runs while the compute kernels of ``Calibration`` stay
    put; scaled by it, medians of two sets moved by at most 17 %.
    Returns the set-up time and the reference time.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    reference = perf_counter() - t0
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(OUT / f"{workload}-probe"), "1" if tiny else "0"],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1]) - start, reference


class Calibration:
    """Speed of the machine, sampled between passes with two fixed reference kernels.

    The machine is a shared 2-core VM whose effective speed drifts by up to
    +-35 % over tens of seconds to minutes, and CPU time follows wall time,
    so the drift is in the hardware other tenants share, not in scheduling.
    The kernels are benchmark code, so no change to semcell changes their
    time: a scalar Python loop like the closed forms' special functions,
    and a NumPy array pass like the Monte Carlo draws.  The array pass
    writes into preallocated buffers: with fresh temporaries most of its
    time went to page faults, whose cost drifts more than the Monte Carlo
    passes do.  Scaling a pass time by ``reference / median kernel time``
    of the kernel that resembles the workload's hot loop expresses it in
    reference seconds; over ten seeds that cut the spread of ``wall_s``
    from 3-16 % to 3-10 %.  The set-up time follows neither kernel; it has
    a reference of its own (``probe_setup``).
    """

    #: kernel -> its time at the reference machine speed
    REFERENCE_S = {"python": 0.003, "numpy": 0.0015}

    def __init__(self):
        import numpy as np

        self._np = np
        self._values = np.random.default_rng(0).random(1 << 18)
        self._buffers = (np.empty_like(self._values), np.empty_like(self._values))
        self.samples: dict[str, list[float]] = {"python": [], "numpy": []}

    def sample(self) -> float:
        """Time both kernels once; returns the time spent."""
        np, x = self._np, self._values
        a, b = self._buffers
        t0 = perf_counter()
        total = 0.0
        for i in range(1, 20000):
            total += math.exp(-i * 1e-5) / i
        t1 = perf_counter()
        np.log1p(np.negative(x, out=a), out=a)
        total += float(np.sum(np.multiply(a, np.sqrt(x, out=b), out=a)))
        t2 = perf_counter()
        self.samples["python"].append(t1 - t0)
        self.samples["numpy"].append(t2 - t1)
        return t2 - t0

    def after_pass(self, pass_s: float) -> None:
        """Sample for CAL_SHARE of the pass time, at least once."""
        spent = self.sample()
        while spent < CAL_SHARE * pass_s:
            spent += self.sample()

    def to_reference(self, seconds: float, kernel: str) -> float:
        return seconds * self.REFERENCE_S[kernel] / statistics.median(self.samples[kernel])


def timed_run(wl, seconds: float, probe, probes: int, cal: Calibration):
    """Passes k = 0, 1, ... for ``seconds`` of measured time.

    The set-up probes and the calibration samples run between passes,
    outside the measured time; the probes are spread evenly over the run
    so that they sample the same stretch of machine time as the passes.
    Returns pass times, pass results and (set-up, reference) time pairs.
    """
    times, results, setups = [], [], []
    start = perf_counter()
    paused = 0.0
    k = 0
    while perf_counter() - start - paused < seconds or k < wl.input_sets:
        t0 = perf_counter()
        if len(setups) < probes and t0 - start - paused >= len(setups) * seconds / probes:
            setups.append(probe())
        wl.prepare(k)
        t1 = perf_counter()
        results.append(wl.run_pass())
        times.append(perf_counter() - t1)
        t2 = perf_counter()
        cal.after_pass(times[-1])
        paused += (t1 - t0) + (perf_counter() - t2)
        k += 1
    while len(setups) < probes:
        setups.append(probe())
    return times, results, setups


def _timed_pass(wl, results):
    t0 = perf_counter()
    results.append(wl.run_pass())
    return perf_counter() - t0


def traced_run(wl, seconds: float, trace_path: Path):
    """Cycles of (untraced, traced[, 1-worker]) passes over pass 0's inputs."""
    from tracer import Tracer

    wl.prepare(0)
    untraced, traced, single, samples, results, errors = [], [], [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        untraced.append(_timed_pass(wl, results))
        with Tracer() as tr:
            traced.append(_timed_pass(wl, results))
        if not samples:
            tr.write(trace_path)
        samples.append(tr.layer_metrics())
        if wl.uses_mc:
            os.environ[WORKER_ENV] = "1"
            try:
                with Tracer(only={"montecarlo.estimate_many"}) as capture:
                    single.append(_timed_pass(wl, results))
            finally:
                os.environ[WORKER_ENV] = WORKERS
            if capture.mc_results() != tr.mc_results():
                errors.append("1-worker and 2-worker Monte Carlo estimates differ")
        del tr
        if perf_counter() >= deadline:
            break
    metrics = dict(samples[0])
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] = statistics.median(s[key] for s in samples)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["montecarlo.scaling_eff_2w"] = (
        statistics.median(single) / (2.0 * statistics.median(untraced)) if single else 0.0)
    return metrics, results, errors


def run_one(args) -> int:
    import workloads

    spec = _benchmark_spec()
    out_dir = OUT / args.workload
    wl = workloads.make(args.workload, out_dir, args.seed, args.tiny)
    errors: list[str] = []
    if args.trace:
        metrics, results, errors = traced_run(wl, args.seconds, out_dir / "trace.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report = {name: (metrics[name], units[name]) for name in units}
    else:
        cal = Calibration()
        times, results, setups = timed_run(
            wl, args.seconds, lambda: probe_setup(args.workload, args.seed, args.tiny),
            1 if args.tiny else SETUP_PROBES, cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work_s = sum(statistics.median(times[i::wl.input_sets]) for i in range(wl.input_sets))
        wall_s = cal.to_reference(work_s, wl.kernel)
        setup_raw_s = statistics.median(t for t, _ in setups)
        start_ref_s = statistics.median(r for _, r in setups)
        report = {"setup_s": (setup_raw_s * REFERENCE_START_S / start_ref_s, "s"),
                  "wall_s": (wall_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        for unit, amount in wl.work().items():
            report[f"{unit}_per_s"] = (amount / wall_s, "1/s")
        report["wall_raw_s"] = (work_s, "s")
        report["setup_raw_s"] = (setup_raw_s, "s")
        report["start_ref_s"] = (start_ref_s, "s")
        for kernel, samples in cal.samples.items():
            report[f"cal_{kernel}_ms"] = (statistics.median(samples) * 1e3, "ms")
        report["passes"] = (float(len(times)), "count")
        report.update(wl.details(results, lambda t: cal.to_reference(t, wl.kernel)))
    attempted = len(wl.outcomes)
    failed = sum(wl.outcomes.values())
    errors += [f"operation {op!r} ended differently when repeated" for op in sorted(
        wl.unstable, key=repr)]
    errors += wl.check()
    if not args.trace:
        report["fail_ratio"] = (failed / attempted, "ratio")
        if wl.max_z is not None:
            report["mc_max_abs_z"] = (wl.max_z, "1")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    for name, (value, unit) in report.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    for message in errors[:20]:
        print(f"CHECK FAILED: {message}")
    if len(errors) > 20:
        print(f"CHECK FAILED: ... and {len(errors) - 20} more")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                          for m in listed}}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
                    "correct": not errors, "attempted": attempted, "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()}},
                   indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        detail = json.loads((OUT / name / f"result-trace{args.trace}.json").read_text())
        for key, value in detail["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semcell" / "__init__.py").is_file():
        print(f"semcell sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ[WORKER_ENV] = WORKERS
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
