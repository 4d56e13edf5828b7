"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``
(the repository's own ``pytest`` run collects only ``tests/``).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from semcell import cli, presets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: End-to-end metrics printed for the workloads they apply to.
DETAIL_METRICS = ("points_per_s", "mc_samples_per_s", "queries_per_s", "query_p50_ms",
                  "query_tail_ms", "fail_ratio", "validate_mismatches")


def _run(root: Path, *args: str, timeout: float = 600) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(trace):
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0.01",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= len(WORKLOADS)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in WORKLOADS:
        for metric in listed:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"] and math.isfinite(value["value"])
    names = [m["name"] for m in listed] + ([] if trace else list(DETAIL_METRICS))
    for name in names:
        assert f"  {name} " in proc.stdout, name


def test_design_counts_depend_on_the_seed_alone():
    counts = []
    for seconds in ("0.01", "1.5"):
        proc = _run(ROOT, "--workload", "design_batch", "--seed", "5", "--seconds", seconds,
                    "--trace", "0", "--tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1] and counts[0][0] == 4 * 8


def _fig2_csvs(out: Path) -> list[Path]:
    config = out / "table1.json"
    config.write_text(json.dumps(presets.table1_config()), encoding="utf-8")
    assert cli.main(["run", "--config", str(config), "--preset", "fig2", "--out", str(out)]) == 0
    return sorted(out.glob("fig2_*.csv"))


def test_pinned_digests_match_committed_csvs():
    committed = sorted((ROOT / "demos" / "output").glob("*/*.csv"))
    if not committed:
        pytest.skip("demos/output is not part of this checkout")
    pinned = json.loads(checks.REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    assert {path.name: checks.sha256(path) for path in committed} == pinned


def test_corrupted_csv_byte_fails_byte_compare(tmp_path):
    csvs = _fig2_csvs(tmp_path)
    assert len(csvs) == 6
    for path in csvs:
        assert checks.check_reference_bytes(path) == []
    data = bytearray(csvs[0].read_bytes())
    i = data.index(b"e-", len(data) // 2) - 1   # a mantissa digit in the middle of the file
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    csvs[0].write_bytes(bytes(data))
    assert checks.check_reference_bytes(csvs[0]) != []


def test_perturbed_mc_estimate_fails_score_check(tmp_path):
    doc = presets.table1_config()
    doc["sweep"]["grid"] = doc["sweep"]["grid"][::10]
    config = tmp_path / "table1.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    n = 4096
    assert cli.main(["run", "--config", str(config), "--mc-samples", str(n), "--seed", "11",
                     "--out", str(tmp_path)]) == 0
    estimates = checks.mc_csv_estimates(tmp_path / "table1.csv", n)
    assert checks.check_mc(estimates)[0] == []
    # move one well-populated estimate by eight standard errors
    i = next(j for j, (_, _, p, _) in enumerate(estimates) if 0.1 < p < 0.9)
    label, p_hat, p, _ = estimates[i]
    estimates[i] = (label, p + 8.0 * math.sqrt(p * (1.0 - p) / n), p, n)
    errors, max_z = checks.check_mc(estimates)
    assert len(errors) == 1 and label in errors[0] and max_z > 7.9


def test_score_check_accepts_certain_and_impossible_events():
    # the closed form says (almost) never / always; the estimate agrees
    assert checks.check_mc([("rare", 0.0, 1.4e-71, 10**6), ("sure", 1.0, 1.0 - 1e-12, 10**6)])[0] == []
    assert checks.check_mc([("wrong", 0.0, 0.5, 1000)])[0] != []


def _copy_checkout(dest: Path, with_program: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_wrong_program_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path)
    outage = root / "src" / "semcell" / "outage.py"
    source = outage.read_text(encoding="utf-8")
    mutated = source.replace("pi_b=user_outage_bit(thr, params),",
                             "pi_b=user_outage_bit(thr, params) * 1.01,")
    assert mutated != source
    outage.write_text(mutated, encoding="utf-8")
    proc = _run(root, "--workload", "analytic_sweeps", "--seed", "1", "--seconds", "0.01",
                "--tiny")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "CHECK FAILED" in proc.stdout


def test_missing_program_exits_without_result(tmp_path):
    root = _copy_checkout(tmp_path, with_program=False)
    proc = _run(root, "--workload", "analytic_sweeps", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
