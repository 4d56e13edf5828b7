"""The committed Monte Carlo sweeps under tests/data/mc_reference must regenerate
byte for byte, at one worker and at two.

The CSVs pin every ``mc_*`` column of three sweeps: the Table-1 radius sweep
at n = 70 001 and seed 5, a similarity-threshold (``m_th``) sweep, whose
points share their rate curves, and an ``edge_snr_db`` sweep, whose points
scale the first point's SNRs.  A change to the oracle that moves a single
count shows here.

Regenerate the pins, only when a change to the estimates is intended::

    PYTHONPATH=src python tests/test_mc_reference.py

Before it overwrites a pin, it prints per CSV and per ``mc_*`` column the
number of cells that change and the largest |z| of the old and of the new
estimates against the closed form, over the informative cells
(n min(p, 1 - p) >= 1).
"""

import csv
import io
from pathlib import Path

import pytest

from semcell.cli import _score_z, parse_scenario_config, run_scenario
from semcell.presets import table1_config

DATA = Path(__file__).resolve().parent / "data" / "mc_reference"


def _configs() -> dict[str, dict]:
    table1 = table1_config()
    table1["mc"] = {"samples": 70_001, "seed": 5}
    m_th = table1_config()
    m_th["sweep"] = {"axis": "m_th", "start": 0.4, "stop": 0.95, "points": 12}
    m_th["outage_counts"] = {"lo": 2, "hi": 9}
    m_th["mc"] = {"samples": 20_011, "seed": 17}
    edge = table1_config()
    edge["network"]["num_users"] = 12
    edge["rate"]["use_capacity"] = True
    edge["sweep"] = {"axis": "edge_snr_db", "start": 10.0, "stop": 60.0, "points": 11}
    edge["util_counts"] = {"lo": 3, "hi": 8}
    edge["mc"] = {"samples": 70_003, "seed": 29}
    return {"table1": table1, "m_th": m_th, "edge_snr_db": edge}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mc_columns_regenerate(workers, tmp_path, monkeypatch):
    monkeypatch.setenv("SEMCELL_THREADS", workers)
    for label, doc in _configs().items():
        csv_path, _ = run_scenario(parse_scenario_config(doc, label=label), tmp_path)
        assert csv_path.read_bytes() == (DATA / csv_path.name).read_bytes(), label
    assert sorted(p.stem for p in DATA.glob("*.csv")) == sorted(_configs())


def _largest_z(rows: list[dict[str, str]], column: str, n: int) -> float:
    """Largest |z| of ``column``'s estimates against the closed form, over informative cells."""
    analytic = column.removeprefix("mc_")
    return max((abs(_score_z(float(row[column]), float(row[analytic]), n)) for row in rows
                if n * min(float(row[analytic]), 1.0 - float(row[analytic])) >= 1.0),
               default=0.0)


def _pin_changes(old_csv: str, new_csv: str, n: int) -> list[tuple[str, int, float, float]]:
    """(column, cells changed, largest old |z|, largest new |z|) per ``mc_*`` column."""
    old, new = (list(csv.DictReader(io.StringIO(text))) for text in (old_csv, new_csv))
    columns = [c for c in new[0] if c.startswith("mc_") and not c.endswith("_stderr")]
    return [(c, sum(a[c] != b[c] for a, b in zip(old, new)), _largest_z(old, c, n),
             _largest_z(new, c, n)) for c in columns]


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, doc in _configs().items():
            csv_path, _ = run_scenario(parse_scenario_config(doc, label=label), tmp)
            pin = DATA / csv_path.name
            if pin.exists():
                print(f"{pin.name}: column, cells changed, largest |z| old -> new")
                for column, changed, z_old, z_new in _pin_changes(
                        pin.read_text(), csv_path.read_text(), doc["mc"]["samples"]):
                    print(f"  {column:>14} {changed:3d}  {z_old:.3f} -> {z_new:.3f}")
            pin.write_bytes(csv_path.read_bytes())
            print(f"wrote {pin}")
