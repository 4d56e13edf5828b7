"""The reference sweeps must regenerate byte for byte.

fig2, fig3 and fig6 are committed under demos/output and compared whole,
manifests included.  fig4, fig5 and fig7 (the free-space sweeps and the
utilization-range sweeps), and one Table-1 sweep along each threshold axis
(``m_th`` and ``r_out``, which no preset sweeps), are pinned by the SHA-256
digest of every CSV in tests/data/reference_digests.json.

Regenerate the digests, only when a change to the closed forms is intended::

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from semcell.cli import parse_scenario_config, run_scenario
from semcell.presets import expand_preset, table1_config

OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"
DIGESTS = Path(__file__).resolve().parent / "data" / "reference_digests.json"
DIGEST_PRESETS = ("fig4", "fig5", "fig7")
#: Table-1 sweeps along the threshold axes: (start, stop) of a 40-point grid.  The
#: r_out grid puts k r_out below, between and above the similarity asymptotes.
AXIS_SWEEPS = {"m_th": (0.38, 0.97), "r_out": (0.005, 0.3)}


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig6"])
def test_reference_sweeps_regenerate(preset, tmp_path):
    labels = []
    for label, doc in expand_preset(table1_config(), preset):
        csv_path, manifest_path = run_scenario(parse_scenario_config(doc, label=label),
                                               tmp_path, preset=preset)
        committed = OUTPUT / preset
        assert csv_path.read_bytes() == (committed / csv_path.name).read_bytes(), label
        # the versions block names the machine that wrote the file
        fresh = json.loads(manifest_path.read_text(encoding="utf-8"))
        pinned = json.loads((committed / manifest_path.name).read_text(encoding="utf-8"))
        del fresh["versions"], pinned["versions"]
        assert fresh == pinned, label
        labels.append(csv_path.name)
    assert sorted(labels) == sorted(p.name for p in (OUTPUT / preset).glob("*.csv"))


def _variants(name: str) -> list[tuple[str, dict]]:
    """(label, config) of every sweep pinned under ``name``: a preset or a threshold axis."""
    if name in DIGEST_PRESETS:
        return expand_preset(table1_config(), name)
    doc = table1_config()
    start, stop = AXIS_SWEEPS[name]
    doc["sweep"] = {"axis": name, "start": start, "stop": stop, "points": 40}
    return [(f"table1_{name}", doc)]


def _csv_digests(name: str, out_dir: Path) -> dict[str, str]:
    """CSV file name -> SHA-256 hex digest, for every sweep pinned under ``name``."""
    preset = name if name in DIGEST_PRESETS else None
    digests = {}
    for label, doc in _variants(name):
        csv_path, _ = run_scenario(parse_scenario_config(doc, label=label), out_dir, preset=preset)
        digests[csv_path.name] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", [*DIGEST_PRESETS, *AXIS_SWEEPS])
def test_reference_sweep_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert _csv_digests(name, tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _csv_digests(name, Path(tmp)) for name in (*DIGEST_PRESETS, *AXIS_SWEEPS)}
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}: {sum(map(len, table.values()))} digests")
