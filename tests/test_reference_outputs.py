"""The reference sweeps must regenerate byte for byte.

fig2, fig3 and fig6 are committed under demos/output and compared whole,
manifests included.  fig4, fig5 and fig7 (the free-space sweeps and the
utilization-range sweeps), and one Table-1 sweep along each threshold axis
(``m_th`` and ``r_out``, which no preset sweeps), are pinned by the SHA-256
digest of every CSV in tests/data/reference_digests.json.

Each pin is checked twice: through ``run_scenario``, one sweep at a time,
each in its own kernel scope, and through one ``semcell run`` command
(``cli.main``), whose sweeps share the kernel values of its scope.

Regenerate the digests, only when a change to the closed forms is intended::

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from semcell.cli import EXIT_OK, main, parse_scenario_config, run_scenario
from semcell.presets import PRESETS, expand_preset, table1_config

OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"
DIGESTS = Path(__file__).resolve().parent / "data" / "reference_digests.json"
DIGEST_PRESETS = ("fig4", "fig5", "fig7")
#: Table-1 sweeps along the threshold axes: (start, stop) of a 40-point grid.  The
#: r_out grid puts k r_out below, between and above the similarity asymptotes.
AXIS_SWEEPS = {"m_th": (0.38, 0.97), "r_out": (0.005, 0.3)}


def _paths(names) -> list:
    """Each name through the library (its plain id) and through the CLI (``-cli``)."""
    return ([pytest.param(name, "library", id=name) for name in names]
            + [pytest.param(name, "cli", id=f"{name}-cli") for name in names])


@pytest.mark.parametrize("preset, via", _paths(["fig2", "fig3", "fig6"]))
def test_reference_sweeps_regenerate(preset, via, tmp_path):
    labels = []
    for csv_path, manifest_path in _run_pinned(preset, via, tmp_path):
        label = csv_path.stem
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
    if name in PRESETS:
        return expand_preset(table1_config(), name)
    doc = table1_config()
    start, stop = AXIS_SWEEPS[name]
    doc["sweep"] = {"axis": name, "start": start, "stop": stop, "points": 40}
    return [(f"table1_{name}", doc)]


def _run_pinned(name: str, via: str, tmp_path: Path) -> list[tuple[Path, Path]]:
    """(CSV, manifest) of every sweep pinned under ``name``, written under
    ``tmp_path / "out"`` by ``run_scenario`` per sweep (``via="library"``) or by
    one ``semcell run`` command (``via="cli"``)."""
    out_dir = tmp_path / "out"
    preset = name if name in PRESETS else None
    variants = _variants(name)
    if via == "library":
        return [run_scenario(parse_scenario_config(doc, label=label), out_dir, preset=preset)
                for label, doc in variants]
    # the command labels a config's one sweep by its file name
    label, doc = ("table1", table1_config()) if preset else variants[0]
    config_path = tmp_path / f"{label}.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["run", "--config", str(config_path), "--out", str(out_dir)]
    assert main(argv + (["--preset", preset] if preset else [])) == EXIT_OK
    return [(out_dir / f"{label}.csv", out_dir / f"{label}.manifest.json") for label, _ in variants]


def _csv_digests(name: str, via: str, tmp_path: Path) -> dict[str, str]:
    """CSV file name -> SHA-256 hex digest, for every sweep pinned under ``name``."""
    return {csv_path.name: hashlib.sha256(csv_path.read_bytes()).hexdigest()
            for csv_path, _ in _run_pinned(name, via, tmp_path)}


@pytest.mark.parametrize("name, via", _paths([*DIGEST_PRESETS, *AXIS_SWEEPS]))
def test_reference_sweep_digests(name, via, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert _csv_digests(name, via, tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _csv_digests(name, "library", Path(tmp) / name)
                 for name in (*DIGEST_PRESETS, *AXIS_SWEEPS)}
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}: {sum(map(len, table.values()))} digests")
