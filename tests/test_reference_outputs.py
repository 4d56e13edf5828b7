"""The committed reference sweeps under demos/output must regenerate byte for byte."""

import json
from pathlib import Path

import pytest

from semcell.cli import parse_scenario_config, run_scenario
from semcell.presets import expand_preset, table1_config

OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


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
