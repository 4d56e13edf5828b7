"""Regenerate the reference sweep CSVs through the library API.

Each preset expands into labelled variants of the default scenario; every
variant lands as one CSV (one row per grid point, one column per metric)
plus a manifest that replays the run byte-for-byte.  The same thing is
available from the shell as `semcell run --config ... --preset fig2`.
"""

from pathlib import Path

from semcell.cli import parse_scenario_config, run_scenario
from semcell.presets import expand_preset, table1_config

out_root = Path(__file__).parent / "output"
base = table1_config()

for preset in ("fig2", "fig3", "fig6"):
    out_dir = out_root / preset
    print(f"{preset}:")
    for label, doc in expand_preset(base, preset):
        scenario = parse_scenario_config(doc, label=label)
        csv_path, manifest_path = run_scenario(scenario, out_dir, preset=preset)
        print(f"  {csv_path.relative_to(out_root.parent)}")
print()
print("columns: axis_value, pi_h, pi_b, pi_s, net_all, net_any, s_range,")
print("pi_g, util_range -- ready for any external plotting tool.")
