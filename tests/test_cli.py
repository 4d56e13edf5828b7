import copy
import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_scenario
from semcell import DesignTarget, RateConfig, Scenario, outage_report, thresholds
from semcell.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, ConfigError,
                         ScenarioConfig, _point_state, build_parser, main,
                         parse_scenario_config, run_scenario, scenario_config_dict,
                         write_manifest)
from semcell.presets import PRESETS, expand_preset, table1_config

OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _without_versions(manifest_path):
    """A manifest outside its versions block, which names the machine that wrote it."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["versions"]
    return manifest


class TestConfigParsing:
    def test_table1_round_trip(self):
        sc = parse_scenario_config(table1_config(), label="t")
        assert sc.scenario.params.num_users == 30
        assert sc.scenario.params.noise_density_w_per_hz == pytest.approx(
            10 ** (-17.4) * 1e-3, rel=1e-12)
        assert sc.scenario.cfg.m_th == 0.75
        assert sc.outage_hi == 30

    def test_missing_field_path_in_message(self):
        doc = table1_config()
        del doc["network"]["tx_power_w"]
        with pytest.raises(ConfigError, match="network.tx_power_w"):
            parse_scenario_config(doc)

    def test_bad_axis(self):
        doc = table1_config()
        doc["sweep"] = {"axis": "twist", "grid": [1.0, 2.0]}
        with pytest.raises(ConfigError, match="sweep.axis"):
            parse_scenario_config(doc)

    def test_non_increasing_grid(self):
        doc = table1_config()
        doc["sweep"] = {"axis": "radius_m", "grid": [100.0, 100.0, 200.0]}
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_scenario_config(doc)

    def test_m_th_grid_outside_fit(self):
        doc = table1_config()
        doc["sweep"] = {"axis": "m_th", "grid": [0.2, 0.5]}
        with pytest.raises(ConfigError, match="sweep.grid"):
            parse_scenario_config(doc)

    @pytest.mark.parametrize("points", [10**30, 10**6 + 1])
    def test_too_many_sweep_points_exit_2_before_the_grid_is_built(
            self, tmp_path, capsys, monkeypatch, points):
        doc = table1_config()
        doc["sweep"] = {"axis": "radius_m", "start": 100.0, "stop": 2000.0, "points": points}
        cfg_path = write_config(tmp_path, doc)

        def no_grid(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(np, "linspace", no_grid)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "config error: sweep.points: " in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_edge_snr_beyond_the_float_range_exits_2(self, tmp_path, capsys, snr_db):
        # +4000 dB overflows the linear SNR and -4000 dB rounds it to 0; neither is a solver failure
        doc = table1_config()
        doc["sweep"] = {"axis": "edge_snr_db", "grid": sorted([0.0, 10.0, snr_db])}
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        index = 0 if snr_db < 0.0 else 2
        assert f"config error: sweep.grid[{index}]: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis, grid, index", [
        ("radius_m", [0.0, 500.0], 0),
        ("radius_m", [500.0, 1e150], 1),  # R^3 beyond the float range
        ("m_th", [0.2, 0.75], 0),
        ("m_th", [0.75, 0.99], 1),
        ("r_out", [0.0, 0.04], 0),
        ("r_out", [0.04, 30.0], 1),  # 2^(mu r_out) beyond the float range
    ])
    def test_grid_invalid_at_one_end_exits_2(self, tmp_path, capsys, axis, grid, index):
        # edge_snr_db's ends: test_edge_snr_beyond_the_float_range_exits_2
        doc = table1_config()
        doc["sweep"] = {"axis": axis, "grid": grid}
        cfg_path = write_config(tmp_path, doc)
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep.grid[{index}]: {axis} = {grid[index]!r} ")
        assert not (tmp_path / "out").exists()

    def test_both_noise_keys_rejected(self):
        doc = table1_config()
        doc["network"]["noise_density_w_per_hz"] = 1e-20
        with pytest.raises(ConfigError, match="noise density"):
            parse_scenario_config(doc)

    def test_counts_validated(self):
        doc = table1_config()
        doc["outage_counts"] = {"lo": 12, "hi": 4}
        with pytest.raises(ConfigError, match="outage_counts"):
            parse_scenario_config(doc)

    def test_omitted_fields_take_the_dataclass_defaults(self):
        doc = table1_config()
        del doc["network"]["noise_density_dbm_per_hz"]
        doc["network"]["noise_density_w_per_hz"] = 3.5e-21
        del doc["rate"]["use_capacity"]
        sc = parse_scenario_config(doc)
        assert sc.scenario.params.noise_density_w_per_hz == 3.5e-21
        assert sc.scenario.cfg == RateConfig(mu=40, ber=1e-3, m_th=0.75, r_out=0.04)


_AXIS_GRIDS = {
    "radius_m": lambda sc: (0.5 * sc.params.cell_radius_m, sc.params.cell_radius_m),
    "edge_snr_db": lambda sc: (10.0, 25.0, 40.0),
    "m_th": lambda sc: (sc.cfg.m_th,),
    "r_out": lambda sc: (sc.cfg.r_out, 2.0 * sc.cfg.r_out),
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rate_class=st.sampled_from(["low", "mid", "high"]),
       use_capacity=st.booleans(), axis=st.sampled_from(sorted(_AXIS_GRIDS)),
       data=st.data())
def test_schema_round_trip(seed, rate_class, use_capacity, axis, data):
    # every scenario of the documented domain survives the manifest's JSON
    params, fit, cfg = draw_scenario(np.random.default_rng(seed), rate_class=rate_class)
    scenario = Scenario(params=params, fit=fit, cfg=replace(cfg, use_capacity=use_capacity))
    users = params.num_users
    outage_lo = data.draw(st.integers(0, users))
    util_lo = data.draw(st.integers(0, users))
    sc = ScenarioConfig(
        scenario=scenario, sweep_axis=axis, grid=_AXIS_GRIDS[axis](scenario),
        outage_lo=outage_lo, outage_hi=data.draw(st.integers(outage_lo, users)),
        util_lo=util_lo, util_hi=data.draw(st.integers(util_lo, users)),
        mc_samples=data.draw(st.integers(0, 10**6)), mc_seed=data.draw(st.integers(0, 2**63)),
        label="round-trip")
    doc = json.loads(json.dumps(scenario_config_dict(sc)))
    assert parse_scenario_config(doc, sc.label) == sc


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# grid values on each axis, reaching past the float range on both sides
_WIDE_VALUES = {
    "radius_m": st.one_of(_powers_of_ten(-350.0, 308.0), st.floats(-10.0, 0.0)),
    "edge_snr_db": st.floats(-5000.0, 5000.0),
    "m_th": st.floats(-0.5, 1.5),
    "r_out": st.one_of(_powers_of_ten(-330.0, 3.0), st.floats(-1.0, 0.0)),
}


def _builds_every_point(sc):
    try:
        for value in sc.grid:
            _point_state(sc, value, None)
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), axis=st.sampled_from(sorted(_WIDE_VALUES)),
       data=st.data())
def test_grid_is_accepted_exactly_when_every_point_builds(seed, axis, data):
    # the parse builds only the two end points; no value between them may fail later
    params, fit, cfg = draw_scenario(np.random.default_rng(seed))
    grid = tuple(sorted(data.draw(st.lists(_WIDE_VALUES[axis], min_size=1, max_size=6,
                                           unique=True))))
    sc = ScenarioConfig(scenario=Scenario(params=params, fit=fit, cfg=cfg), sweep_axis=axis,
                        grid=grid, outage_lo=1, outage_hi=params.num_users, util_lo=1,
                        util_hi=params.num_users, mc_samples=0, mc_seed=0, label="wide")
    doc = json.loads(json.dumps(scenario_config_dict(sc)))
    if _builds_every_point(sc):
        assert parse_scenario_config(doc, sc.label) == sc
    else:
        with pytest.raises(ConfigError, match=r"^sweep\.grid\[\d+\]: "):
            parse_scenario_config(doc, sc.label)


def _root_list(doc):
    return [doc]


def _network_list_no_sweep(doc):
    del doc["sweep"]
    doc["network"] = [doc["network"]]
    return doc


def _mc_list(doc):
    doc["mc"] = [1, 2]
    return doc


def _set(path, value):
    """A mutation that sets one dotted config path, a whole section if undotted."""
    def mutate(doc):
        *section, key = path.split(".")
        (doc[section[0]] if section else doc)[key] = value
        return doc
    return mutate


def _not_json(doc):
    return "{" + json.dumps(doc)


def _unchanged(doc):
    return doc


_RUN = ["run", "--config", "CONFIG", "--out", "OUT"]


@pytest.mark.parametrize("mutate, argv, where", [
    (_root_list, ["run", "--config", "CONFIG", "--out", "OUT", "--preset", "fig2"], "config root"),
    (_root_list, ["validate", "--config", "CONFIG"], "config root"),
    (_root_list, ["run", "--config", "CONFIG", "--out", "OUT", "--seed", "3"], "config root"),
    (_network_list_no_sweep, ["validate", "--config", "CONFIG"], "network"),
    (_network_list_no_sweep, ["design", "radius", "--config", "CONFIG", "--pth", "1e-3",
                              "--ll", "3"], "network"),
    (_network_list_no_sweep, ["design", "util", "--config", "CONFIG", "--ll", "5",
                              "--lu", "10"], "network"),
    (_mc_list, ["run", "--config", "CONFIG", "--out", "OUT", "--seed", "3"], "mc"),
    (_set("sweep.grid", []), _RUN, "sweep.grid"),
    (_set("sweep", {"axis": "radius_m", "grid": [0.0, 500.0]}), _RUN, "sweep.grid"),
    (_set("outage_counts", [1, 30]), _RUN, "outage_counts"),
    (_set("rate.similarity_threshold", 0.2), _RUN, "rate.similarity_threshold"),
    (_set("mc", {"samples": -1}), _RUN, "mc.samples"),
    (_not_json, ["validate", "--config", "CONFIG"], "not valid JSON"),
    (_unchanged, _RUN + ["--mc-samples", "-1"], "--mc-samples"),
    (_unchanged, ["design", "util", "--config", "CONFIG", "--ll", "5", "--lu", "3"], "--ll"),
], ids=["root-run-preset", "root-validate", "root-run-seed", "network-validate",
        "network-design-radius", "network-design-util", "mc-run-seed", "empty-grid",
        "radius-not-positive", "counts-not-object", "m_th-outside-fit", "negative-mc-samples",
        "not-json", "negative-mc-samples-flag", "design-util-ll-above-lu"])
def test_malformed_config_exits_2(tmp_path, capsys, mutate, argv, where):
    doc = mutate(table1_config())
    config = tmp_path / "config.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    paths = {"CONFIG": str(config), "OUT": str(tmp_path / "out")}
    assert main([paths.get(arg, arg) for arg in argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", [
    "colour", "network.cell_radius", "similarity_fit.k", "rate.info_per_word", "sweep.step",
    "outage_counts.low", "util_counts.high", "mc.workers",
], ids=lambda path: path.split(".")[0] if "." in path else "root")
def test_unknown_key_exits_2(tmp_path, capsys, path):
    # a misspelt, retired or field-named key is rejected by its path, not
    # silently replaced by the default
    doc = _set(path, 2.5)(table1_config())
    argv = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {path}: unknown field\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, literal", [
    ("tx_power_w", "1" + "0" * 400),  # an integer no float can hold
    ("noise_density_dbm_per_hz", "4000.0"),  # 10^397 W/Hz
], ids=["int-literal", "dbm-overflow"])
def test_number_beyond_float_range_is_a_config_error(tmp_path, capsys, field, literal):
    doc = table1_config()
    doc["network"][field] = "LITERAL"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc).replace('"LITERAL"', literal))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"config error: network.{field}: " in capsys.readouterr().err


@pytest.mark.parametrize("where", ["mc.seed", "--seed"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, where, seed):
    # seeds that differ by a multiple of 2^64 would otherwise draw the same samples
    doc = table1_config()
    argv = ["validate", "--config", "CONFIG", "--mc-samples", "1000"]
    if where == "mc.seed":
        doc["mc"] = {"samples": 1000, "seed": seed}
    else:
        argv += ["--seed", str(seed)]
    cfg_path = str(write_config(tmp_path, doc))
    assert main([cfg_path if arg == "CONFIG" else arg for arg in argv]) == EXIT_CONFIG
    assert f"config error: {where}: " in capsys.readouterr().err


def test_largest_seed_runs(tmp_path):
    doc = table1_config()
    doc["sweep"] = {"axis": "radius_m", "grid": [400.0, 800.0]}
    doc["mc"] = {"samples": 2000, "seed": 2**64 - 1}
    cfg_path = write_config(tmp_path, doc)
    for extra in ([], ["--seed", str(2**64 - 1)]):
        out = tmp_path / f"out{len(extra)}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)] + extra) == EXIT_OK
        assert read_csv(out / "config.csv")[0]["mc_pi_h"]


class TestRunCommand:
    def test_run_writes_csv_and_manifest(self, tmp_path):
        doc = table1_config()
        doc["sweep"] = {"axis": "radius_m", "grid": [300.0, 600.0, 900.0]}
        cfg_path = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "out" / "config.csv")
        assert len(rows) == 3
        assert list(rows[0].keys())[:4] == ["axis_value", "pi_h", "pi_b", "pi_s"]
        assert float(rows[0]["axis_value"]) == 300.0
        # outage grows with the radius
        assert float(rows[2]["pi_h"]) > float(rows[0]["pi_h"])
        manifest = json.loads((tmp_path / "out" / "config.manifest.json").read_text())
        assert manifest["kind"] == "semcell-manifest"
        assert manifest["derived"]["g_sem"] is None
        assert manifest["derived"]["snr_gap"] == pytest.approx(3.5322, abs=1e-4)

    def test_manifest_records_the_event_intervals(self, tmp_path):
        # the semantic rate never (0.04), sometimes (0.12, 0.16) or always
        # (0.2, an empty utilization window) misses r_out
        for r_out in (0.04, 0.12, 0.16, 0.2):
            doc = table1_config()
            doc["rate"]["outage_rate_threshold"] = r_out
            sc = parse_scenario_config(doc, label="events")
            path = tmp_path / f"{r_out}.manifest.json"
            write_manifest(path, sc, preset=None)
            text = path.read_text()
            assert "Infinity" not in text
            derived = json.loads(text)["derived"]
            thr = thresholds(sc.scenario.cfg, sc.scenario.fit)
            bit, sem = thr.hybrid_outage_parts()
            window = thr.utilization_window()
            assert derived["hybrid_outage"] == {"bit": [list(i) for i in bit],
                                                "semantic": [list(i) for i in sem]}
            assert derived["utilization_window"] == (None if window is None else list(window))

    def test_config_error_exit_code(self, tmp_path):
        doc = table1_config()
        doc["network"]["tx_power_w"] = -5.0
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_manifest_round_trip_bytes(self, tmp_path):
        doc = table1_config()
        doc["sweep"] = {"axis": "edge_snr_db", "start": 15.0, "stop": 45.0, "points": 7}
        doc["mc"] = {"samples": 70_000, "seed": 11}
        cfg_path = write_config(tmp_path, doc)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["run", "--config", str(cfg_path), "--out", str(first)]) == EXIT_OK
        manifest = first / "config.manifest.json"
        assert main(["run", "--config", str(manifest), "--out", str(second)]) == EXIT_OK
        # the replay takes the manifest's label, so it writes the same file names
        assert (second / "config.csv").read_bytes() == (first / "config.csv").read_bytes()
        assert _without_versions(second / "config.manifest.json") == _without_versions(manifest)

    @pytest.mark.parametrize("manifest", sorted(OUTPUT.glob("fig*/*.manifest.json")),
                             ids=lambda path: path.name.removesuffix(".manifest.json"))
    def test_committed_manifest_replays_under_its_own_names(self, tmp_path, manifest):
        # a replay without --preset takes the manifest's label and preset
        assert main(["run", "--config", str(manifest), "--out", str(tmp_path)]) == EXIT_OK
        csv_name = manifest.name.replace(".manifest.json", ".csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == [csv_name, manifest.name]
        assert (tmp_path / csv_name).read_bytes() == (manifest.parent / csv_name).read_bytes()
        assert _without_versions(tmp_path / manifest.name) == _without_versions(manifest)

    @pytest.mark.parametrize("label", ["../escaped", "/absolute", 7, None])
    def test_manifest_label_must_be_a_file_name(self, tmp_path, capsys, label):
        doc = table1_config()
        manifest = {"kind": "semcell-manifest", "label": label, "preset": None, "config": doc}
        cfg_path = write_config(tmp_path, manifest, name="m.manifest.json")
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: label of manifest ")
        assert not (tmp_path / "out").exists()

    def test_numpy_scalars_write_the_same_csv(self, tmp_path):
        # a config built in code may carry numpy scalars; each cell is still written as a float
        sc = parse_scenario_config(table1_config(), label="plain")
        params = replace(sc.scenario.params, tx_power_w=np.float64(1.0))
        numpy_sc = replace(sc, label="numpy", grid=tuple(np.asarray(sc.grid)),
                           scenario=replace(sc.scenario, params=params))
        plain, _ = run_scenario(sc, tmp_path)
        numpy_csv, _ = run_scenario(numpy_sc, tmp_path)
        assert numpy_csv.read_bytes() == plain.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        doc = table1_config()
        doc["sweep"] = {"axis": "radius_m", "grid": [400.0, 800.0]}
        doc["mc"] = {"samples": 80_000, "seed": 3}
        cfg_path = write_config(tmp_path, doc)
        outputs = []
        for workers in ("1", "4", "16"):
            monkeypatch.setenv("SEMCELL_THREADS", workers)
            out = tmp_path / f"w{workers}"
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            outputs.append((out / "config.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("workers", ["0", "two"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("SEMCELL_THREADS", workers)
        cfg_path = write_config(tmp_path, table1_config())
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--mc-samples", "1000"]) == EXIT_CONFIG
        assert "SEMCELL_THREADS" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_config_without_sweep_runs_at_the_cell_radius(self, tmp_path):
        doc = table1_config()
        del doc["sweep"]
        doc["network"]["cell_radius_m"] = 750.0
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == EXIT_OK
        rows = read_csv(tmp_path / "a" / "config.csv")
        assert [float(row["axis_value"]) for row in rows] == [750.0]
        manifest = tmp_path / "a" / "config.manifest.json"
        assert main(["run", "--config", str(manifest), "--out", str(tmp_path / "b")]) == EXIT_OK
        replay = tmp_path / "b" / "config.csv"
        assert replay.read_bytes() == (tmp_path / "a" / "config.csv").read_bytes()

    def test_config_without_count_ranges_runs_from_one_to_num_users(self, tmp_path):
        doc = table1_config()
        del doc["outage_counts"], doc["util_counts"]
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "config.manifest.json").read_text(encoding="utf-8"))
        users = doc["network"]["num_users"]
        for key in ("outage_counts", "util_counts"):
            assert manifest["config"][key] == {"lo": 1, "hi": users}

    def test_bit_cutoff_beyond_the_kernel_range_runs(self, tmp_path):
        # g_bit is about 3.8e301, whose Kummer argument overflows: F there is 1
        doc = table1_config()
        doc["rate"]["outage_rate_threshold"] = 25.0
        doc["network"].update(pathloss_exp=4.5, cell_radius_m=1e4)
        del doc["sweep"]
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        [row] = read_csv(tmp_path / "config.csv")
        assert float(row["pi_b"]) == float(row["pi_h"]) == 1.0

    @pytest.mark.parametrize("where", ["existing_file", "under_a_file", "csv_is_a_directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        doc = table1_config()
        doc["sweep"] = {"axis": "radius_m", "grid": [500.0]}
        cfg_path = write_config(tmp_path, doc)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = {"existing_file": blocker, "under_a_file": blocker / "out",
               "csv_is_a_directory": tmp_path / "out"}[where]
        (tmp_path / "out" / "config.csv").mkdir(parents=True)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")
        assert blocker.read_text() == "kept"

    def test_preset_expansion_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, table1_config())
        out = tmp_path / "figs"
        code = main(["run", "--config", str(cfg_path), "--preset", "fig3",
                     "--out", str(out)])
        assert code == EXIT_OK
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["fig3_rout004.csv", "fig3_rout012.csv", "fig3_rout020.csv"]


class TestPresetDefinitions:
    def test_golden_parameters(self):
        base = table1_config()
        # the default scenario pins the standard constants
        assert base["network"]["noise_density_dbm_per_hz"] == -174.0
        assert base["network"]["total_bandwidth_hz"] == 2.0e7
        assert base["network"]["carrier_freq_hz"] == 2.4e9
        assert base["network"]["tx_power_w"] == 1.0
        assert base["network"]["pathloss_exp"] == 3.0
        assert base["network"]["num_users"] == 30
        assert base["similarity_fit"] == {"a1": 0.37, "a2": 0.98, "c1": 0.2525,
                                          "c2": -0.7895, "symbols_per_word": 5}
        assert base["rate"]["bit_symbols_per_word"] == 40
        assert base["rate"]["ber"] == 1e-3
        assert base["rate"]["similarity_threshold"] == 0.75
        assert base["rate"]["outage_rate_threshold"] == 0.04

        fig2 = dict(expand_preset(base, "fig2"))
        assert len(fig2) == 6
        m_ths = {parse_scenario_config(doc).scenario.cfg.m_th for doc in fig2.values()}
        assert m_ths == {0.6, 0.75, 0.9}
        modes = {parse_scenario_config(doc).scenario.cfg.use_capacity for doc in fig2.values()}
        assert modes == {True, False}

        fig4 = dict(expand_preset(base, "fig4"))
        for doc in fig4.values():
            sc = parse_scenario_config(doc)
            assert sc.scenario.params.pathloss_exp == 2.0
            assert sc.scenario.params.tx_power_w == 1e-3
            assert sc.outage_lo == 3
            assert sc.scenario.params.num_users in (10, 50)
            assert sc.scenario.cfg.r_out in (0.12, 0.16)

        fig5 = dict(expand_preset(base, "fig5"))
        assert {parse_scenario_config(doc).outage_lo for doc in fig5.values()} == {2, 4}
        for doc in fig5.values():
            assert parse_scenario_config(doc).scenario.cfg.r_out == 0.12

    def test_remaining_presets_golden(self):
        base = table1_config()
        fig3 = dict(expand_preset(base, "fig3"))
        assert {parse_scenario_config(doc).scenario.cfg.r_out
                for doc in fig3.values()} == {0.04, 0.12, 0.2}

        fig6 = dict(expand_preset(base, "fig6"))
        combos = {(parse_scenario_config(doc).scenario.cfg.m_th,
                   parse_scenario_config(doc).scenario.cfg.r_out)
                  for doc in fig6.values()}
        assert combos == {(0.75, 0.04), (0.9, 0.04), (0.75, 0.12)}
        for doc in fig6.values():
            assert parse_scenario_config(doc).sweep_axis == "radius_m"

        fig7 = dict(expand_preset(base, "fig7"))
        ranges = {(parse_scenario_config(doc).util_lo, parse_scenario_config(doc).util_hi)
                  for doc in fig7.values()}
        assert ranges == {(5, 10), (10, 20)}

    def test_expansions_equal_a_merge_into_fresh_copies(self):
        def merged(base, override):
            out = copy.deepcopy(base)
            for key, value in override.items():
                if isinstance(value, dict) and isinstance(out.get(key), dict):
                    out[key] = merged(out[key], value)
                else:
                    out[key] = copy.deepcopy(value)
            return out

        base = table1_config()
        for name, spec in PRESETS.items():
            common = merged(base, spec["base"])
            assert expand_preset(base, name) == [
                (f"{name}_{suffix}", merged(common, override))
                for suffix, override in spec["variants"]]

    def test_expanded_docs_share_no_object(self):
        pristine = copy.deepcopy(PRESETS)
        for name in PRESETS:
            config = table1_config()
            docs = expand_preset(config, name)
            expected = copy.deepcopy(docs)
            config["network"]["num_users"] = 0
            config["util_counts"]["lo"] = 99
            config["sweep"]["grid"].append(1e9)
            assert docs == expected, name
            for _, doc in docs:
                doc["sweep"]["grid"][0] = -1.0
                doc["sweep"]["grid"].append(1e9)
                doc["network"]["pathloss_exp"] = 9.0
                doc["util_counts"]["hi"] = -1
            assert PRESETS == pristine, name
            assert expand_preset(table1_config(), name) == expected, name

    def test_unknown_preset_raises_key_error(self):
        with pytest.raises(KeyError, match="fig9"):
            expand_preset(table1_config(), "fig9")

    def test_all_presets_parse(self):
        base = table1_config()
        for name in PRESETS:
            for label, doc in expand_preset(base, name):
                sc = parse_scenario_config(doc, label=label)
                assert len(sc.grid) > 1

    def test_fig4_sweep_brackets_designed_radius(self, tmp_path):
        # the generalized-outage curve from the fig4 sweep must cross the
        # 1e-3 design target between the grid points surrounding the
        # closed-form radius
        from semcell import DesignTarget, radius_for_outage_threshold, thresholds

        base = table1_config()
        doc = dict(expand_preset(base, "fig4"))["fig4_L10_rout012_mth075"]
        sc = parse_scenario_config(doc, label="fig4_L10_rout012_mth075")
        thr = thresholds(sc.scenario.cfg, sc.scenario.fit)
        target = DesignTarget.for_outage_cap(1e-3, 3, 10)
        solution = radius_for_outage_threshold(target, thr, sc.scenario.params)

        csv_path, _ = run_scenario(sc, tmp_path)
        rows = read_csv(csv_path)
        radii = [float(row["axis_value"]) for row in rows]
        probs = [float(row["s_range"]) for row in rows]
        assert radii[0] < solution.radius < radii[-1]
        crossings = [i for i in range(len(rows) - 1)
                     if (probs[i] - 1e-3) * (probs[i + 1] - 1e-3) < 0.0]
        assert len(crossings) == 1
        i = crossings[0]
        assert radii[i] <= solution.radius <= radii[i + 1]


class TestValidateCommand:
    def test_validate_passes_on_sane_scenario(self, tmp_path):
        doc = table1_config()
        doc["network"]["num_users"] = 4
        doc["network"]["cell_radius_m"] = 900.0
        del doc["sweep"]
        doc["mc"] = {"samples": 120_000, "seed": 42}
        cfg_path = write_config(tmp_path, doc)
        assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK

    def test_validate_passes_at_table1_defaults(self, tmp_path, capsys):
        # net_all (~1e-71) and util_range (~1 - 1e-10) are certain to come
        # out as 0 and 1 in the simulation; the score test must not flag them
        doc = table1_config()
        del doc["sweep"]
        doc["mc"] = {"samples": 200_000, "seed": 42}
        cfg_path = write_config(tmp_path, doc)
        assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert out.count("uninformative") == 2

    def test_validate_runs_at_the_configured_threshold(self, tmp_path, capsys):
        # a sweep does not move the one point: m_th stays at rate.similarity_threshold
        doc = table1_config()
        doc["network"]["cell_radius_m"] = 1500.0
        doc["sweep"] = {"axis": "m_th", "grid": [0.6, 0.9]}
        cfg_path = write_config(tmp_path, doc)
        main(["validate", "--config", str(cfg_path), "--mc-samples", "20000", "--seed", "1"])
        out = capsys.readouterr().out
        sc = parse_scenario_config(doc)
        report = outage_report(thresholds(sc.scenario.cfg, sc.scenario.fit), sc.scenario.params)
        for name in ("pi_h", "pi_b", "pi_s", "pi_g"):
            assert f"{name}: analytic={getattr(report, name):.6e} " in out, name

    def test_validate_notes_low_precision(self, tmp_path, capsys):
        doc = table1_config()
        del doc["sweep"]
        cfg_path = write_config(tmp_path, doc)
        for samples, noted in (("5000", True), ("20000", False)):
            main(["validate", "--config", str(cfg_path), "--mc-samples", samples, "--seed", "3"])
            assert ("low precision" in capsys.readouterr().out) == noted, samples

    def test_validate_catches_wrong_model(self, tmp_path, monkeypatch):
        # poison one closed form and the oracle must flag it
        import semcell.cli as cli_module

        doc = table1_config()
        doc["network"]["num_users"] = 4
        doc["network"]["cell_radius_m"] = 900.0
        del doc["sweep"]
        doc["mc"] = {"samples": 120_000, "seed": 42}
        cfg_path = write_config(tmp_path, doc)

        import semcell.outage

        true_fn = semcell.outage.user_outage_bit
        monkeypatch.setattr("semcell.outage.user_outage_bit",
                            lambda thr, params: min(1.0, 1.3 * true_fn(thr, params)))
        assert main(["validate", "--config", str(cfg_path)]) == EXIT_VALIDATION


@pytest.mark.parametrize("sweep", [
    {"axis": "r_out", "grid": [0.04, 30.0]},
    {"axis": "radius_m", "grid": [0.0, 500.0]},
    {"axis": "twist", "step": 2},
], ids=["r_out-beyond-float-range", "radius-not-positive", "unknown-axis-and-key"])
@pytest.mark.parametrize("argv", [
    ["validate", "--mc-samples", "20000", "--seed", "1"],
    ["design", "radius", "--pth", "1e-3", "--ll", "3"],
], ids=["validate", "design-radius"])
def test_one_point_commands_do_not_read_the_sweep(tmp_path, capsys, sweep, argv):
    doc = table1_config()
    doc["sweep"] = sweep
    cfg_path = write_config(tmp_path, doc)
    assert main(argv + ["--config", str(cfg_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""


class TestDesignCommands:
    def test_radius_json(self, tmp_path, capsys):
        doc = table1_config()
        doc["network"].update({"num_users": 10, "pathloss_exp": 2.0, "tx_power_w": 1e-3})
        doc["rate"]["outage_rate_threshold"] = 0.12
        cfg_path = write_config(tmp_path, doc)
        assert main(["design", "radius", "--config", str(cfg_path),
                     "--pth", "1e-3", "--ll", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pi_star"] == DesignTarget.for_outage_cap(1e-3, 3, 10).pi_star
        assert abs(payload["residual"]) <= 1e-12
        assert payload["radius_m"] > 0
        assert 1 <= payload["iterations"] <= 60

    def test_radius_json_numeric_reports_iterations(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, table1_config())
        assert main(["design", "radius", "--config", str(cfg_path),
                     "--pth", "1e-3", "--ll", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pi_star"] == DesignTarget.for_outage_cap(1e-3, 3, 30).pi_star
        assert abs(payload["residual"]) <= 1e-12
        assert 1 <= payload["iterations"] <= 60

    def test_radius_rejects_bad_count(self, tmp_path):
        cfg_path = write_config(tmp_path, table1_config())
        assert main(["design", "radius", "--config", str(cfg_path),
                     "--pth", "1e-3", "--ll", "99"]) == EXIT_CONFIG

    def test_util_json(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, table1_config())
        assert main(["design", "util", "--config", str(cfg_path),
                     "--ll", "5", "--lu", "10"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["semantic_possible"] is True
        assert payload["level_attainable"] is True
        assert len(payload["solutions"]) == 3
        assert payload["best_radius_m"] == pytest.approx(
            min(s["radius_m"] for s in payload["solutions"]), rel=1e-12)
        for solution in payload["solutions"]:
            assert 1 <= solution["iterations"] <= 60
            assert abs(solution["residual"]) <= 1e-9

    def test_util_json_without_maximizer(self, tmp_path, capsys):
        # P[count <= 10] falls as the utilization probability rises: the
        # stationary radius is listed but is no best radius
        cfg_path = write_config(tmp_path, table1_config())
        assert main(["design", "util", "--config", str(cfg_path),
                     "--ll", "0", "--lu", "10"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [s["equation"] for s in payload["solutions"]] == ["stationary"]
        assert payload["best_radius_m"] is None


class TestSolverFailureExit:
    def test_solver_error_maps_to_exit_3(self, tmp_path, monkeypatch):
        import semcell.cli as cli_module
        from semcell import SolverError

        def boom(*args, **kwargs):
            raise SolverError("no bracket")

        monkeypatch.setattr(cli_module, "radius_for_outage_threshold", boom)
        cfg_path = write_config(tmp_path, table1_config())
        assert main(["design", "radius", "--config", str(cfg_path),
                     "--pth", "1e-3", "--ll", "3"]) == 3

    @pytest.mark.parametrize("axis, grid", [("m_th", [0.6, 0.9]), ("r_out", [0.04, 0.2])])
    def test_failed_rate_crossing_on_a_threshold_sweep_exits_3(self, tmp_path, capsys,
                                                                 monkeypatch, axis, grid):
        # the parse builds the sweep's end points, whose thresholds solve g_max:
        # a failed solve there is a solver failure, not a config error
        import semcell.ratemodel as ratemodel_module
        from semcell import SolverError

        def boom(*args):
            raise SolverError("no rate crossing")

        monkeypatch.setattr(ratemodel_module, "_solve_rate_crossing", boom)
        doc = table1_config()
        doc["sweep"] = {"axis": axis, "grid": grid}
        cfg_path = write_config(tmp_path, doc)
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_SOLVER
        assert capsys.readouterr().err == "solver failure: no rate crossing\n"


def test_one_parser_serves_consecutive_commands(tmp_path, capsys):
    assert build_parser() is build_parser()
    doc = table1_config()
    doc["sweep"] = {"axis": "radius_m", "grid": [250.0, 500.0]}
    cfg_path = write_config(tmp_path, doc)
    for _ in range(2):
        with pytest.raises(SystemExit) as usage:
            main(["run"])
        assert usage.value.code == 2
        assert main(["run", "--config", str(cfg_path), "--preset", "fig3",
                     "--out", str(tmp_path / "preset")]) == EXIT_OK
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "plain")]) == EXIT_OK
        assert main(["design", "radius", "--config", str(cfg_path),
                     "--pth", "2", "--ll", "3"]) == EXIT_CONFIG
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    capsys.readouterr()
    assert [p.name for p in (tmp_path / "plain").glob("*.csv")] == ["config.csv"]
    assert len(list((tmp_path / "preset").glob("*.csv"))) == 3


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        doc = table1_config()
        doc["sweep"] = {"axis": "radius_m", "grid": [250.0, 500.0]}
        cfg_path = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "semcell", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "config.csv").exists()

    def test_python_dash_m_config_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "semcell", "run", "--config",
             str(tmp_path / "missing.json")],
            capture_output=True, text=True)
        assert proc.returncode == 2
