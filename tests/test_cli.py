"""End-to-end CLI tests: config validation, artifacts, exit codes."""

import json
import math
import os

import pytest

from gpilab.cli import (EXIT_CONFIG, EXIT_GATE, EXIT_NUMERIC, EXIT_OK,
                        ConfigError, load_config, main)


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def ledger_config(tmp_path, out):
    return write_config(tmp_path, {
        "subcommand": "ledger",
        "params": {"s_grid": ["3/4", "5/6", "9/10"]},
        "seed": 1,
        "out_dir": str(out),
    })


# ---------------------------------------------------------------------------
# config validation

def test_unknown_top_level_field_is_line_precise(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n "subcommand": "ledger",\n "params": {"s_grid": []},\n'
                    ' "bogus": 1,\n "out_dir": "x"\n}\n')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert ":4:" in str(err.value) and "bogus" in str(err.value)


def test_unknown_param_field_rejected(tmp_path):
    path = write_config(tmp_path, {
        "subcommand": "ledger",
        "params": {"s_grid": [], "extra": True},
        "out_dir": "x",
    })
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "extra" in str(err.value)


def test_bad_subcommand_rejected(tmp_path):
    path = write_config(tmp_path, {"subcommand": "nope", "params": {},
                                   "out_dir": "x"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_required_param_rejected(tmp_path):
    path = write_config(tmp_path, {"subcommand": "ledger", "params": {},
                                   "out_dir": "x"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_seed_must_be_u64(tmp_path):
    path = write_config(tmp_path, {"subcommand": "ledger",
                                   "params": {"s_grid": []},
                                   "seed": -1, "out_dir": "x"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_json_syntax_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"subcommand": "ledger",\n  "params": }\n')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert ":2:" in str(err.value)


def test_cli_exit_code_for_config_error(tmp_path):
    path = write_config(tmp_path, {"subcommand": "ledger",
                                   "params": {"wrong": 1}, "out_dir": "x"})
    assert main(["--config", path]) == EXIT_CONFIG


def test_overrides_take_precedence(tmp_path):
    path = ledger_config(tmp_path, tmp_path / "a")
    cfg = load_config(path, seed_override=99, out_override=str(tmp_path / "b"))
    assert cfg.seed == 99
    assert cfg.out_dir.endswith("b")


# ---------------------------------------------------------------------------
# runs and artifacts

def test_ledger_run_writes_expected_artifacts(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", ledger_config(tmp_path, out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert [r["gwp"] for r in summary["rows"]] == [False, False, True]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "ledger"
    csv = (out / "ledger.csv").read_text().strip().split("\n")
    assert len(csv) == 4   # header + three rows


def test_manifest_round_trips_through_parser(tmp_path):
    out = tmp_path / "out"
    main(["--config", ledger_config(tmp_path, out)])
    cfg = load_config(str(out / "manifest.json"))
    assert cfg.subcommand == "ledger" and cfg.seed == 1


def test_simulate_zero_datum_writes_zero_energy(tmp_path):
    out = tmp_path / "sim"
    path = write_config(tmp_path, {
        "subcommand": "simulate",
        "params": {"dim": 1, "n": 32, "length": 6.283185307179586,
                   "dt": 0.01, "t_end": 0.05, "datum": {"kind": "zero"}},
        "seed": 0, "out_dir": str(out),
    })
    assert main(["--config", path]) == EXIT_OK
    rows = (out / "energy.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 6
    for row in rows:
        _, kin, pot, tot, l2, _, _ = row.split(",")
        assert float(kin) == float(pot) == float(tot) == float(l2) == 0.0


def test_simulate_blow_up_exit_code(tmp_path):
    out = tmp_path / "boom"
    path = write_config(tmp_path, {
        "subcommand": "simulate",
        "params": {"dim": 1, "n": 32, "length": 6.283185307179586,
                   "dt": 0.1, "t_end": 1.0,
                   "datum": {"kind": "gaussian", "amplitude": 80.0}},
        "seed": 0, "out_dir": str(out),
    })
    import numpy as np
    with np.errstate(all="ignore"):
        assert main(["--config", path]) == EXIT_NUMERIC
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blow-up"


def test_multiplier_verify_gate_failure_exit(tmp_path):
    out = tmp_path / "mv"
    path = write_config(tmp_path, {
        "subcommand": "multiplier-verify",
        "params": {"cases": ["lwp-cubic/case1"], "N_list": [4, 8],
                   "samples_per_N": 200, "cap": 1e-9},
        "seed": 0, "out_dir": str(out),
    })
    assert main(["--config", path]) == EXIT_GATE
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] == ["lwp-cubic/case1"]


def test_inadmissible_strichartz_pair_is_config_error(tmp_path):
    path = write_config(tmp_path, {
        "subcommand": "strichartz",
        "params": {"q": 4, "r": 4, "T": 0.3},
        "seed": 0, "out_dir": str(tmp_path / "st"),
    })
    assert main(["--config", path]) == EXIT_CONFIG


def test_identical_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    path = write_config(tmp_path, {
        "subcommand": "multiplier-verify",
        "params": {"cases": ["cubic-pair/case2"], "N_list": [4, 8],
                   "samples_per_N": 500},
        "seed": 11, "out_dir": "placeholder",
    })
    assert main(["--config", path, "--out", str(out1)]) == EXIT_OK
    assert main(["--config", path, "--out", str(out2)]) == EXIT_OK
    for name in ("summary.json", "bounds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_no_stray_temp_files_after_run(tmp_path):
    out = tmp_path / "out"
    main(["--config", ledger_config(tmp_path, out)])
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


def test_bilinear_uses_config_seed(tmp_path, monkeypatch):
    # the sweep itself is stubbed: only the seed routing is under test
    import gpilab.cli as cli
    from gpilab.fitting import loglog_fit
    seen = []

    def stub(seeds, T, seed0):
        seen.append(seed0)
        flat = loglog_fit([1, 2], [1.0, 1.0])
        return {"N2_axis": [8], "N2_means": [1.0], "N1_axis": [4], "N1_means": [1.0],
                "N2_fit": flat, "N1_fit": flat, "seeds": seeds}

    monkeypatch.setattr(cli, "bilinear_sweep", stub)
    for seed in (0, 5):
        path = write_config(tmp_path, {"subcommand": "bilinear",
                                       "params": {"seeds": 1}, "seed": seed,
                                       "out_dir": str(tmp_path / f"out{seed}")})
        assert main(["--config", path]) == EXIT_OK
    assert seen == [1000, 1005]
