"""End-to-end CLI tests: config validation, artifacts, exit codes."""

import hashlib
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gpilab.cli import (EXIT_CONFIG, EXIT_GATE, EXIT_NUMERIC, EXIT_OK,
                        ConfigError, atomic_write, load_config, main)
from gpilab.dynamics import _ENERGY, _SNAPSHOT, AlmostConservationRow, Trajectory
from oracles import fft_nan_from


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


@pytest.mark.parametrize("bad", [
    pytest.param({"seed": -1}, id="negative"),
    pytest.param({"seed": True}, id="true"),
    pytest.param({"seed": 2 ** 64}, id="2**64"),
    pytest.param({"subcommand": "almost-conservation",
                  "params": {"dim": True, "n": 16, "length": 6.283185307179586,
                             "s": 0.9, "N_list": [4], "window": 0.1}}, id="dim-true"),
])
def test_seed_must_be_u64(tmp_path, bad):
    path = write_config(tmp_path, {"subcommand": "ledger",
                                   "params": {"s_grid": []},
                                   "seed": 0, "out_dir": "x", **bad})
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


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_missing_output_directory_names_line_1(tmp_path):
    path = write_config(tmp_path, {"subcommand": "ledger", "params": {"s_grid": []}})
    with pytest.raises(ConfigError, match=r"cfg\.json:1: no output directory"):
        load_config(path)


def test_overrides_take_precedence(tmp_path):
    path = ledger_config(tmp_path, tmp_path / "a")
    cfg = load_config(path, seed_override=99, out_override=str(tmp_path / "b"))
    assert cfg.seed == 99
    assert cfg.out_dir.endswith("b")


@pytest.mark.parametrize("given", [{}, {"seed": 3}], ids=["no-seed", "seed-in-file"])
def test_bad_override_names_its_option(tmp_path, capsys, given):
    # an override has no line in the file, so the error names the option
    path = write_config(tmp_path, {"subcommand": "ledger", "params": {"s_grid": []},
                                   "out_dir": "x", **given})
    assert main(["--config", path, "--seed", "-1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: option --seed: seed must be")
    assert "cfg.json" not in err


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


def test_simulate_blow_up_exit_code(tmp_path, monkeypatch):
    # forward transforms return NaN from their 3rd call, the one of step 2
    for name, spec in (("boom", {}), ("boom_I", {"N": 4, "s": 0.9})):
        with monkeypatch.context() as patch:
            fft_nan_from(patch, 3)
            out = tmp_path / name
            path = write_config(tmp_path, {
                "subcommand": "simulate",
                "params": {"dim": 1, "n": 32, "length": 6.283185307179586,
                           "dt": 0.1, "t_end": 1.0,
                           "datum": {"kind": "gaussian", "amplitude": 1.0}, **spec},
                "seed": 0, "out_dir": str(out),
            })
            with np.errstate(all="ignore"):
                assert main(["--config", path]) == EXIT_NUMERIC
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "blow-up"
        # the records made before the blow-up, at least the one at t = 0
        rows = (out / "energy.csv").read_text().strip().split("\n")[1:]
        assert len(rows) >= 1 and rows[0].startswith("0,")
    # with a spec, the E(Iu) records are kept as well as the E(u) ones
    assert any(r.startswith("0,") and r.split(",")[5] == "4" for r in rows)


def test_simulate_overflow_blows_up_at_t0_with_no_record(tmp_path):
    import numpy as np
    out = tmp_path / "overflow"
    path = write_config(tmp_path, {
        "subcommand": "simulate",
        "params": {"dim": 1, "n": 32, "length": 6.283185307179586,
                   "dt": 0.1, "t_end": 1.0,
                   "datum": {"kind": "gaussian", "amplitude": 1e100}, "N": 4, "s": 0.9},
        "seed": 0, "out_dir": str(out),
    })
    with np.errstate(all="ignore"):
        assert main(["--config", path]) == EXIT_NUMERIC
    assert json.loads((out / "summary.json").read_text()) == {"status": "blow-up",
                                                              "time": 0.0}
    # the t = 0 record already overflows, so no record is kept
    assert (out / "energy.csv").read_text() == "time,kinetic,potential,total,l2,N,s\n"


@pytest.mark.pinned
def test_simulate_artifacts_pinned(tmp_path):
    # sha256 of a small 3D rough run and a small 1D gaussian run, each with
    # an I-spec, and of a small 1D almost-conservation sweep; any change to
    # the stepper, the record table, the audit, the ||grad Iu0|| column or
    # the CSV format shows here.  The 1D simulate was pinned when the record
    # table replaced per-record report objects, from the code before it.
    # Taken with numpy 2.4.6 on x86-64: another FFT or libm build may move them
    runs = [
        ("simulate", {"dim": 3, "n": 16, "length": 6.283185307179586, "dt": 0.01,
                      "t_end": 0.05, "datum": {"kind": "rough", "s": 0.9},
                      "N": 4, "s": 0.9}, {
            "summary.json":
                "5d41b7df38a60de131eafbade24c61d7bf8f6cc7c03deeb54b62fbe6c834f9de",
            "energy.csv":
                "447440452e817bd26b5ec75993c8252e6ce2b6b85b19339f151c14f88a8f6054"}),
        ("simulate", {"dim": 1, "n": 128, "length": 6.283185307179586, "dt": 0.005,
                      "t_end": 0.1, "datum": {"kind": "gaussian", "amplitude": 0.5},
                      "diagnostics_every": 2, "N": 4, "s": 0.8}, {
            "summary.json":
                "93a2616072f78a1c4f6bb52789575cd245aa4499b255e4ee9aa1f2a0ee88a5c2",
            "energy.csv":
                "4bb661fb92257e2900e7411c0e68287af4e249b0bcb180353d498f7e2018d738"}),
        ("almost-conservation", {"dim": 1, "n": 256, "length": 50.26548245743669,
                                 "s": 0.9, "N_list": [4, 8, 16], "window": 0.05}, {
            "summary.json":
                "6b2e4f5591ff901b77d6bc2ee01708e4c6d1cf6f1ae0d0d3df48cf5cd618a5cd",
            "increments.csv":
                "a442c54dd1b8ac596ccf16fd671b06f16b168ae67723b6112aa7ea8601ae8ba7"}),
    ]
    for i, (sub, params, want) in enumerate(runs):
        out = tmp_path / f"{sub}-{i}"
        path = write_config(tmp_path, {"subcommand": sub, "params": params,
                                       "seed": 1, "out_dir": str(out)})
        assert main(["--config", path]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in want}
        assert digests == want, (sub, params["dim"])


def test_gaussian_datum_is_the_dense_mesh_formula_bitwise():
    # x_mesh gives sparse axes; their broadcast sum adds the same numbers in
    # the same order as the dense meshes did, element by element
    from gpilab.cli import _build_datum
    from gpilab.grid import Grid
    g = Grid(3, 16, 6.283185307179586)
    assert [x.shape for x in g.x_mesh()] == [(16, 1, 1), (1, 16, 1), (1, 1, 16)]
    ax = np.arange(g.n) * g.dx
    r2 = sum((x - g.length / 2) ** 2 for x in np.meshgrid(ax, ax, ax, indexing="ij"))
    want = 0.7 * np.exp(-r2 / (2 * 0.9 ** 2)).astype(complex)
    got = _build_datum(g, {"kind": "gaussian", "amplitude": 0.7, "width": 0.9}, 0)
    assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))


@pytest.mark.memory
def test_gaussian_datum_peak_memory():
    # tracemalloc peak in real grid arrays: the datum is built in place in
    # one, and the Field's conversion to complex is its only copy
    import tracemalloc
    from gpilab.cli import _build_datum
    from gpilab.grid import Grid
    g = Grid(3, 32, 6.283185307179586)
    datum = {"kind": "gaussian", "amplitude": 0.1, "width": 0.8}
    tracemalloc.start()
    try:
        _build_datum(g, datum, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * g.n ** 3) < 3.2


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


@pytest.mark.parametrize("sub, params", [
    ("simulate", {"dim": 1, "n": 16, "length": 6.283185307179586, "dt": 0.03,
                  "t_end": 0.1, "datum": {"kind": "zero"}}),
    ("almost-conservation", {"dim": 1, "n": 16, "length": 6.283185307179586, "s": 0.9,
                             "N_list": [4, 8], "dt": 0.03, "window": 0.1}),
])
def test_dt_that_does_not_divide_the_run_is_config_error(tmp_path, sub, params):
    # the sweep takes the step rule of simulate: it runs the dt it records
    out = tmp_path / "out"
    path = write_config(tmp_path, {"subcommand": sub, "params": params,
                                   "out_dir": str(out)})
    assert main(["--config", path]) == EXIT_CONFIG
    assert not out.exists()


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


def test_atomic_write_cleans_up_when_replace_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        atomic_write(str(tmp_path / "a.txt"), "text")
    assert os.listdir(tmp_path) == []


def test_valid_strichartz_centers_are_recorded_as_given(tmp_path, monkeypatch):
    # the sweep itself is stubbed: only the centers' cast is under test
    import gpilab.cli as cli
    from gpilab.fitting import loglog_fit
    centers = [4, 8.0, 16]
    monkeypatch.setattr(cli, "strichartz_ratio_sweep", lambda *args, **kwargs: {
        "centers": kwargs["centers"], "means": [1.0, 1.0, 1.0],
        "fit": loglog_fit(centers, [1.0, 1.0, 1.0])})
    out = tmp_path / "out"
    path = write_config(tmp_path, {"subcommand": "strichartz",
                                   "params": {"q": 2, "r": 6, "T": 0.3, "centers": centers},
                                   "out_dir": str(out)})
    assert load_config(path).params["centers"] == centers
    assert main(["--config", path]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["centers"] == centers


@pytest.mark.parametrize("q", ["inf", "Infinity"])
def test_infinite_strichartz_exponent_reaches_the_sweep_as_inf(tmp_path, monkeypatch, q):
    # the sweep itself is stubbed: only the exponents' routing is under test
    import gpilab.cli as cli
    from gpilab.fitting import loglog_fit
    seen = []

    def stub(q, r, T, centers, **kwargs):
        seen.append((q, r))
        ones = [1.0] * len(centers)
        return {"centers": centers, "means": ones, "fit": loglog_fit(centers, ones)}

    monkeypatch.setattr(cli, "strichartz_ratio_sweep", stub)
    out = tmp_path / "out"
    path = write_config(tmp_path, {"subcommand": "strichartz",
                                   "params": {"q": q, "r": 2, "T": 0.3},
                                   "out_dir": str(out)})
    assert main(["--config", path]) == EXIT_OK
    assert seen == [(math.inf, 2.0)]
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["q"], summary["r"]) == (q, "2")


def test_bilinear_uses_config_seed(tmp_path, monkeypatch):
    # the sweep itself is stubbed: only the seed routing is under test
    import gpilab.cli as cli
    from gpilab.fitting import loglog_fit
    seen = []

    def stub(seeds, T, seed0):
        seen.append(seed0)
        flat = loglog_fit([1, 2], [1.0, 1.0])
        return {"N2_axis": [8], "N2_means": [1.0], "N1_axis": [4], "N1_means": [1.0],
                "N2_fit": flat, "N1_fit": flat}

    monkeypatch.setattr(cli, "bilinear_sweep", stub)
    for seed in (0, 5):
        path = write_config(tmp_path, {"subcommand": "bilinear",
                                       "params": {"seeds": 1}, "seed": seed,
                                       "out_dir": str(tmp_path / f"out{seed}")})
        assert main(["--config", path]) == EXIT_OK
    assert seen == [1000, 1005]


# ---------------------------------------------------------------------------
# resolution: the datum, case labels, the resolved manifest

def key_line(path, key):
    text = Path(path).read_text(encoding="utf-8")
    return next(i for i, line in enumerate(text.splitlines(), start=1)
                if f'"{key}"' in line)


@pytest.mark.parametrize("datum, key", [
    pytest.param({"kind": "gaussian", "amplitde": 5.0}, "amplitde", id="misspelled"),
    pytest.param("rough", "datum", id="not-an-object"),
    pytest.param({"kind": "gauss", "width": 1}, "kind", id="unknown-kind"),
])
def test_simulate_datum_is_validated(tmp_path, capsys, datum, key):
    path = write_config(tmp_path, {
        "subcommand": "simulate",
        "params": {"dim": 1, "n": 16, "length": 6.283185307179586,
                   "dt": 0.01, "t_end": 0.02, "datum": datum},
        "seed": 0, "out_dir": str(tmp_path / "sim"),
    })
    assert main(["--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:{key_line(path, key)}:" in err and key in err


SIMULATE_HEAD = ['{', ' "subcommand": "simulate",', ' "out_dir": "x",', ' "params": {',
                 '  "dim": 1, "n": 16, "length": 6.283185307179586,',
                 '  "dt": 0.01, "t_end": 0.02, "N": 4,']


@pytest.mark.parametrize("body, line", [
    pytest.param(['  "s": 0.9,', '  "datum": {', '   "kind": "rough",', '   "s": "x"',
                  '  }'], 10, id="bad-in-datum"),
    pytest.param(['  "datum": {', '   "kind": "rough",', '   "s": 0.9', '  },',
                  '  "s": "x"'], 11, id="bad-in-params"),
])
def test_field_line_is_taken_from_its_own_object(tmp_path, body, line):
    # "s" is a key of both params and the rough datum; the bad one is named
    path = tmp_path / "c2.json"
    path.write_text("\n".join(SIMULATE_HEAD + body + [' }', '}']) + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:{line}: field 's'")


@pytest.mark.parametrize("sub, params, key", [
    pytest.param("simulate", {"dim": 1, "n": 16, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.02, "datum": {"kind": "zero"},
                              "N": 4}, "N", id="N-without-s"),
    pytest.param("ledger", {"s_grid": ["3/4", "1/3"]}, "s_grid", id="s-out-of-range"),
    pytest.param("strichartz", {"q": "abc", "r": 6, "T": 0.3}, "q", id="bad-exponent"),
    pytest.param("strichartz", {"q": 2, "r": 6, "T": 0.3, "seeds": 0}, "seeds",
                 id="strichartz-no-seeds"),
    pytest.param("bilinear", {"seeds": 0}, "seeds", id="bilinear-no-seeds"),
    pytest.param("multiplier-verify", {"samples_per_N": 0}, "samples_per_N",
                 id="no-samples"),
    pytest.param("simulate", {"dim": 1.9, "n": 32, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.02, "datum": {"kind": "zero"}},
                 "dim", id="fractional-dim"),
    pytest.param("simulate", {"dim": 1, "n": 32.7, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.02, "datum": {"kind": "zero"}},
                 "n", id="fractional-n"),
    pytest.param("simulate", {"dim": 4, "n": 32, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.02, "datum": {"kind": "zero"}},
                 "dim", id="dim-4"),
    pytest.param("almost-conservation", {"dim": 1, "n": 100, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": [4, 8], "window": 0.01},
                 "n", id="n-not-power-of-two"),
    pytest.param("almost-conservation", {"dim": 1, "n": 64, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": "48", "window": 0.01},
                 "N_list", id="N_list-string"),
    pytest.param("multiplier-verify", {"N_list": "48"}, "N_list",
                 id="multiplier-N_list-string"),
    pytest.param("strichartz", {"q": 2, "r": 6, "T": 0.3, "centers": [4, "x"]},
                 "centers", id="centers-not-numbers"),
    pytest.param("multiplier-verify", {"cases": ["lwp-cubic/case1"], "cap": "nan"},
                 "cap", id="cap-string-nan"),
    pytest.param("strichartz", {"q": 2, "r": 6, "T": "0.5"}, "T", id="T-string"),
    pytest.param("strichartz", {"q": math.inf, "r": 2, "T": 0.3}, "q",
                 id="q-Infinity-number"),
    pytest.param("strichartz", {"q": 2, "r": "nan", "T": 0.3}, "r", id="r-string-nan"),
    pytest.param("simulate", {"dim": 1, "n": 32, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": math.inf, "datum": {"kind": "zero"}},
                 "t_end", id="t_end-infinity"),
    pytest.param("multiplier-verify", {"slope_gate": math.nan}, "slope_gate",
                 id="slope_gate-NaN"),
    pytest.param("strichartz", {"q": 2, "r": 6, "T": 0.3, "centers": [8]},
                 "centers", id="one-center"),
    pytest.param("multiplier-verify", {"N_list": [0.5, 4]}, "N_list",
                 id="N_list-below-1"),
    pytest.param("almost-conservation", {"dim": 1, "n": 64, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": [], "window": 0.01},
                 "N_list", id="N_list-empty"),
    pytest.param("strichartz", {"q": 2, "r": 6, "T": 0.3, "centers": [4, 1e6]},
                 "centers", id="center-not-resolvable"),
    pytest.param("strichartz", {"q": 2, "r": 6, "T": 0}, "T", id="T-zero"),
    pytest.param("bilinear", {"T": -0.5}, "T", id="bilinear-T-negative"),
    pytest.param("simulate", {"dim": 1, "n": 32, "length": 6.283185307179586,
                              "dt": 0, "t_end": 0.02, "datum": {"kind": "zero"}},
                 "dt", id="dt-zero"),
    pytest.param("simulate", {"dim": 1, "n": 32, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": -1.0, "datum": {"kind": "zero"}},
                 "t_end", id="t_end-negative"),
    pytest.param("simulate", {"dim": 1, "n": 32, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.02,
                              "datum": {"kind": "gaussian", "width": 0}},
                 "width", id="gaussian-width-zero"),
    pytest.param("almost-conservation", {"dim": 1, "n": 64, "length": -6.0, "s": 0.9,
                                         "N_list": [4, 8], "window": 0.01},
                 "length", id="length-negative"),
    pytest.param("almost-conservation", {"dim": 1, "n": 64, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": [4, 8], "window": 0},
                 "window", id="window-zero"),
    pytest.param("almost-conservation", {"dim": 1, "n": 64, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": [4, 8], "window": 1.5},
                 "window", id="window-above-1"),
    pytest.param("multiplier-verify", {"cases": ["cubic-pair/case2"], "N_list": [4, 4]},
                 "N_list", id="N_list-repeated"),
    pytest.param("almost-conservation", {"dim": 1, "n": 64, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": [4, 4], "window": 0.01},
                 "N_list", id="conservation-N_list-repeated"),
    pytest.param("strichartz", {"q": 2, "r": 6, "T": 0.3, "centers": [8, 4, 8.0]},
                 "centers", id="centers-repeated"),
    pytest.param("multiplier-verify", {"cases": ["cubic-pair/case2"], "s": 1.5}, "s",
                 id="multiplier-s-above-1"),
    pytest.param("almost-conservation", {"dim": 1, "n": 64, "length": 6.283185307179586,
                                         "s": 1.5, "N_list": [4, 8], "window": 0.01},
                 "s", id="conservation-s-above-1"),
    pytest.param("simulate", {"dim": 1, "n": 32, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.02, "datum": {"kind": "zero"},
                              "N": 4, "s": 0.5}, "s", id="simulate-s-at-half"),
    pytest.param("simulate", {"dim": 1, "n": 32, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.02, "datum": {"kind": "zero"},
                              "N": 0.5, "s": 0.9}, "N", id="simulate-N-below-1"),
    pytest.param("simulate", {"dim": 1, "n": 16, "length": 6.283185307179586,
                              "dt": 0.03, "t_end": 0.1, "datum": {"kind": "zero"}},
                 "t_end", id="t_end-not-a-multiple-of-dt"),
    pytest.param("simulate", {"dim": 1, "n": 16, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.1, "datum": {"kind": "zero"},
                              "diagnostics_every": 3},
                 "diagnostics_every", id="cadence-not-dividing-steps"),
    pytest.param("almost-conservation", {"dim": 1, "n": 16, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": [4, 8], "dt": 0.03,
                                         "window": 0.1},
                 "window", id="window-not-a-multiple-of-dt"),
    pytest.param("almost-conservation", {"dim": 1, "n": 16, "length": 6.283185307179586,
                                         "s": 0.9, "N_list": [4, 8], "window": 1e-4},
                 "window", id="window-below-default-dt"),
    pytest.param("simulate", {"dim": 1, "n": 16, "length": 6.283185307179586,
                              "dt": 0.01, "t_end": 0.1, "datum": {"kind": "zero"},
                              "diagnostics_every": 10},
                 "diagnostics_every", id="cadence-leaves-two-records"),
    pytest.param("simulate", {"dim": 1, "n": 16, "length": 6.283185307179586,
                              "dt": 0.1, "t_end": 0.1, "datum": {"kind": "zero"}},
                 "t_end", id="t_end-is-one-step"),
    pytest.param("strichartz", {"q": 4, "r": 4, "T": 0.3}, "q",
                 id="strichartz-inadmissible"),
])
def test_late_config_errors_are_found_on_load(tmp_path, sub, params, key):
    path = write_config(tmp_path, {"subcommand": sub, "params": params,
                                   "out_dir": str(tmp_path / "out")})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}:{key_line(path, key)}:")
    assert main(["--config", path]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_manifest_records_resolved_datum(tmp_path):
    out = tmp_path / "sim"
    path = write_config(tmp_path, {
        "subcommand": "simulate",
        "params": {"dim": 1, "n": 16, "length": 8.0, "dt": 0.01, "t_end": 0.02,
                   "datum": {"kind": "gaussian"}},
        "seed": 0, "out_dir": str(out),
    })
    assert main(["--config", path]) == EXIT_OK
    params = json.loads((out / "manifest.json").read_text())["params"]
    assert params["datum"] == {"kind": "gaussian", "amplitude": 0.1, "width": 1.0}
    assert params["diagnostics_every"] == 1


def test_unknown_case_label_names_its_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n "subcommand": "multiplier-verify",\n "params": {\n'
                    '  "cases": ["nope/x"]\n },\n "out_dir": "x"\n}\n')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert ":4:" in str(err.value) and "nope/x" in str(err.value)


def test_internal_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    # config errors come only from load: an error raised inside a runner,
    # a ValueError too, is an internal fault and propagates
    import gpilab.cli as cli

    path = write_config(tmp_path, {"subcommand": "multiplier-verify",
                                   "params": {"cases": ["cubic-pair/case2"]},
                                   "seed": 0, "out_dir": str(tmp_path / "mv")})
    for error in (KeyError, ValueError):
        def stub(*args, **kwargs):
            raise error("internal")

        monkeypatch.setattr(cli, "verify_bounds", stub)
        with pytest.raises(error):
            main(["--config", path])


def test_manifest_lists_defaults_and_reruns_byte_identically(tmp_path):
    out1, out2 = tmp_path / "first", tmp_path / "again"
    path = write_config(tmp_path, {
        "subcommand": "multiplier-verify",
        "params": {"cases": ["cubic-pair/case2", "lwp-cubic/case1"],
                   "samples_per_N": 200},
        "seed": 3, "out_dir": str(out1),
    })
    code = main(["--config", path])
    assert code in (EXIT_OK, EXIT_GATE)
    params = json.loads((out1 / "manifest.json").read_text())["params"]
    assert params == {"cases": ["cubic-pair/case2", "lwp-cubic/case1"],
                      "samples_per_N": 200, "N_list": [4, 8, 16, 32], "s": 0.75,
                      "cap": 64.0, "slope_gate": 0.1}
    assert main(["--config", str(out1 / "manifest.json"), "--out", str(out2)]) == code
    for name in ("summary.json", "bounds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = (out1 / "manifest.json").read_text()
    assert (out2 / "manifest.json").read_text() == manifest.replace(str(out1), str(out2))


# ---------------------------------------------------------------------------
# CSV format, with the library stubbed: numbers as .17g, labels as text

BIG = 123456789012345678   # an int that .17g writes in exponent form
THIRD = 0.1 + 0.2          # a float that needs all 17 digits
FIT = SimpleNamespace(slope=0.5, residual=0.0)


def _report(case):
    passed = case.label == "lwp-cubic/case1"
    return SimpleNamespace(label=case.label, max_ratio=BIG if passed else THIRD,
                           slope=-2, per_N={4: 1.0}, passed=passed, flagged=False)


def _trajectory(u0, cfg, specs):
    labels = [(math.inf, 1.0)] + [(sp.N, sp.s) for sp in specs]
    energies = np.full((3, len(labels)), np.array((THIRD, BIG, 2.5, 1.0), _ENERGY))
    return Trajectory(snapshots=np.array([(t, 1.0) for t in (0.0, 0.5, 1.0)], _SNAPSHOT),
                      energies=energies, labels=labels, final=u0, cfg=cfg)


def _ledger_rows(s_grid):
    return [{"s": s, "increment_exponents": [THIRD, "1/2", 7, "-5/2"],
             "dominant_index": 3, "dominant_exponent": "1/2", "step_exponent": "2/5",
             "energy_exponent": "1/5", "gwp": i == 1, "slack": "1/10"}
            for i, s in enumerate(s_grid)]


CSV_CASES = {
    "simulate": (
        "evolve", _trajectory,
        {"dim": 1, "n": 16, "length": 6.283185307179586, "dt": 0.5, "t_end": 1.0,
         "datum": {"kind": "zero"}, "N": 4, "s": 0.9},
        "energy.csv",
        "time,kinetic,potential,total,l2,N,s\n"
        "0,0.30000000000000004,1.2345678901234568e+17,2.5,1,inf,1\n"
        "0.5,0.30000000000000004,1.2345678901234568e+17,2.5,1,inf,1\n"
        "1,0.30000000000000004,1.2345678901234568e+17,2.5,1,inf,1\n"
        "0,0.30000000000000004,1.2345678901234568e+17,2.5,1,4,0.90000000000000002\n"
        "0.5,0.30000000000000004,1.2345678901234568e+17,2.5,1,4,0.90000000000000002\n"
        "1,0.30000000000000004,1.2345678901234568e+17,2.5,1,4,0.90000000000000002\n"),
    "almost-conservation": (
        "almost_conservation",
        lambda traj: SimpleNamespace(
            rows=[AlmostConservationRow(N=4.0, increment_window=THIRD,
                                        increment_delta=BIG, delta=-3, gradI_norm=1e-300)],
            fit=FIT),
        {"dim": 1, "n": 16, "length": 6.283185307179586, "s": 0.9,
         "N_list": [4, 8], "window": 0.25},
        "increments.csv",
        "N,increment_window,increment_delta,delta,gradI_norm\n"
        "4,0.30000000000000004,1.2345678901234568e+17,-3,1e-300\n"),
    "strichartz": (
        "strichartz_ratio_sweep",
        lambda *args, **kwargs: {"centers": [4, BIG], "means": [THIRD, 2], "fit": FIT},
        {"q": 2, "r": 6, "T": 0.3},
        "ratios.csv",
        "center,mean_ratio\n4,0.30000000000000004\n1.2345678901234568e+17,2\n"),
    "bilinear": (
        "bilinear_sweep",
        lambda seeds, T, seed0: {"N2_axis": [8, BIG], "N2_means": [THIRD, 1],
                                 "N1_axis": [4], "N1_means": [0.5],
                                 "N2_fit": FIT, "N1_fit": FIT},
        {"seeds": 1},
        "ratios.csv",
        "axis,value,mean_ratio\nN2,8,0.30000000000000004\n"
        "N2,1.2345678901234568e+17,1\nN1,4,0.5\n"),
    "multiplier-verify": (
        "verify_bounds", lambda cases, **kwargs: [_report(c) for c in cases],
        {"cases": ["cubic-pair/case2", "lwp-cubic/case1"]},
        "bounds.csv",
        "case,max_ratio,slope,passed\ncubic-pair/case2,0.30000000000000004,-2,0\n"
        "lwp-cubic/case1,1.2345678901234568e+17,-2,1\n"),
    "ledger": (
        "ledger_table", _ledger_rows,
        {"s_grid": ["3/4", "9/10"]},
        "ledger.csv",
        "s,e1,e2,e3,e4,dominant_index,step_exponent,energy_exponent,gwp,slack\n"
        "3/4,0.30000000000000004,1/2,7,-5/2,3,2/5,1/5,0,1/10\n"
        "9/10,0.30000000000000004,1/2,7,-5/2,3,2/5,1/5,1,1/10\n"),
}


@pytest.mark.pinned
@pytest.mark.parametrize("sub", sorted(CSV_CASES))
def test_csv_format_pinned(tmp_path, monkeypatch, sub):
    import gpilab.cli as cli
    target, stub, params, name, expected = CSV_CASES[sub]
    monkeypatch.setattr(cli, target, stub)
    path = write_config(tmp_path, {"subcommand": sub, "params": params, "seed": 0,
                                   "out_dir": str(tmp_path / "out")})
    assert main(["--config", path]) in (EXIT_OK, EXIT_GATE)
    assert (tmp_path / "out" / name).read_text() == expected
