"""Batch entry point: JSON config in, manifest + CSV + JSON summary out.

Every run writes, atomically (write-temp-then-rename), into the output
directory: ``manifest.json`` echoing the fully resolved config, a JSON
``summary.json``, and CSV time series where the subcommand produces any.
Outputs carry no timestamps, so a fixed (config, seed) pair reproduces
every artifact byte for byte.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid
from .ioperator import MultiplierSpec, reports_to_csv
from .dynamics import (BlowUpError, EvolveConfig, almost_conservation_experiment,
                       evolve, l2_growth_audit, rough_datum)
from .bench import bilinear_sweep, strichartz_ratio_sweep
from .multverify import CATALOG, catalog_by_label, verify_bound
from .ledger import ledger_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GATE = 4

SUBCOMMANDS = ("simulate", "almost-conservation", "strichartz", "bilinear",
               "multiplier-verify", "ledger")


class ConfigError(ValueError):
    """Invalid run configuration; message carries file:line context."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict
    seed: int
    out_dir: str


def _key_line(text: str, key: str) -> int:
    """1-based line of the first occurrence of a JSON key, 0 if absent."""
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return 0


def _check_fields(obj: dict, allowed: dict, where: str, path: str, text: str):
    for key in obj:
        if key not in allowed:
            line = _key_line(text, key)
            raise ConfigError(
                f"{path}:{line}: unknown field '{key}' in {where} "
                f"(allowed: {', '.join(sorted(allowed))})")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"{path}:1: missing required field '{key}' in {where}")


_PARAM_FIELDS = {
    "simulate": {"dim": True, "n": True, "length": True, "dt": True,
                 "t_end": True, "datum": True, "diagnostics_every": False,
                 "N": False, "s": False},
    "almost-conservation": {"dim": True, "n": True, "length": True, "s": True,
                            "N_list": True, "window": True, "dt": False},
    "strichartz": {"q": True, "r": True, "T": True, "centers": False,
                   "seeds": False},
    "bilinear": {"seeds": False, "T": False},
    "multiplier-verify": {"cases": False, "N_list": False,
                          "samples_per_N": False, "cap": False,
                          "slope_gate": False, "s": False},
    "ledger": {"s_grid": True},
}


def load_config(path: str, seed_override=None, out_override=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        raw = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1: config must be a JSON object")
    _check_fields(raw, {"subcommand": True, "params": True, "seed": False,
                        "out_dir": False}, "config", path, text)
    sub = raw["subcommand"]
    if sub not in SUBCOMMANDS:
        line = _key_line(text, "subcommand")
        raise ConfigError(f"{path}:{line}: unknown subcommand '{sub}' "
                          f"(one of: {', '.join(SUBCOMMANDS)})")
    params = raw["params"]
    if not isinstance(params, dict):
        line = _key_line(text, "params")
        raise ConfigError(f"{path}:{line}: params must be a JSON object")
    _check_fields(params, _PARAM_FIELDS[sub], f"params for '{sub}'", path, text)
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if not isinstance(seed, int) or not (0 <= seed < 2 ** 64):
        line = _key_line(text, "seed")
        raise ConfigError(f"{path}:{line}: seed must be an integer in [0, 2^64)")
    out_dir = out_override if out_override is not None else raw.get("out_dir")
    if not out_dir:
        raise ConfigError(f"{path}:1: no output directory (out_dir field or --out)")
    return RunConfig(subcommand=sub, params=params, seed=seed, out_dir=str(out_dir))


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_artifacts(cfg: RunConfig, summary: dict, csvs: dict):
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = {"subcommand": cfg.subcommand, "params": cfg.params,
                "seed": cfg.seed, "out_dir": cfg.out_dir}
    atomic_write(os.path.join(cfg.out_dir, "manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    atomic_write(os.path.join(cfg.out_dir, "summary.json"),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for name, text in csvs.items():
        atomic_write(os.path.join(cfg.out_dir, name), text)


def _build_datum(grid: Grid, spec: dict, seed: int) -> Field:
    kind = spec.get("kind")
    if kind == "zero":
        return Field.zero(grid)
    if kind == "rough":
        return rough_datum(grid, float(spec.get("s", 0.9)), seed)
    if kind == "gaussian":
        amp = float(spec.get("amplitude", 0.1))
        width = float(spec.get("width", grid.length / 8))
        xs = grid.x_mesh()
        r2 = sum((x - grid.length / 2) ** 2 for x in xs)
        return Field.physical(grid, amp * np.exp(-r2 / (2 * width ** 2))
                              .astype(complex))
    raise ConfigError(f"datum kind must be one of zero/rough/gaussian, got {kind!r}")


# ---------------------------------------------------------------------------
# subcommand runners; each returns (summary dict, {csv name: text}, exit code)

def _run_simulate(cfg: RunConfig):
    p = cfg.params
    grid = Grid(dim=int(p["dim"]), n=int(p["n"]), length=float(p["length"]))
    u0 = _build_datum(grid, p["datum"], cfg.seed)
    ecfg = EvolveConfig(grid=grid, dt=float(p["dt"]), t_end=float(p["t_end"]),
                        diagnostics_every=int(p.get("diagnostics_every", 1)))
    specs = ()
    if "N" in p or "s" in p:
        if not ("N" in p and "s" in p):
            raise ConfigError("simulate: N and s must be given together")
        specs = (MultiplierSpec(N=float(p["N"]), s=float(p["s"])),)
    try:
        traj = evolve(u0, ecfg, specs)
    except BlowUpError as exc:
        csvs = {}
        if exc.trajectory is not None and exc.trajectory.reports:
            csvs["energy.csv"] = reports_to_csv(exc.trajectory.reports)
        return ({"status": "blow-up", "time": exc.time}, csvs, EXIT_NUMERIC)
    reports = list(traj.reports)
    for sp in specs:
        reports.extend(traj.reports_I[sp])
    audit = l2_growth_audit(traj)
    summary = {
        "status": "ok",
        "final_l2": traj.reports[-1].l2,
        "final_energy": traj.reports[-1].total,
        "l2_audit": {"differential_margin": audit.differential_margin,
                     "gronwall_margin": audit.gronwall_margin,
                     "violations": audit.violations},
    }
    return summary, {"energy.csv": reports_to_csv(reports)}, EXIT_OK


def _run_almost_conservation(cfg: RunConfig):
    p = cfg.params
    grid = Grid(dim=int(p["dim"]), n=int(p["n"]), length=float(p["length"]))
    s = float(p["s"])
    u0 = rough_datum(grid, s, cfg.seed)
    res = almost_conservation_experiment(u0, s, [float(N) for N in p["N_list"]],
                                         float(p["window"]),
                                         dt=float(p.get("dt", 2.5e-4)))
    lines = ["N,increment_window,increment_delta,delta,gradI_norm"]
    for r in res.rows:
        lines.append(f"{r.N:.17g},{r.increment_window:.17g},"
                     f"{r.increment_delta:.17g},{r.delta:.17g},{r.gradI_norm:.17g}")
    summary = {"status": "ok", "slope": res.fit.slope,
               "residual": res.fit.residual, "window": res.window, "s": s}
    return summary, {"increments.csv": "\n".join(lines) + "\n"}, EXIT_OK


def _parse_exponent(v):
    if v in ("inf", "Infinity"):
        return math.inf
    return float(v)


def _run_strichartz(cfg: RunConfig):
    p = cfg.params
    res = strichartz_ratio_sweep(_parse_exponent(p["q"]), _parse_exponent(p["r"]),
                                 float(p["T"]),
                                 centers=tuple(p.get("centers", (4, 8, 16, 32))),
                                 seeds=int(p.get("seeds", 4)), seed0=cfg.seed + 100)
    lines = ["center,mean_ratio"]
    for c, mval in zip(res["centers"], res["means"]):
        lines.append(f"{c:.17g},{mval:.17g}")
    summary = {"status": "ok", "slope": res["fit"].slope,
               "residual": res["fit"].residual, "q": str(p["q"]), "r": str(p["r"])}
    return summary, {"ratios.csv": "\n".join(lines) + "\n"}, EXIT_OK


def _run_bilinear(cfg: RunConfig):
    p = cfg.params
    res = bilinear_sweep(seeds=int(p.get("seeds", 20)), T=float(p.get("T", 0.5)),
                         seed0=cfg.seed + 1000)
    lines = ["axis,value,mean_ratio"]
    for ax, vals, means in (("N2", res["N2_axis"], res["N2_means"]),
                            ("N1", res["N1_axis"], res["N1_means"])):
        for v, mval in zip(vals, means):
            lines.append(f"{ax},{v:.17g},{mval:.17g}")
    summary = {"status": "ok", "N2_slope": res["N2_fit"].slope,
               "N1_slope": res["N1_fit"].slope, "seeds": res["seeds"]}
    return summary, {"ratios.csv": "\n".join(lines) + "\n"}, EXIT_OK


def _run_multiplier_verify(cfg: RunConfig):
    p = cfg.params
    wanted = p.get("cases", "all")
    cases = CATALOG if wanted == "all" else [catalog_by_label(lbl) for lbl in wanted]
    N_list = tuple(p.get("N_list", (4, 8, 16, 32)))
    reports = [verify_bound(c, N_list=N_list,
                            samples_per_N=int(p.get("samples_per_N", 10 ** 4)),
                            seed=cfg.seed, s=float(p.get("s", 0.75)),
                            cap=float(p.get("cap", 64.0)),
                            slope_gate=float(p.get("slope_gate", 0.1)))
               for c in cases]
    lines = ["case,max_ratio,slope,passed"]
    for r in reports:
        lines.append(f"{r.label},{r.max_ratio:.17g},{r.slope:.17g},{int(r.passed)}")
    failed = [r.label for r in reports if not r.passed]
    summary = {
        "status": "ok" if not failed else "gate-failure",
        "failed": failed,
        "flagged": {r.label: r.flagged for r in reports if r.flagged},
        "cases": {r.label: {"max_ratio": r.max_ratio, "slope": r.slope,
                            "per_N": {str(k): v for k, v in r.per_N.items()},
                            "passed": r.passed} for r in reports},
    }
    code = EXIT_OK if not failed else EXIT_GATE
    return summary, {"bounds.csv": "\n".join(lines) + "\n"}, code


def _run_ledger(cfg: RunConfig):
    rows = ledger_table(cfg.params["s_grid"])
    lines = ["s,e1,e2,e3,e4,dominant_index,step_exponent,energy_exponent,gwp,slack"]
    for r in rows:
        e = r["increment_exponents"]
        lines.append(f"{r['s']},{e[0]},{e[1]},{e[2]},{e[3]},"
                     f"{r['dominant_index']},{r['step_exponent']},"
                     f"{r['energy_exponent']},{int(r['gwp'])},{r['slack']}")
    return ({"status": "ok", "rows": rows}, {"ledger.csv": "\n".join(lines) + "\n"},
            EXIT_OK)


_RUNNERS = {
    "simulate": _run_simulate,
    "almost-conservation": _run_almost_conservation,
    "strichartz": _run_strichartz,
    "bilinear": _run_bilinear,
    "multiplier-verify": _run_multiplier_verify,
    "ledger": _run_ledger,
}


def run(cfg: RunConfig) -> int:
    try:
        summary, csvs, code = _RUNNERS[cfg.subcommand](cfg)
    except BlowUpError as exc:
        _write_artifacts(cfg, {"status": "blow-up", "time": exc.time}, {})
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid parameters for '{cfg.subcommand}': {exc}") from exc
    _write_artifacts(cfg, summary, csvs)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpilab", description="pseudo-spectral benches for a shifted "
        "Gross-Pitaevskii equation")
    parser.add_argument("--config", required=True, help="path to JSON run config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
