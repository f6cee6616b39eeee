"""Batch entry point: JSON config in, manifest + CSV + JSON summary out.

One table, ``_COMMANDS``, declares every subcommand's runner and params.
Every run writes, atomically (write-temp-then-rename), into the output
directory: ``manifest.json`` echoing the config resolved against that
table, every default included, a JSON ``summary.json``, and CSV time
series where the subcommand produces any.  Outputs carry no timestamps,
so a fixed (config, seed) pair reproduces every artifact byte for byte.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from .grid import Field, Grid
from .ioperator import MultiplierSpec
from .dynamics import (_AUDIT_RECORDS, AlmostConservationRow, BlowUpError, EvolveConfig,
                       _step_count, almost_conservation, evolve, l2_growth_audit,
                       rough_datum)
from .bench import (_GRID64, _band, bilinear_sweep, strichartz_admissible,
                    strichartz_ratio_sweep)
from .multverify import CATALOG, catalog_by_label, verify_bounds
from .ledger import ledger_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GATE = 4

REQUIRED = object()   # default of a field the config must give


class ConfigError(ValueError):
    """Invalid run configuration; message carries file:line context."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict
    seed: int
    out_dir: str


_DECODER = json.JSONDecoder()
_SEPARATORS = re.compile(r"[\s,:]*")


def _members(text: str, pos: int) -> dict:
    """key -> (1-based line of the key, offset of its value) for the JSON
    object whose ``{`` is at ``pos``; {} for any other value.  ``text`` has
    parsed already, so separators are skipped without checks."""
    out = {}
    if text[pos] != "{":
        return out
    pos = _SEPARATORS.match(text, pos + 1).end()
    while text[pos] != "}":
        line = text.count("\n", 0, pos) + 1
        key, pos = _DECODER.raw_decode(text, pos)
        pos = _SEPARATORS.match(text, pos).end()
        out[key] = (line, pos)
        pos = _SEPARATORS.match(text, _DECODER.raw_decode(text, pos)[1]).end()
    return out


def _one_of(choices):
    def cast(v):
        if v not in choices:
            raise ValueError(f"{v!r} is not one of: {', '.join(choices)}")
        return v
    return cast


def _count(v):   # a float with an integral value is taken as that integer
    if not (isinstance(v, int) or isinstance(v, float) and v.is_integer()) or v < 1:
        raise ValueError(f"must be a positive integer, got {v!r}")
    return int(v)


def _grid_dim(v):   # Grid's own rule, checked with the other fields valid
    return Grid(dim=_count(v), n=8, length=1.0).dim


def _grid_n(v):
    return Grid(dim=1, n=_count(v), length=1.0).n


def _seed(v):
    if not isinstance(v, int) or not 0 <= v < 2 ** 64:
        raise ValueError("seed must be an integer in [0, 2^64)")
    return v


def _real(v):   # type(), not isinstance(): a boolean is not a number here
    if type(v) not in (int, float) or not math.isfinite(v):
        raise ValueError(f"must be a finite JSON number, got {v!r}")
    return float(v)


def _exponent(v):   # checked here, read by the runner with float()
    if v not in ("inf", "Infinity"):
        _real(v)
    return v


def _positive(v):   # a length, a time span or a width
    if _real(v) <= 0:
        raise ValueError(f"must be a positive number, got {v!r}")
    return float(v)


def _window(v):   # a local step of the I-method, so at most 1
    if _positive(v) > 1:
        raise ValueError(f"must be at most 1, got {v!r}")
    return float(v)


def _frequency(v):   # MultiplierSpec's own rule, checked with a valid s
    return MultiplierSpec(N=_real(v), s=0.75).N


def _numbers(v):   # the frequencies of a fit
    if not isinstance(v, list) or len(v) < 2 or not all(_real(x) >= 1 for x in v):
        raise ValueError(f"must be a JSON array of two or more numbers >= 1, got {v!r}")
    if len(set(v)) < len(v):
        raise ValueError(f"must not repeat a value, got {v!r}")
    return v


def _s(v):
    return MultiplierSpec(N=1.0, s=_real(v)).s


def _centers(v):   # each band must hold a mode of the Strichartz bench's grid
    for N in _numbers(v):
        _band(_GRID64.xi_abs(), N)
    return v


def _s_grid(v):
    ledger_table(v)   # every s must be a number in (1/2, 1)
    return list(v)


def _cases(v):
    labels = {case.label for case in CATALOG}
    for label in ([] if v == "all" else v):
        if label not in labels:
            raise ValueError(f"unknown case label {label!r}")
    return v


def _cast(cast, value):
    if isinstance(value, bool):   # no field takes a boolean
        raise TypeError(f"booleans are not accepted, got {value!r}")
    return value if cast is None else cast(value)


def _resolve(obj, fields: dict, where: str, path: str, line: int, members: dict) -> dict:
    """Check ``obj``, whose key is on ``line`` and whose ``members`` come from
    `_members`, against ``fields``, name -> (cast, default) with cast None
    keeping the value as given; fill in the defaults.  Bad values are named
    before unknown fields, so a bad datum ``kind`` is named before the fields
    that only another kind allows."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}:{line}: {where} must be a JSON object")
    out = {}
    for name, (cast, default) in fields.items():
        value = obj.get(name, default)
        if value is not default:   # defaults are declared already resolved
            try:
                value = _cast(cast, value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}:{members.get(name, (0,))[0]}: field "
                                  f"'{name}' in {where}: {exc}") from exc
        out[name] = value
    for name in obj:
        if name not in fields:
            raise ConfigError(
                f"{path}:{members.get(name, (0,))[0]}: unknown field '{name}' in "
                f"{where} (allowed: {', '.join(sorted(fields))})")
    for name, value in out.items():
        if value is REQUIRED:
            raise ConfigError(f"{path}:{line}: missing required field '{name}' in {where}")
    return out


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
    files = {name: json.dumps(obj, indent=2, sort_keys=True) + "\n"
             for name, obj in (("manifest.json", manifest), ("summary.json", summary))}
    for name, text in {**files, **csvs}.items():
        atomic_write(os.path.join(cfg.out_dir, name), text)


def _csv(header: str, rows) -> str:
    """CSV text: numbers as ``.17g`` (booleans as 1/0), everything else as ``str``."""
    return "".join(",".join(f"{v:.17g}" if isinstance(v, (int, float, np.number))
                            else str(v) for v in row) + "\n"
                   for row in [(header,), *rows])


def _energy_csv(traj) -> str:
    """The E(u) rows of a trajectory, then each spec's E(Iu) rows: time, the
    record table's energy columns in their order, and the row's N and s."""
    per_row = zip(traj.labels, traj.energies.T.tolist())
    return _csv(",".join(("time", *traj.energies.dtype.names, "N", "s")),
                [(t, *e, *label) for label, rows in per_row
                 for t, e in zip(traj.snapshots["time"].tolist(), rows)])


def _build_datum(grid: Grid, datum: dict, seed: int) -> Field:
    if datum["kind"] == "zero":
        return Field.zero(grid)
    if datum["kind"] == "rough":
        return rough_datum(grid, datum["s"], seed)
    # in place in one real array; a real product is the complex one's real
    # part, and the Field's conversion to complex is its one copy
    g = sum((x - grid.length / 2) ** 2 for x in grid.x_mesh())
    np.divide(np.negative(g, out=g), 2 * datum["width"] ** 2, out=g)
    return Field(grid, np.multiply(datum["amplitude"], np.exp(g, out=g), out=g))


def _datum_fields(datum, length: float) -> dict:
    """Fields of the simulate datum for its kind; a gaussian is L/8 wide by default."""
    kinds = {"zero": {}, "rough": {"s": (_real, 0.9)},
             "gaussian": {"amplitude": (_real, 0.1), "width": (_positive, length / 8)}}
    kind = datum.get("kind") if isinstance(datum, dict) else None
    # str(): a kind that is not a string gets no fields and fails the kind check
    return {"kind": (_one_of(kinds), REQUIRED), **kinds.get(str(kind), {})}


# ---------------------------------------------------------------------------
# subcommand runners; each returns (summary dict, {csv name: text}, exit code)

def _run_simulate(cfg: RunConfig):
    p = cfg.params
    grid = Grid(dim=p["dim"], n=p["n"], length=p["length"])
    ecfg = EvolveConfig(grid=grid, dt=p["dt"], t_end=p["t_end"],
                        diagnostics_every=p["diagnostics_every"])
    specs = () if p["N"] is None else (MultiplierSpec(N=p["N"], s=p["s"]),)
    # unnamed, so that evolve frees the datum after its first transform
    traj = evolve(_build_datum(grid, p["datum"], cfg.seed), ecfg, specs)
    audit = l2_growth_audit(traj)
    total, l2 = traj.energies[["total", "l2"]][-1, 0].item()
    summary = {"status": "ok", "final_l2": l2, "final_energy": total,
               "l2_audit": dataclasses.asdict(audit)}
    return summary, {"energy.csv": _energy_csv(traj)}, EXIT_OK


def _run_almost_conservation(cfg: RunConfig):
    p = cfg.params
    grid = Grid(dim=p["dim"], n=p["n"], length=p["length"])
    ecfg = EvolveConfig(grid=grid, dt=p["dt"], t_end=p["window"])
    specs = [MultiplierSpec(N=N, s=p["s"]) for N in p["N_list"]]
    # unnamed, so that evolve frees the datum after its first transform
    res = almost_conservation(evolve(rough_datum(grid, p["s"], cfg.seed), ecfg, specs))
    csv = _csv(",".join(f.name for f in dataclasses.fields(AlmostConservationRow)),
               map(dataclasses.astuple, res.rows))
    summary = {"status": "ok", "slope": res.fit.slope,
               "residual": res.fit.residual, "window": p["window"], "s": p["s"]}
    return summary, {"increments.csv": csv}, EXIT_OK


def _run_strichartz(cfg: RunConfig):
    p = cfg.params
    res = strichartz_ratio_sweep(float(p["q"]), float(p["r"]), p["T"], centers=p["centers"],
                                 seeds=p["seeds"], seed0=cfg.seed + 100)
    summary = {"status": "ok", "slope": res["fit"].slope,
               "residual": res["fit"].residual, "q": str(p["q"]), "r": str(p["r"])}
    return (summary, {"ratios.csv": _csv("center,mean_ratio",
                                         zip(res["centers"], res["means"]))}, EXIT_OK)


def _run_bilinear(cfg: RunConfig):
    p = cfg.params
    res = bilinear_sweep(seeds=p["seeds"], T=p["T"], seed0=cfg.seed + 1000)
    rows = [(ax, v, mval) for ax in ("N2", "N1")
            for v, mval in zip(res[f"{ax}_axis"], res[f"{ax}_means"])]
    summary = {"status": "ok", "N2_slope": res["N2_fit"].slope,
               "N1_slope": res["N1_fit"].slope, "seeds": p["seeds"]}
    return summary, {"ratios.csv": _csv("axis,value,mean_ratio", rows)}, EXIT_OK


def _run_multiplier_verify(cfg: RunConfig):
    p = cfg.params
    cases = (CATALOG if p["cases"] == "all"
             else [catalog_by_label(label) for label in p["cases"]])
    reports = verify_bounds(cases, N_list=p["N_list"], samples_per_N=p["samples_per_N"],
                            seed=cfg.seed, s=p["s"], cap=p["cap"],
                            slope_gate=p["slope_gate"])
    csv = _csv("case,max_ratio,slope,passed",
               [(r.label, r.max_ratio, r.slope, r.passed) for r in reports])
    failed = [r.label for r in reports if not r.passed]
    summary = {"status": "gate-failure" if failed else "ok", "failed": failed,
               "flagged": {r.label: r.flagged for r in reports if r.flagged},
               "cases": {r.label: {"max_ratio": r.max_ratio, "slope": r.slope,
                                   "per_N": {str(k): v for k, v in r.per_N.items()},
                                   "passed": r.passed} for r in reports}}
    return summary, {"bounds.csv": csv}, EXIT_GATE if failed else EXIT_OK


def _run_ledger(cfg: RunConfig):
    rows = ledger_table(cfg.params["s_grid"])
    csv = _csv("s,e1,e2,e3,e4,dominant_index,step_exponent,energy_exponent,gwp,slack",
               [(r["s"], *r["increment_exponents"], r["dominant_index"],
                 r["step_exponent"], r["energy_exponent"], r["gwp"], r["slack"])
                for r in rows])
    return {"status": "ok", "rows": rows}, {"ledger.csv": csv}, EXIT_OK


# subcommand -> (runner, params); a param is name -> (cast, default)
_COMMANDS = {
    "simulate": (_run_simulate, {
        "dim": (_grid_dim, REQUIRED), "n": (_grid_n, REQUIRED),
        "length": (_positive, REQUIRED),
        "dt": (_positive, REQUIRED), "t_end": (_positive, REQUIRED),
        "datum": (None, REQUIRED), "diagnostics_every": (_count, 1),
        "N": (_frequency, None), "s": (_s, None)}),
    "almost-conservation": (_run_almost_conservation, {
        "dim": (_grid_dim, REQUIRED), "n": (_grid_n, REQUIRED),
        "length": (_positive, REQUIRED),
        "s": (_s, REQUIRED), "window": (_window, REQUIRED), "dt": (_positive, 2.5e-4),
        "N_list": (lambda v: [float(N) for N in _numbers(v)], REQUIRED)}),
    "strichartz": (_run_strichartz, {
        "q": (_exponent, REQUIRED), "r": (_exponent, REQUIRED), "T": (_positive, REQUIRED),
        "centers": (_centers, (4, 8, 16, 32)), "seeds": (_count, 4)}),
    "bilinear": (_run_bilinear, {"seeds": (_count, 20), "T": (_positive, 0.5)}),
    "multiplier-verify": (_run_multiplier_verify, {
        "cases": (_cases, "all"), "N_list": (_numbers, (4, 8, 16, 32)),
        "samples_per_N": (_count, 10 ** 4), "cap": (_real, 64.0),
        "slope_gate": (_real, 0.1), "s": (_s, 0.75)}),
    "ledger": (_run_ledger, {"s_grid": (_s_grid, REQUIRED)}),
}

_CONFIG = {"subcommand": (_one_of(_COMMANDS), REQUIRED), "params": (None, REQUIRED),
           "seed": (_seed, 0), "out_dir": (str, None)}


def _check_steps(params: dict, span: str, where: str, path: str, members: dict):
    """evolve's step rule, checked on load so that the error names the
    field: dt divides the run's span, and the record cadence, where the
    config has one, divides the step count; simulate's span also leaves
    the L^2 audit its fewest records."""
    every = params.get("diagnostics_every", 1)
    steps, broken = _step_count(params["dt"], params[span], every)
    if broken == "t_end":
        raise ConfigError(f"{path}:{members[span][0]}: field '{span}' in {where}: "
                          f"must be a whole multiple of dt = {params['dt']!r}, "
                          f"got {params[span]!r}")
    if broken:
        raise ConfigError(f"{path}:{members['diagnostics_every'][0]}: field "
                          f"'diagnostics_every' in {where}: must divide the {steps} "
                          f"steps, got {params['diagnostics_every']!r}")
    if span == "t_end" and (records := steps // every + 1) < _AUDIT_RECORDS:
        name = "diagnostics_every" if "diagnostics_every" in members else span
        raise ConfigError(f"{path}:{members[name][0]}: field '{name}' in {where}: makes "
                          f"{records} records; the L^2 audit needs {_AUDIT_RECORDS}")


def load_config(path: str, seed_override=None, out_override=None) -> RunConfig:
    overrides = {}
    for option, name, value in (("--seed", "seed", seed_override),
                                ("--out", "out_dir", out_override)):
        if value is not None:   # no line in the file: the error names the option
            try:
                overrides[name] = _cast(_CONFIG[name][0], value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"option {option}: {exc}") from exc
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        raw = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if isinstance(raw, dict):   # command-line overrides win
        raw.update(overrides)
    members = _members(text, _SEPARATORS.match(text).end())
    top = _resolve(raw, _CONFIG, "config", path, 1, members)
    sub = top["subcommand"]
    where = f"params for '{sub}'"
    line, pos = members["params"]
    members = _members(text, pos)
    params = _resolve(top["params"], _COMMANDS[sub][1], where, path, line, members)
    if sub == "simulate":
        line, pos = members["datum"]
        params["datum"] = _resolve(params["datum"],
                                   _datum_fields(params["datum"], params["length"]),
                                   "datum", path, line, _members(text, pos))
        if (params["N"] is None) != (params["s"] is None):
            given = "s" if params["N"] is None else "N"
            raise ConfigError(f"{path}:{members[given][0]}: N and s must be given "
                              f"together in {where}")
    if sub in ("simulate", "almost-conservation"):
        _check_steps(params, "t_end" if sub == "simulate" else "window", where, path,
                     members)
    if sub == "strichartz" and not strichartz_admissible(float(params["q"]),
                                                         float(params["r"])):
        raise ConfigError(f"{path}:{members['q'][0]}: field 'q' in {where}: "
                          f"(q, r) = ({params['q']}, {params['r']}) is not 3D-admissible")
    if not top["out_dir"]:
        raise ConfigError(f"{path}:1: no output directory (out_dir field or --out)")
    return RunConfig(sub, params, top["seed"], top["out_dir"])


def run(cfg: RunConfig) -> int:
    try:
        summary, csvs, code = _COMMANDS[cfg.subcommand][0](cfg)
    except BlowUpError as exc:      # keep the records made before it
        _write_artifacts(cfg, {"status": "blow-up", "time": exc.time},
                         {"energy.csv": _energy_csv(exc.trajectory)})
        return EXIT_NUMERIC
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
        return run(load_config(args.config, seed_override=args.seed,
                               out_override=args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
