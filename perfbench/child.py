"""One benchmark rep in a fresh process: set up, run one workload once, check it.

run.py starts this file with one JSON argument and the thread variables
already pinned to 1 in the environment; the last stdout line is the
rep's result as JSON.  Set-up (imports, the run config, the span
recorder) ends at ``t_ready``; the timed part is one call of the
workload; checks and artifact hashing come after the clock stops.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
from spans import ROOT_SPAN, Recorder

TWO_PI = 2 * math.pi


class CliWorkload:
    """One ``gpilab`` subcommand run in-process through ``gpilab.cli.main``."""

    def __init__(self, subcommand, params, exit_codes, post):
        self.subcommand = subcommand
        self.params = params
        self.exit_codes = exit_codes
        self._post = post

    def prepare(self, seed, art):
        from gpilab import cli

        config = art.parent / "config.json"
        config.write_text(json.dumps({"subcommand": self.subcommand,
                                      "params": self.params, "seed": seed,
                                      "out_dir": str(art)}))
        return lambda: cli.main(["--config", str(config)])

    def finish(self, code, art):
        return checks.read_artifacts(art)

    def post(self, code, files):
        headline, verdicts, errors = self._post(code, files)
        if code not in self.exit_codes:
            errors.append(f"exit code {code}, expected one of {self.exit_codes}")
        verdicts["exit_code"] = code
        return headline, verdicts, errors


def _post_conservation(code, files):
    summary = json.loads(files["summary.json"])
    incs = [float(line.split(",")[1])
            for line in files["increments.csv"].splitlines()[1:]]
    decreasing = all(a > b for a, b in zip(incs, incs[1:]))
    slope = summary["slope"]
    gate = decreasing and slope <= -0.5
    return ({"almost-conservation": f"slope {slope:.2f}, decreasing {decreasing}"},
            {"gate08": f"slope {slope:.2f} (<= -0.5), decreasing {decreasing}: "
                       f"{'PASS' if gate else 'FAIL'}"},
            [])


def _post_simulate(code, files):
    summary = json.loads(files["summary.json"])
    errors = checks.simulate_errors(summary, files["energy.csv"])
    audit = summary["l2_audit"]
    e = checks.energy_series(files["energy.csv"])
    return ({"l2-audit": f"diff margin {audit['differential_margin']:.3e}, "
                         f"gronwall margin {audit['gronwall_margin']:.3e}, "
                         f"violations {audit['violations']}",
             "energy": f"E(u) {e[0]:.4f} -> {e[1]:.4f}"},
            {"first_record_energy_change": f"{(e[1] - e[0]) / e[0]:+.2%} "
                                           f"({e[0]:.4f} -> {e[1]:.4f})"},
            errors)


def _post_multiplier(code, files):
    summary = json.loads(files["summary.json"])
    cases = summary["cases"]
    label = max(cases, key=lambda c: cases[c]["max_ratio"])
    failed = summary["failed"]
    errors = []
    if (code == 4) != bool(failed):
        errors.append(f"exit code {code} disagrees with failed cases {failed}")
    return ({"multiplier-verify": f"{len(cases)} cases, worst max_ratio "
                                  f"{cases[label]['max_ratio']:.2f} ({label})"},
            {"gate_failures": ", ".join(
                f"{c} slope {cases[c]['slope']:.3f}" for c in failed) or "none"},
            errors)


class Dispersive:
    """bilinear_ratio over bilinear_sweep's six (N1, N2) pairs, then the
    (2, 6) Strichartz sweep, through the library: the ``bilinear``
    subcommand ignores the config seed."""

    # bilinear_sweep's N2 axis at N1 = 8, then its N1 axis at N2 = 16
    PAIRS = ((8, 8), (8, 16), (8, 32), (4, 16), (8, 16), (16, 16))
    T = 0.5

    def prepare(self, seed, art):
        from gpilab import bench

        def run():
            stats = [bench.bilinear_ratio(n1, n2, 1, self.T, seed0=seed)
                     for n1, n2 in self.PAIRS]
            sweep = bench.strichartz_ratio_sweep(2, 6, self.T, centers=(4, 8, 16, 32),
                                                 seeds=1, seed0=seed + 100)
            return stats, sweep
        return run

    def finish(self, value, art):
        from gpilab.fitting import loglog_fit

        stats, sweep = value
        means = [s.mean for s in stats]
        doc = {
            "bilinear": [[n1, n2, m] for (n1, n2), m in zip(self.PAIRS, means)],
            "N2_slope": loglog_fit([8, 16, 32], means[:3]).slope,
            "N1_slope": loglog_fit([4, 8, 16], means[3:]).slope,
            "strichartz": [[c, m] for c, m in zip(sweep["centers"], sweep["means"])],
            "strichartz_slope": sweep["fit"].slope,
        }
        art.mkdir(parents=True, exist_ok=True)
        (art / "ratios.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return checks.read_artifacts(art)

    def post(self, value, files):
        doc = json.loads(files["ratios.json"])
        n2, n1, st = doc["N2_slope"], doc["N1_slope"], doc["strichartz_slope"]
        window = -0.65 <= n2 <= -0.35 and 0.8 <= n1 <= 1.2
        return ({"bilinear": f"N2 slope {n2:.3f}, N1 slope {n1:.3f}",
                 "strichartz": f"slope {st:+.3f}"},
                {"gate05_window": f"N2 slope {n2:.3f} in [-0.65, -0.35], N1 slope "
                                  f"{n1:.3f} in [0.8, 1.2]: {'PASS' if window else 'FAIL'}",
                 "strichartz": f"|slope| {abs(st):.3f} <= 0.1: "
                               f"{'PASS' if abs(st) <= 0.1 else 'FAIL'}"},
                [])


WORKLOADS = {
    "dispersive": Dispersive(),
    "conservation": CliWorkload(
        "almost-conservation",
        {"dim": 1, "n": 1024, "length": 8 * TWO_PI, "s": 0.9,
         "N_list": [4, 8, 16, 32], "window": 0.25, "dt": 2.5e-4},
        (0,), _post_conservation),
    "simulate-3d": CliWorkload(
        "simulate",
        {"dim": 3, "n": 64, "length": TWO_PI, "dt": 1e-3, "t_end": 0.05,
         "datum": {"kind": "rough", "s": 0.9}, "diagnostics_every": 10,
         "N": 8, "s": 0.9},
        (0,), _post_simulate),
    # exit code 4 is the program's slope-gate verdict (a known defect on
    # some seeds), not a benchmark failure
    "multiplier": CliWorkload(
        "multiplier-verify",
        {"cases": "all", "N_list": [4, 8, 16, 32], "samples_per_N": 10 ** 4,
         "s": 0.75, "cap": 64.0, "slope_gate": 0.1},
        (0, 4), _post_multiplier),
}


def main(spec: dict) -> dict:
    result = {}
    try:
        import numpy

        import gpilab
        import gpilab.cli  # noqa: F401  (imports every layer)

        where = Path(gpilab.__file__).resolve().parent
        if where != (Path(spec["root"]) / "src" / "gpilab").resolve():
            raise RuntimeError(f"gpilab was imported from {where}")
        result["numpy"] = numpy.__version__
        art = Path(spec["out"]) / "artifacts"
        workload = WORKLOADS[spec["workload"]]
        run = workload.prepare(spec["seed"], art)
        recorder = None
        if spec["spans"]:
            recorder = Recorder(f"{spec['workload']}/{spec['seed']}/{spec['rep']}")
            recorder.install()
            run = recorder.wrap(ROOT_SPAN, run)
        result["t_ready"] = time.monotonic()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        value = run()
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            run_s=t1 - t0,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0)
        files = workload.finish(value, art)
        result["digests"] = checks.digests(files)
        errors = [f"non-finite value at {loc}" for name, text in files.items()
                  for loc in checks.nonfinite(name, text)]
        headline, verdicts, more = workload.post(value, files)
        result.update(headline=headline, verdicts=verdicts, errors=errors + more)
        if recorder is not None:
            recorder.dump(spec["spans"])
    except Exception:
        result["errors"] = [traceback.format_exc()]
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
