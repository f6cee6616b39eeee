"""Outside-in benchmark for gpilab: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload conservation --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --self-test         # the checks' negative controls

One run makes reps of one workload, one after another, each in a fresh
single-threaded child process (child.py) that sets up, runs the workload
once and checks its outputs.  Reps continue while the next one is
expected to end within ``--seconds``; at least two are made, so that
artifacts of a repeated seed can be compared byte for byte.  With
``--trace 1`` reps alternate untraced and traced, and the traced ones
give the per-layer metrics from their spans (spans.py).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, each rep, the program's own verdicts and the metrics with
units.  Only the standard library is imported here: numpy and gpilab are
imported by the children, from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-out"
WORKLOADS = ("dispersive", "conservation", "simulate-3d", "multiplier")
DEFAULT_SEED = 1
DEADLINE_S = 150.0          # a run ends well inside the 180 s limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# single-call timings at 64^3 from ROADMAP's Baseline table, in ms
BASELINE_MS = {"grid.fft.ifftn@262144": 10.0, "exp@262144": 11.6,
               "grid.xi_abs@262144": 5.2, "ioperator.modified_energy@262144": 43.6}


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"cpu={cpu!r}")


def run_rep(workload, seed, rep, traced, work, timeout) -> dict:
    out = work / "rep"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spans_path = work / f"spans-{rep}.json" if traced else None
    spec = {"root": str(ROOT), "workload": workload, "seed": seed, "rep": rep,
            "out": str(out), "spans": str(spans_path) if spans_path else None}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    wall = time.monotonic() - t0
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"errors": [f"child exited with code {proc.returncode}: "
                             f"{stderr.strip()[-2000:]}"]}
    result.update(rep=rep, traced=traced, wall_s=wall)
    if "t_ready" in result:
        result["setup_s"] = result["t_ready"] - t0
    if traced and "run_s" in result and not result.get("errors"):
        with open(spans_path, encoding="utf-8") as fh:
            counts, times, per_call = spans.aggregate(json.load(fh))
        result.update(counts=counts, times=times, per_call=per_call)
    return result


def run_workload(workload, seed, seconds, trace) -> tuple:
    """All reps of one run; returns (reps, per-rep failure reasons)."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    min_reps = 4 if trace else 2
    reps = []
    start = time.monotonic()
    while True:
        if reps:
            elapsed = time.monotonic() - start
            walls = [r["wall_s"] for r in reps]
            if len(reps) >= min_reps and elapsed + statistics.median(walls) > seconds:
                break
            if elapsed + max(walls) > DEADLINE_S:
                break
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - start))
        reps.append(run_rep(workload, seed, len(reps), trace and len(reps) % 2 == 1,
                            work, timeout))
    golden = None
    if seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[workload]
    return reps, checks.rep_failures(reps, golden)


def median_of(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def report(workload, seed, seconds, trace, reps, failures) -> dict:
    """Print the human-readable lines and return the result object."""
    numpy_version = next((r["numpy"] for r in reps if "numpy" in r), "unknown")
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"env {environment()} numpy={numpy_version}")
    for r, why in zip(reps, failures):
        nums = " ".join(f"{k}={r[k]:.4f}" for k in ("run_s", "cpu_s", "setup_s",
                                                   "peak_rss_mb") if k in r)
        tag = "traced" if r["traced"] else "untraced"
        print(f"rep {r['rep']} {tag} {nums} check={'FAIL' if why else 'ok'}")
        for reason in why:
            print(f"  failed: {reason}")
        for name, verdict in r.get("verdicts", {}).items():
            print(f"  verdict {name}: {verdict}")
    for name, text in (reps[0].get("headline") or {}).items():
        print(f"headline {name}: {text}")
    failed = sum(1 for why in failures if why)
    untraced = [r for r, why in zip(reps, failures) if not why and not r["traced"]]
    traced = [r for r, why in zip(reps, failures) if not why and r["traced"]]
    print(f"check_fail_frac = {failed}/{len(reps)} = {failed / len(reps):.4g}")
    if trace:
        metrics = {}
        if traced and untraced:
            metrics = spans.per_layer_metrics(
                [(r["counts"], r["times"], r["run_s"]) for r in traced],
                median_of(untraced, "run_s"))
            print_trace_summary(traced)
    else:
        metrics = {name: {"value": median_of(untraced, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    used = traced if trace else untraced
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} ({len(used)} reps)")
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def print_trace_summary(traced):
    """Layer shares of self time, and per-call medians keyed by array size."""
    times = traced[0]["times"]
    total = traced[0]["run_s"]
    shares = sorted(((k[:-len(".self_s")], v) for k, v in times.items()
                     if k.count(".") == 1 and k.endswith(".self_s")),
                    key=lambda kv: -kv[1])
    print("self-time share of the run (first traced rep): " + ", ".join(
        f"{layer} {v / total:.1%}" for layer, v in shares))
    per_call = {}
    for r in traced:
        for key, durations in r["per_call"].items():
            per_call.setdefault(key, []).extend(durations)
    for key in sorted(per_call):
        ms = statistics.median(per_call[key]) * 1e3
        base = BASELINE_MS.get(key)
        ref = f" (ROADMAP Baseline {base} ms)" if base else ""
        print(f"per-call {key}: median {ms:.3f} ms over {len(per_call[key])} calls{ref}")


def self_test() -> int:
    """Clean reps must pass; each corrupted copy must be caught."""
    import copy

    outcomes = []

    def expect(label, ok):
        outcomes.append(ok)
        print(f"self-test {label}: {'ok' if ok else 'FAILED'}")

    golden = json.loads((HERE / "golden.json").read_text())
    reps, failures = run_workload("conservation", DEFAULT_SEED, 0, True)
    expect("clean conservation reps pass, counts repeat", not any(failures))
    traced = [r for r in reps if r["traced"]]
    expect("two traced reps give identical counts",
           len(traced) >= 2 and traced[0]["counts"] == traced[1]["counts"])

    files = checks.read_artifacts(WORK / "conservation" / "rep" / "artifacts")
    bad = copy.deepcopy(reps)
    text = files["summary.json"]
    i = next(k for k, ch in enumerate(text) if ch.isdigit())
    flipped = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    bad[1]["digests"] = checks.digests({**files, "summary.json": flipped})
    expect("one changed byte of an artifact fails the determinism check",
           bool(checks.rep_failures(bad, None)[1]))

    bad = copy.deepcopy(reps)
    key, value = next(iter(golden["conservation"].items()))
    i = next(k for k, ch in enumerate(value) if ch.isdigit())
    bad[0]["headline"][key] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    expect("one changed digit of a headline fails the recorded-value check",
           bool(checks.rep_failures(bad, golden["conservation"])[0]))

    bad = copy.deepcopy(reps)
    bad[3]["counts"]["grid.fft.calls"] += 1
    expect("a changed count fails the repeated-count check",
           bool(checks.rep_failures(bad, None)[3]))

    csv_text = files["increments.csv"]
    row = csv_text.splitlines()[2].split(",")
    corrupt = csv_text.replace(",".join(row), ",".join([row[0], "nan"] + row[2:]))
    expect("a NaN in an artifact is caught", bool(checks.nonfinite("increments.csv",
                                                                    corrupt)))

    bad = [{"errors": ["child exited with code 1"]}] + copy.deepcopy(reps[1:])
    expect("a crashed rep fails", bool(checks.rep_failures(bad, None)[0]))

    reps, failures = run_workload("simulate-3d", DEFAULT_SEED, 0, False)
    expect("clean simulate-3d reps pass", not any(failures))
    files = checks.read_artifacts(WORK / "simulate-3d" / "rep" / "artifacts")
    summary = json.loads(files["summary.json"])
    expect("clean simulate-3d artifacts pass the audit and drift checks",
           not checks.simulate_errors(summary, files["energy.csv"]))
    lines = files["energy.csv"].splitlines()
    cells = lines[3].split(",")
    total = cells[3]
    d = total.index(".") + 3        # one digit in the third decimal place
    cells[3] = total[:d] + str((int(total[d]) + 5) % 10) + total[d + 1:]
    lines[3] = ",".join(cells)
    expect("one changed digit of E(u) after the first record fails the drift check",
           bool(checks.simulate_errors(summary, "\n".join(lines) + "\n")))
    broken = copy.deepcopy(summary)
    broken["l2_audit"]["violations"] = 1
    expect("an L2 audit violation fails the check",
           bool(checks.simulate_errors(broken, files["energy.csv"])))
    ok = all(outcomes)
    print(f"self-test {'passed' if ok else 'FAILED'}: {sum(outcomes)}/{len(outcomes)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpilab" / "__init__.py").is_file():
        print(f"perfbench: no gpilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.self_test:
        return self_test()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        reps, failures = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, args.seconds, args.trace, reps,
                               failures)
    if args.workload == "all":
        print("summary, medians per workload:")
        for name, res in results.items():
            cells = ", ".join(f"{m} {v['value']:.4g} {v['unit']}"
                              for m, v in res["metrics"].items())
            frac = res["failed"] / res["attempted"]
            print(f"  {name}: {cells}, check_fail_frac {frac:.4g}")
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{m}": v for w, r in results.items()
                              for m, v in r["metrics"].items()}}
    else:
        result = results[names[0]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
