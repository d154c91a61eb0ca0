#!/usr/bin/env python3
"""Build and run lbnn_bench, the serving benchmark of this repository.

One run (the benchmark's command; the last line of stdout is the JSON result):
  python3 bench/lbnn_bench/run.py --workload anchor_closed --seed 1 --seconds 20 --trace 0

Sets of runs: every workload untraced, then every workload traced, per set,
the workload order reversed on every other set, set i using seed --seed + i.
Writes every run to one JSON file and prints the median and quartiles of
each (metric, workload) pair:
  python3 bench/lbnn_bench/run.py [--sets 2] [--seed 1] [--out FILE] [--smoke]

Compare two such files with the bounds of BENCHMARK.json (and the absolute
bounds of metrics.json); exits 1 on any regressed or unresolved row:
  python3 bench/lbnn_bench/run.py --compare base.json new.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "lbnn_bench"
SCRATCH = BUILD / "scratch"
RUN_TIMEOUT_S = 170


def scratch_env():
    """The environment for the build and the runs: temporary files (the
    compiler's, and the AOT layer's codegen) stay under the build directory."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(SCRATCH))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_extras():
    with open(HERE / "metrics.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- statistics

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(base, new, better, bound, absolute):
    """Label one (metric, workload) row: 'regressed' when the new median is
    worse than the base median by more than the bound, 'unresolved' when
    either side's quartile spread is wider than the bound (unless every new
    run reads better than every base run), else 'unchanged'."""
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    allowed = bound if absolute else bound * abs(b_med)
    if max(b_q3 - b_q1, n_q3 - n_q1) > allowed:
        if better == "lower":
            all_better = max(new) < min(base)
        else:
            all_better = min(new) > max(base)
        return "unchanged" if all_better else "unresolved"
    worse = n_med - b_med if better == "lower" else b_med - n_med
    return "regressed" if worse > allowed else "unchanged"


# ---------------------------------------------------------------- one run

def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: lbnn sources not found under {ROOT}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "lbnn_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, env=scratch_env()).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return BUILD / "lbnn_bench"


def run_once(binary, workload, seed, seconds, trace):
    """Run the binary once; returns (exit code, stdout lines, parsed run)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(SCRATCH)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=scratch_env(), timeout=RUN_TIMEOUT_S)
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "metrics": {}}
    lines = proc.stdout.splitlines()
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            run["metrics"][parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts and parts[0] == "result":
            fields = dict(p.split("=", 1) for p in parts[1:])
            run["correct"] = fields["correct"] == "1"
            run["attempted"] = int(fields["attempted"])
            run["failed"] = int(fields["failed"])
    return proc.returncode, lines, run


def result_line(run, declared):
    """The benchmark's result object: exactly the declared metrics."""
    missing = [m["name"] for m in declared if m["name"] not in run["metrics"]]
    if missing or "correct" not in run:
        sys.exit("run.py: the run did not report " + ", ".join(missing or ["a result"]))
    metrics = {m["name"]: run["metrics"][m["name"]] for m in declared}
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def single(args, spec):
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")
    binary = build()
    code, lines, run = run_once(binary, args.workload, args.seed, args.seconds,
                                args.trace)
    for line in lines:
        print(line)
    if code not in (0, 1):
        sys.exit(f"run.py: lbnn_bench exited with {code}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(result_line(run, declared), flush=True)
    return code


# ---------------------------------------------------------------- sets

def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def rows_of(runs, trace):
    """{(metric, workload): ([values], unit)} over runs of one trace mode;
    fail_frac is derived from each untraced run's counts."""
    rows = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        metrics = dict(run["metrics"])
        if not trace and run.get("attempted"):
            metrics["fail_frac"] = {"value": run["failed"] / run["attempted"],
                                    "unit": "fraction"}
        for name, m in metrics.items():
            values, _ = rows.setdefault((name, run["workload"]), ([], m["unit"]))
            values.append(m["value"])
    return rows


def summarize(runs, n_sets):
    for trace, title in ((0, "end to end (untraced)"), (1, "per layer (traced runs)")):
        rows = rows_of(runs, trace)
        print(f"\n{title}: median [q1, q3] over {n_sets} set(s)")
        print(f"{'metric':34} {'workload':15} {'median':>14} {'q1':>14} {'q3':>14} unit")
        for (name, workload), (values, unit) in sorted(rows.items()):
            q1, med, q3 = quartiles(values)
            print(f"{name:34} {workload:15} {med:14.6g} {q1:14.6g} {q3:14.6g} {unit}")


def sets(args, spec):
    binary = build()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = 1 if args.smoke else spec["run_seconds"]
    n_sets = 1 if args.smoke else args.sets
    runs, ok = [], True
    for i in range(n_sets):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for trace in (0, 1):
            for workload in order:
                code, _, run = run_once(binary, workload, args.seed + i, seconds, trace)
                run["set"] = i
                ok = ok and code == 0 and run.get("correct", False)
                runs.append(run)
                print(f"set {i} {workload} trace={trace}: exit {code}, "
                      f"attempted {run.get('attempted')}, failed {run.get('failed')}",
                      file=sys.stderr)
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"sha": git_sha(), "nproc": os.cpu_count(), "seconds": seconds,
                   "runs": runs}, f, indent=1)
    summarize(runs, n_sets)
    print(f"\nwrote {out}")
    return 0 if ok else 1


# ---------------------------------------------------------------- compare

def compare(base_path, new_path, spec, extras):
    with open(base_path) as f:
        base = rows_of(json.load(f)["runs"], 0)
    with open(new_path) as f:
        new = rows_of(json.load(f)["runs"], 0)
    checks = [(m["name"], m["better"], m["bound"], False, None)
              for m in spec["end_to_end"]]
    checks += [(m["name"], m["better"], m["abs_bound"], True, m.get("workloads"))
               for m in extras["extra_end_to_end"]]
    bad = 0
    print(f"{'metric':16} {'workload':15} {'base':>12} {'new':>12} {'bound':>8} label")
    for name, better, bound, absolute, only in checks:
        for w in spec["workloads"]:
            if only is not None and w["name"] not in only:
                continue
            key = (name, w["name"])
            if key not in base or key not in new:
                label, b_med, n_med = "unresolved", float("nan"), float("nan")
            else:
                label = judge(base[key][0], new[key][0], better, bound, absolute)
                b_med, n_med = quartiles(base[key][0])[1], quartiles(new[key][0])[1]
            bad += label != "unchanged"
            shown = f"{bound:g}" if absolute else f"{bound:.0%}"
            print(f"{name:16} {w['name']:15} {b_med:12.6g} {n_med:12.6g} {shown:>8} {label}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true",
                   help="one set at 1 s per run")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec, load_extras())
    if args.workload:
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return single(args, spec)
    return sets(args, spec)


if __name__ == "__main__":
    sys.exit(main())
