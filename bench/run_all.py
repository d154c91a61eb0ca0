#!/usr/bin/env python3
"""Perf-trajectory harness: run the serving benches, collect their
machine-readable results, and compare against a checked-in baseline.

Each serve_* bench appends one JSONL line ({bench, p50_us, p99_us,
goodput_per_sec, pass}) to the file named by LBNN_BENCH_JSON (see
bench/bench_common.hpp). This script runs them all, folds the lines into one
document stamped with the git SHA, and — with --compare — fails when a
metric regressed past the tolerance against the last checked-in file:

    p99 regressed      : new > old * (1 + tolerance)
    goodput regressed  : new < old * (1 - tolerance)

A metric a bench does not own is structurally unmeasured: the JSONL line
carries "p99_us": null with "p99_measured": false, and the comparer skips it
by shape. (Metrics reported as 0 in pre-PR9 baselines are treated the same
way for back-compat — 0 meant "not measured", never "infinitely fast".) A
bench whose own PASS gate failed is reported but does not abort the sweep
(--strict makes it fatal).

    $ python3 bench/run_all.py --build-dir build --out BENCH_PR10.json
    $ python3 bench/run_all.py --build-dir build --compare BENCH_PR10.json \
          --tolerance 0.10

CI runs the second form against the checked-in BENCH_PR10.json with a generous
tolerance (shared runners are noisy); regenerate the baseline with the first
form when a PR intentionally moves performance.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Bench binaries and the (small) arguments that keep a full sweep under a
# couple of minutes on a laptop-class machine.
BENCHES = [
    ("serve_throughput", ["4096"]),
    ("serve_fairness", ["200"]),
    ("serve_overload", ["200"]),
    ("serve_stealing", ["30"]),
    ("serve_sharding", ["200"]),
    ("serve_simd", ["200"]),
    ("serve_aot", ["120"]),
    ("serve_cascade", ["200"]),
    ("serve_canary", ["2000"]),
]


def git_sha():
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "--short", "HEAD"],
                stderr=subprocess.DEVNULL,
            )
            .decode()
            .strip()
        )
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def run_benches(build_dir):
    results = {}
    with tempfile.NamedTemporaryFile(mode="r", suffix=".jsonl") as sink:
        env = dict(os.environ, LBNN_BENCH_JSON=sink.name)
        for name, args in BENCHES:
            binary = os.path.join(build_dir, name)
            if not os.path.exists(binary):
                print(f"[run_all] SKIP {name}: {binary} not built")
                continue
            print(f"[run_all] running {name} {' '.join(args)} ...", flush=True)
            proc = subprocess.run([binary] + args, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
            tail = proc.stdout.decode(errors="replace").strip().splitlines()
            print("    " + (tail[-1] if tail else "(no output)"))
            # Gated benches exit nonzero on a missed PASS line; the JSON line
            # still lands and carries pass=false, so record and continue.
            if proc.returncode != 0:
                print(f"    (exit {proc.returncode})")
        sink.seek(0)
        for line in sink:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            results[row["bench"]] = {
                "p50_us": row["p50_us"],
                # null (with p99_measured false) when the bench does not own
                # an absolute p99; preserved as-is so the written baseline
                # keeps the structural shape.
                "p99_us": row["p99_us"],
                "p99_measured": row.get("p99_measured", row["p99_us"] != 0),
                "goodput_per_sec": row["goodput_per_sec"],
                "pass": row["pass"],
            }
    return results


def measured_p99(entry):
    """The entry's p99 if it was actually measured, else None.

    Structurally unmeasured (null + p99_measured false) and the pre-PR9 0.0
    sentinel both read as None.
    """
    v = entry.get("p99_us")
    if v is None or not entry.get("p99_measured", True) or v == 0:
        return None
    return v


def compare(old_doc, new_doc, tolerance):
    """Return a list of human-readable regression strings (empty == clean)."""
    regressions = []
    # A bench added since the baseline was cut has nothing to regress
    # against: new-bench = not-measured, warn and move on (the next baseline
    # regeneration picks it up). Only a bench that VANISHED from the run is a
    # regression, handled below.
    for bench in new_doc["benches"]:
        if bench not in old_doc.get("benches", {}):
            print(f"[run_all] NEW {bench}: not in baseline, skipping compare")
    for bench, old in old_doc.get("benches", {}).items():
        new = new_doc["benches"].get(bench)
        if new is None:
            regressions.append(f"{bench}: present in baseline but not re-run")
            continue
        o_p99, n_p99 = measured_p99(old), measured_p99(new)
        # Engine p99s come from log-linear histograms that overstate by at
        # most 6.25%, finer than any tolerance this gate runs at, so a p99
        # is held to the plain tolerance like goodput. A structurally
        # unmeasured p99 on either side (serve_simd, serve_aot) is skipped
        # entirely.
        if (o_p99 is not None and n_p99 is not None
                and n_p99 > o_p99 * (1 + tolerance)):
            regressions.append(
                f"{bench}: p99 {o_p99:.0f} -> {n_p99:.0f} us "
                f"(+{100 * (n_p99 / o_p99 - 1):.1f}% > {100 * tolerance:.0f}%)"
            )
        o_gp = old.get("goodput_per_sec", 0)
        n_gp = new.get("goodput_per_sec", 0)
        if o_gp > 0 and n_gp > 0 and n_gp < o_gp * (1 - tolerance):
            regressions.append(
                f"{bench}: goodput {o_gp:.0f} -> {n_gp:.0f}/s "
                f"(-{100 * (1 - n_gp / o_gp):.1f}% > {100 * tolerance:.0f}%)"
            )
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="directory holding the bench binaries")
    ap.add_argument("--out", default=None,
                    help="write the aggregated results document here")
    ap.add_argument("--compare", default=None,
                    help="baseline JSON to diff against (CI regression gate)")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--strict", action="store_true",
                    help="fail when any bench's own PASS gate failed")
    args = ap.parse_args()

    benches = run_benches(args.build_dir)
    if not benches:
        print("[run_all] no bench results collected", file=sys.stderr)
        return 1
    doc = {"git_sha": git_sha(), "tolerance": args.tolerance,
           "benches": benches}

    print(json.dumps(doc, indent=2))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"[run_all] wrote {args.out}")

    failed = [b for b, r in benches.items() if not r["pass"]]
    if failed:
        print(f"[run_all] bench PASS gate failed: {', '.join(sorted(failed))}")
        if args.strict:
            return 1

    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
        regressions = compare(baseline, doc, args.tolerance)
        if regressions:
            print(f"[run_all] REGRESSION vs {args.compare} "
                  f"(sha {baseline.get('git_sha', '?')}):")
            for r in regressions:
                print(f"    {r}")
            return 1
        print(f"[run_all] no regressions vs {args.compare} "
              f"(sha {baseline.get('git_sha', '?')}, "
              f"tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
