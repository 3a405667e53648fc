#!/usr/bin/env python3
"""Input-only sensitivity calibration of the benchmark.

Doubles one layer's work through the generated inputs only
(`--double floorplan|sim|grid`) and reports every workload's median
`job_p50_ms` against the undoubled run, so a reader can check that the
workload isolating that layer moves and the others stay within their
bounds. No program code changes.

    python3 perfbench/calibrate.py [--seconds 10] [--seeds 1,2,3]

Run from the repository root; builds the benchmark like BENCHMARK.json's
command does.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["place_synth", "gating_sim", "dse_sweep", "fleet_sweep"]
KNOBS = [None, "floorplan", "sim", "grid"]
CARGO = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml", "--"]


def p50(workload, seed, seconds, knob):
    cmd = CARGO + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
    if knob:
        cmd += ["--double", knob]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} --double {knob}: incorrect run")
    return result["metrics"]["job_p50_ms"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seeds", default="1,2,3")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"]
              for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

    medians = {}
    # Knobs innermost, so host-speed drift hits every knob alike.
    for seed in seeds:
        for workload in WORKLOADS:
            for knob in KNOBS:
                medians.setdefault((workload, knob), []).append(
                    p50(workload, seed, args.seconds, knob))
                print(f"seed {seed} {workload} {knob}: "
                      f"{medians[(workload, knob)][-1]:.2f} ms", file=sys.stderr)

    print(f"job_p50_ms ratio doubled/base, median of seeds {args.seeds}, "
          f"{args.seconds} s runs (bound {bounds['job_p50_ms']}):")
    print("| --double | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    for knob in KNOBS[1:]:
        cells = []
        for w in WORKLOADS:
            base = statistics.median(medians[(w, None)])
            cells.append(f"{statistics.median(medians[(w, knob)]) / base:.2f}x")
        print(f"| {knob} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
