#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics. Run from the root of a
checkout:

    python3 perfbench/spread.py --seeds 1-10 > runs.md
    python3 perfbench/spread.py --seeds 1x5 --workloads pingpong

Runs perfbench/run.py untraced once per seed and workload, for the
run_seconds BENCHMARK.json sets, and prints markdown: one row per run,
then each metric's median, the distance between its first and third
quartiles as a share of the median, and its bound. "kernel us" is the
reference kernel's median time in the run: how fast the host ran. "1-10"
means seeds 1 to 10; "1x5" means seed 1 five times, so the spread is the
host's alone.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    if "x" in text:
        seed, times = text.split("x")
        return [int(seed)] * int(times)
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--workloads", help="comma-separated; default all")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    for w in workloads:
        print("\n### %s, seeds %s\n" % (w, ",".join(map(str, a.seeds))))
        print("| seed | wall s | attempted | failed | kernel us | "
              + " | ".join(m["name"] for m in metrics) + " |")
        print("|---" * (5 + len(metrics)) + "|")
        values = {m["name"]: [] for m in metrics}
        for s in a.seeds:
            t0 = time.time()
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(s),
                                "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                               stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                sys.exit("spread: %s seed %d exited with %d" % (w, s, r.returncode))
            lines = r.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            kernel = next(l.split("host.kernel_us=")[1] for l in lines if "host.kernel_us=" in l)
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print("| %d | %.1f | %d | %d | %s | %s |" % (
                s, time.time() - t0, res["attempted"], res["failed"], kernel,
                " | ".join("%.6g" % values[m["name"]][-1] for m in metrics)), flush=True)
        print("\n| metric | median | quartile spread / median | bound |\n|---|---|---|---|")
        for m in metrics:
            v = values[m["name"]]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print("| %s | %.6g | %.4f | %.2f |" % (m["name"], med, (q[2] - q[0]) / med, m["bound"]))


if __name__ == "__main__":
    main()
