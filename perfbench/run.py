#!/usr/bin/env python3
"""Wall-clock benchmark of the Dapper reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 50 --trace 0

It builds perfbench/bench.exe with dune, runs one workload in one process
and prints, as its last line, one JSON object: correct, attempted, failed
and the metrics named in BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1). A traced run also runs the workload untraced on
the same seed, each for half of --seconds, so it takes as long as an
untraced run; trace.overhead_pct compares the two. Spans go to
perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join("perfbench", "out")
RUN_TIMEOUT_S = 170

# The metric that shows a workload's own speed, and which way is better;
# trace.overhead_pct is the traced run's loss on it.
PRIMARY = {
    "pingpong": ("migration_ms_p50", "lower"),
    "run-migrate-finish": ("minstr_per_s", "higher"),
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            die(need + " not found: run from the root of a full checkout")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed")


def run_exe(args):
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("bench.exe: %s" % e)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("bench.exe exited with code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select(result, declared):
    """The declared metrics, in declared order, with their units checked."""
    out = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            die("metric %s missing from the %s run" % (m["name"], result["workload"]))
        if got["unit"] != m["unit"]:
            die("metric %s has unit %s, declared %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller runs and a planted wrong reference output, for selftest.py.
    ap.add_argument("--setup-reps", type=int)
    ap.add_argument("--plant-mismatch", action="store_true")
    a = ap.parse_args()

    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + a.workload)

    seconds = a.seconds / 2 if a.trace else a.seconds
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(seconds)]
    if a.setup_reps is not None:
        args += ["--setup-reps", str(a.setup_reps)]
    if a.plant_mismatch:
        args.append("--plant-mismatch")

    # The untraced twin of a traced run only needs the workload's own
    # metric, so it sets up once.
    plain = run_exe(args + (["--setup-reps", "1"] if a.trace and a.setup_reps is None else []))
    runs = [plain]
    if a.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (a.workload, a.seed))
        traced = run_exe(args + ["--trace", path])
        runs.append(traced)
        name, better = PRIMARY[a.workload]
        base = plain["metrics"][name]["value"]
        with_trace = traced["metrics"][name]["value"]
        ratio = with_trace / base if better == "lower" else base / with_trace
        traced["metrics"]["trace.overhead_pct"] = {"value": 100.0 * (ratio - 1.0), "unit": "%"}
        metrics = select(traced, spec["per_layer"])
        print("perfbench: spans written to " + path)
    else:
        metrics = select(plain, spec["end_to_end"])

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("perfbench: workload=%s seed=%d attempted=%d failed=%d host.kernel_us=%.1f"
          % (a.workload, a.seed, attempted, failed, plain["metrics"]["host.kernel_us"]["value"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
