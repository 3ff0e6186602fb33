#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks the names, units and bounds in BENCHMARK.json, runs a tiny pass of
every workload untraced and traced, and checks that each emits every
declared metric under a valid name and unit with no failed operation.
Then plants a wrong reference output and checks that error_rate turns
non-zero. Exits 1 on the first problem.
"""

import json
import math
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = ["--seed", "7", "--seconds", "1", "--setup-reps", "1"]


def check(ok, msg):
    if not ok:
        print("selftest: FAIL " + msg)
        sys.exit(1)


def run(workload, trace, *extra):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--trace", str(trace)] + TINY + list(extra),
                       stdout=subprocess.PIPE, text=True, timeout=300)
    check(r.returncode == 0, "%s trace=%d exited with %d" % (workload, trace, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "names are not unique")
    for n in names:
        check(NAME.match(n) is not None, "invalid name " + n)
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, "invalid unit " + m["unit"])
        check(m["better"] in ("higher", "lower"), m["name"] + ": better")
    for m in spec["end_to_end"]:
        check(0 < m["bound"] <= 0.25, m["name"] + ": bound")
    # BENCHMARK.json allows no extra keys, so what each per-layer metric
    # should move lives in DESIGN.md's table: | `name` | unit | should move |
    rows = {}
    with open("perfbench/DESIGN.md") as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 3:
                rows[cells[0].strip("`")] = cells
    for m in spec["per_layer"]:
        row = rows.get(m["name"])
        check(row is not None, m["name"] + " has no row in DESIGN.md")
        check(row[1] == m["unit"], m["name"] + ": unit differs in DESIGN.md")
        check(row[2] != "", m["name"] + ": DESIGN.md names nothing it should move")


def check_result(res, declared, label):
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, label + ": result keys")
    check(res["correct"] is True and res["failed"] == 0, label + ": failed operations")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1, label + ": attempted")
    check(list(res["metrics"]) == [m["name"] for m in declared], label + ": metric names")
    for m in declared:
        got = res["metrics"][m["name"]]
        check(got["unit"] == m["unit"], "%s: %s unit" % (label, m["name"]))
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              "%s: %s value" % (label, m["name"]))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)
    for w in [w["name"] for w in spec["workloads"]]:
        res = run(w, 0)
        check_result(res, spec["end_to_end"], w)
        for m in spec["end_to_end"]:
            check(res["metrics"][m["name"]]["value"] > 0, "%s: %s is not positive" % (w, m["name"]))
        check_result(run(w, 1), spec["per_layer"], w + " traced")
        print("selftest: ok " + w)
    for w in ("pingpong", "run-migrate-finish"):
        res = run(w, 1, "--plant-mismatch")
        check(not res["correct"] and res["failed"] > 0, w + ": planted mismatch went unseen")
        check(res["metrics"]["error_rate"]["value"] > 0, w + ": planted mismatch left error_rate 0")
        print("selftest: ok planted mismatch fails " + w)
    print("selftest: all passed")


if __name__ == "__main__":
    main()
