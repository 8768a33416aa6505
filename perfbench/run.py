#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload build|serve|netstorm --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/main.exe with dune
from the checked-out sources, runs it with the same arguments, checks that
the result line carries exactly the metrics BENCHMARK.json lists (the
end-to-end ones with --trace 0, the per-layer ones with --trace 1) and
exits with the benchmark's status.  The last line of its standard output
is the benchmark's JSON result.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail("%s is missing: run from a full checkout of the repository" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else None
    if trace not in ("0", "1"):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}

    # Build output goes to stderr: stdout belongs to the benchmark.
    try:
        built = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/main.exe"],
            cwd=root, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + args, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if run.returncode != 0:
        fail("benchmark exited with %d; last line: %s" % (run.returncode, lines[-1]), run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: %s" % lines[-1])
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, wrong unit %s"
             % (missing, extra, wrong))
    if not result.get("correct"):
        fail("the benchmark reported incorrect output")
    print(lines[-1])


if __name__ == "__main__":
    main()
