#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the rrr staleness pipeline.

Run from the repository root:

  python3 e2ebench/run.py --workload archive --seed 1 --seconds 50 --trace 0
  python3 e2ebench/run.py --table [--workload live] [--seed 1] [--seconds 50]
  python3 e2ebench/run.py --selftest
  python3 e2ebench/run.py --record-references

The first form builds the benchmark (CMake, optimized, into .bench_build/)
if needed, runs one workload and prints, as its last stdout line, one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is
the run context (nproc, build type, compiler, seed, commit, input counts).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--table runs both and prints every metric by name with its unit.
--selftest checks that the shadow driver reproduces World::run_until.
--record-references rewrites references.tsv, the serial-configuration
signal digests of the world pool that every run is checked against; run it
only when a change is meant to alter the signal stream.
See e2ebench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rrr_e2e")
REFERENCES = os.path.join(HERE, "references.tsv")
WORKLOADS = ("archive", "live", "recalibrate")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rrr sources at %s/src; run from a repository checkout" % ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over the library and benchmark sources; identifies the code
    when the tree is a source export rather than a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(args):
    try:
        done = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rrr_e2e %s timed out after %d s" % (" ".join(args),
                                                  RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("rrr_e2e exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("rrr_e2e printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    raw = run_binary(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--references", REFERENCES])
    context = dict(raw["context"])
    context["commit"] = git_commit()
    context["source_sha256"] = source_digest()
    context["errors"] = raw["errors"]
    correct = bool(raw["correct"])
    failed = int(raw["failed"])
    declared = declared_metrics(trace)
    if declared is not None:
        got = {name: m["unit"] for name, m in raw["metrics"].items()}
        if got != declared:
            context["errors"].append("metrics differ from BENCHMARK.json")
            correct = False
            failed += 1
    return context, raw["metrics"], {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in raw["metrics"].items()},
    }


def print_table(workloads, seed, seconds):
    for workload in workloads:
        rows = []
        for trace in (0, 1):
            context, metrics, result = run_workload(workload, seed, seconds,
                                                    trace)
            kind = "per-layer" if trace else "end-to-end"
            for name, m in metrics.items():
                rows.append((kind, name, m["value"], m["unit"],
                             m.get("base", "")))
        counts = ", ".join("%s=%s" % (k, context[k]) for k in (
            "pairs", "windows", "public_traces", "bgp_records",
            "routing_events", "refreshes", "signals", "queries"))
        print("\n== %s (seed %s, nproc %s, %s, %s; inputs summed over %s "
              "repetitions: %s)" % (
            workload, seed, context["nproc"], context["build_type"],
            context["compiler"], context["repetitions"], counts))
        print("%-10s  %-30s  %16s  %-6s  %s" % ("kind", "metric", "value",
                                                "unit", "base"))
        for kind, name, value, unit, base in rows:
            print("%-10s  %-30s  %16.4f  %-6s  %s" % (kind, name, value, unit,
                                                      base))
        if not result["correct"]:
            print("INCORRECT: %s" % "; ".join(context["errors"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        done = subprocess.run([BINARY, "--selftest"], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
        sys.exit(done.returncode)
    if args.record_references:
        done = subprocess.run([BINARY, "--record-references"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        with open(REFERENCES, "w") as f:
            f.write(done.stdout)
        return
    if args.table:
        print_table([args.workload] if args.workload else WORKLOADS,
                    args.seed, args.seconds)
        return
    if args.workload is None:
        fail("--workload is required")
    context, _, result = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
