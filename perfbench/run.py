#!/usr/bin/env python3
"""Benchmark entry point for the Spire reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

It builds perfbench/spire_bench.exe from source (release profile, build
directory _perfbench_build/), then:

  --trace 0  runs repetitions of the workload, each in a fresh process,
             until --seconds of wall time have passed (at least
             MIN_REPS), checks that every repetition reproduced the
             same run digest, and prints the end-to-end metrics (the
             host-time metrics aggregated over the repetitions);
  --trace 1  runs one traced run and prints the per-layer metrics; the
             span trace is written under .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Any failed check exits non-zero
without printing it. See perfbench/README.md for the metrics.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_perfbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "spire_bench.exe")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("steady", "wan_attack", "fleet")
MIN_REPS = 3
MAX_REPS = 60
REP_TIMEOUT_S = 150
# Host-time metrics are aggregated over the repetitions; every other
# end-to-end metric must read the same in each repetition. Interference
# from other processes only ever slows a repetition of the measured
# window, so its lower quartile is the steadier estimate of its cost.
HOST_METRICS = {
    "setup_s": statistics.median,
    "host_us_per_update": lambda values: statistics.quantiles(values, n=4)[0],
    "peak_heap_mb": statistics.median,
}


def die(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    die("dune not found on PATH or in an opam switch", 2)


def build():
    for rel in ("dune-project", "lib/core/system.mli", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            die("not a checkout of the repository (missing %s)" % rel, 2)
    cmd = [find_dune(), "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "./perfbench/spire_bench.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("build failed", 2)


def exe(args, env=None):
    """Run spire_bench.exe; return its last stdout line parsed as JSON."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out" % " ".join(args))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die("%s failed with exit code %d" % (" ".join(args), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("%s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def declared_metrics(section):
    """(name, unit) pairs BENCHMARK.json declares, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[section]]


def check_declared(section, metrics):
    declared = declared_metrics(section)
    if declared is None:
        return
    got = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(got) != sorted(declared):
        extra = sorted(set(got) - set(declared))
        missing = sorted(set(declared) - set(got))
        die("%s metrics differ from BENCHMARK.json: extra %s, missing %s"
            % (section, extra, missing))


def measure(workload, seed, seconds, smoke=False):
    tail = ["smoke"] if smoke else []
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or (time.monotonic() - start < seconds
                                   and len(reps) < MAX_REPS):
        reps.append(exe(["rep", workload, str(seed)] + tail))
    digests = {r["run_digest"] for r in reps}
    if len(digests) != 1:
        die("%d repetitions of %s seed %s disagree on the run digest: %s"
            % (len(reps), workload, seed, sorted(digests)))
    first = reps[0]["metrics"]
    metrics = {}
    for name, m in first.items():
        if name in HOST_METRICS:
            value = HOST_METRICS[name]([r["metrics"][name]["value"] for r in reps])
        else:
            value = m["value"]
        metrics[name] = {"value": value, "unit": m["unit"]}
    print("%s seed %s: %d repetitions, %d updates confirmed in each window, "
          "run digest %s" % (workload, seed, len(reps), reps[0]["confirmed_in_window"],
                             reps[0]["run_digest"]))
    for name in HOST_METRICS:
        print("%s per repetition: %s" % (name, " ".join(
            "%.6g" % r["metrics"][name]["value"] for r in reps)))
    check_declared("end_to_end", metrics)
    return {
        "correct": True,
        "attempted": sum(r["submitted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }


def traced(workload, seed, smoke=False):
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, "trace-%s-seed%s.json" % (workload, seed))
    events_dir = tempfile.mkdtemp(prefix="runtime-events-", dir=OUT_DIR)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events_dir)
    try:
        out = exe(["trace", workload, str(seed), trace_file] + (["smoke"] if smoke else []),
                  env=env)
    finally:
        shutil.rmtree(events_dir, ignore_errors=True)
    for note in out["notes"]:
        print("absent or partial: " + note)
    print("trace written to %s" % os.path.relpath(trace_file, ROOT))
    check_declared("per_layer", out["metrics"])
    return {
        "correct": True,
        "attempted": out["submitted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }


def smoke():
    """Every workload, both modes and every check, at tiny lengths."""
    os.makedirs(OUT_DIR, exist_ok=True)
    events_dir = tempfile.mkdtemp(prefix="runtime-events-", dir=OUT_DIR)
    try:
        proc = subprocess.run([EXE, "smoke"], cwd=events_dir,
                              env=dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events_dir))
    finally:
        shutil.rmtree(events_dir, ignore_errors=True)
    if proc.returncode != 0:
        die("smoke mode of spire_bench.exe failed")
    for w in WORKLOADS:
        measure(w, 7, 0, smoke=True)
        traced(w, 7, smoke=True)
    print("smoke: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    if a.smoke:
        smoke()
        return
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        die("--workload, --seed, --seconds and --trace are required", 2)
    if a.trace == 1:
        result = traced(a.workload, a.seed)
    else:
        result = measure(a.workload, a.seed, a.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
