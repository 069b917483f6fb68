#!/usr/bin/env python3
"""End-to-end benchmark of the SparDL simulated cluster.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
spardl library from ../src) into .bench_build/perfbench, runs one
workload, and prints its table followed by one JSON result line:

    python3 perfbench/run.py --workload update-flat-p14 --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 is the traced run and
reports the per-layer metrics, writing the benchmark's own spans to
.bench_build/spans/<workload>-seed<N>.json. See perfbench/README.md.

Other modes:
    --selftest            build and run the benchmark's own tests
    --record              store this run's deterministic values as the
                          recorded baseline in perfbench/expected.json
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("update-flat-p14", "update-fattree-p1024", "train-lstm-p4")
DEFAULT_SEED = 1
# A claim measured on the default seed must also hold on this one, which
# no change should be tuned against.
HELD_OUT_SEED = 2
# The binary must finish within the benchmark's 180 s per-run limit.
RUN_TIMEOUT_S = 170

def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the library sources, the root build file and the
    benchmark's own sources: equal digests mean unchanged code."""
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(base, n) for n in names]
    files += [os.path.join(HERE, n) for n in os.listdir(HERE)
              if n.endswith((".cc", ".h")) or n == "CMakeLists.txt"]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except OSError:
        return "none"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no spardl sources next to perfbench/ (src/ missing)")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    fresh = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if fresh and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                 target]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def load_expected():
    if not os.path.isfile(EXPECTED):
        return {"source_digest": "", "values": {}}
    with open(EXPECTED) as f:
        return json.load(f)


def compare_recorded(workload, seed, digest, values, problems):
    """The determinism gate against the recorded baseline: for unchanged
    code, any difference is a failure; for changed code it is reported."""
    expected = load_expected()
    recorded = expected["values"].get(workload, {}).get(str(seed))
    if recorded is None:
        print("recorded baseline: none for seed %d" % seed)
        return
    same_code = expected["source_digest"] == digest
    diffs = ["%s: recorded %r, measured %r" % (k, recorded[k], values[k])
             for k in sorted(recorded) if k in values
             and recorded[k] != values[k]]
    if not diffs:
        print("recorded baseline: match (%d values)"
              % len([k for k in recorded if k in values]))
    elif same_code:
        problems += ["differs from the recorded baseline for unchanged "
                     "code: " + d for d in diffs]
    else:
        print("recorded baseline: code changed since it was recorded; "
              "differences (not gated):")
        for d in diffs:
            print("  DRIFT " + d)


def record(workload, seed, digest, values):
    expected = load_expected()
    if expected["source_digest"] != digest:
        expected = {"source_digest": digest, "values": {}}
    expected["values"].setdefault(workload, {})[str(seed)] = values
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def benchmark_metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    if not build("spardl_perfbench"):
        return 1
    digest = source_digest()
    cmd = [os.path.join(BUILD_DIR, "spardl_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--source-digest", digest]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, "%s-seed%d.json"
                             % (args.workload, args.seed))
        cmd += ["--spans-out", spans]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        log("perfbench: benchmark binary exited with %d" % proc.returncode)
        return 1
    detail = json.loads(lines[-1])
    if args.trace:
        print("spans: " + os.path.relpath(spans, ROOT))

    problems = list(detail["problems"])
    compare_recorded(args.workload, args.seed, digest,
                     detail["deterministic"], problems)
    if args.record:
        record(args.workload, args.seed, digest, detail["deterministic"])
        print("recorded baseline written for seed %d" % args.seed)
    for p in problems:
        print("PROBLEM: " + p)

    metrics = detail["per_layer" if args.trace else "end_to_end"]
    expected_names = benchmark_metric_names(args.trace)
    if set(metrics) != expected_names:
        log("perfbench: metrics %s do not match BENCHMARK.json %s"
            % (sorted(metrics), sorted(expected_names)))
        return 1
    result = {
        "correct": (detail["failed"] == 0 and not problems
                    and detail["attempted"] > 0),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def selftest():
    if not build("perfbench_selftest"):
        return 1
    return subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="input seed (default %d; held-out seed %d)"
        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
