#!/usr/bin/env python3
"""Repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the library sources, tie_worker and perfbench_run)
into .bench_build/; later runs rebuild incrementally. The run's
account goes to standard output, and its last line is one JSON
object with exactly the keys correct, attempted, failed and metrics:
the end-to-end metrics untraced, the per-layer metrics traced.

Pinned for every run and recorded with every result: TIE_THREADS=1
(inherited by the tie_worker processes), one server worker per
server, the client counts of each workload, and TIE_FAST / TIE_FUSE /
TIE_SIMD left at their defaults. A traced run also prints its tracing
overhead against the last untraced run of the same workload in this
checkout. Exits 1 when a correctness gate fails or a request is lost.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ["fc6-serve", "zoo-mix", "fc7-cluster", "lstm-offline"]
PINNED_THREADS = "1"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the two executables incrementally."""
    for need in ("src/CMakeLists.txt", "tools/tie_worker.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no %s in %s: run from the root of a source checkout"
                 % (need, ROOT))
    os.makedirs(BUILD, exist_ok=True)
    log = open(os.path.join(BUILD, "build.log"), "a")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=subprocess.STDOUT, check=False)
    jobs = str(os.cpu_count() or 1)
    rc = subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                         "--target", "perfbench_run", "tie_worker"],
                        stdout=log, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        fail("build failed; see %s" % os.path.join(BUILD, "build.log"))
    return (os.path.join(CMAKE_DIR, "perfbench_run"),
            os.path.join(CMAKE_DIR, "tie_worker"))


def run_binary(args, exe, worker):
    env = dict(os.environ)
    env["TIE_THREADS"] = PINNED_THREADS
    for k in ("TIE_FAST", "TIE_FUSE", "TIE_SIMD", "TIE_STATS_JSON",
              "TIE_TRACE"):
        env.pop(k, None)
    work = os.path.join(BUILD, "run", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(RESULTS, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT),
           "--worker-bin", worker,
           "--trace-out", os.path.join(RESULTS, args.workload + ".trace.json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (ValueError, IndexError):
        print(lines[-1] if lines else "")
        fail("perfbench_run exited %d without a result" % proc.returncode)


def report_overhead(args, res):
    """Traced minus untraced value of every end-to-end metric."""
    path = os.path.join(RESULTS, args.workload + "-untraced.json")
    if not os.path.isfile(path):
        print("tracing overhead: no untraced run of %s in this checkout yet"
              % args.workload)
        return
    with open(path) as f:
        base = json.load(f)["end_to_end"]
    for name, m in res["end_to_end"].items():
        if name in base:
            d = m["value"] - base[name]["value"]
            rel = d / base[name]["value"] * 100 if base[name]["value"] else 0
            print("tracing overhead: %-20s %+.4f %s (%+.1f%%)"
                  % (name, d, m["unit"], rel))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--corrupt", choices=["serve", "f64", "f32", "fxp"],
                   help=argparse.SUPPRESS)  # gate self-test only
    args = p.parse_args()

    exe, worker = build()
    code, res = run_binary(args, exe, worker)
    name = "%s-%s.json" % (args.workload,
                           "traced" if args.trace else "untraced")
    if res["correct"] and not args.corrupt:
        with open(os.path.join(RESULTS, name), "w") as f:
            json.dump(res, f, indent=1)
    if args.trace:
        report_overhead(args, res)
    prov = dict(res["provenance"], steal_s=res.get("steal_s"))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    print(json.dumps({"correct": bool(res["correct"]) and code == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    sys.exit(0 if res["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
