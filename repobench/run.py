#!/usr/bin/env python3
"""Repository benchmark for the PG-MCML reproduction.

One run of one workload, as BENCHMARK.json's command:

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the pgmcml libraries and the benchmark driver from source into
.bench_build/ (Release), runs the workload, and passes the driver's output
through.  The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.  The exit
code is the driver's: 0 when every output check passed, 1 when one failed,
2 on a build, usage or run error.

Other modes, run from the root of the repository:

    python3 repobench/run.py --receipt [--runs 10] [--seconds S] [--first-seed N]
        Steadiness receipt: runs every workload --runs times in alternating
        order, one seed per round, prints each run's host-speed scale, and
        prints for each end-to-end metric the
        median, the quartiles, the quartile spread against the metric's
        bound, the worst deviation from the median, and the drift between
        the medians of the first and second half of the runs.

    python3 repobench/run.py --record-seeds A-B [--workloads w1,w2]
        Runs each workload once per input set in [A, B] (0 <= A <= B < 64;
        --seed n runs input set n mod 64) and writes the values its output
        checks compare against into repobench/expected.json.

    python3 repobench/run.py --selftest
        Builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(".bench_build", "run")  # relative: short socket paths
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ["fig6-stream", "campaign-fork", "daemon-mixed"]
INPUT_SETS = 64  # kInputSets in src/common.hpp
RUN_TIMEOUT_S = 175
# The pairs whose two medians disagreed when this benchmark was first
# attempted (same code, two sets of runs): the receipt names them.
PREVIOUSLY_FAILING = {
    ("fig6-stream", "latency_p50_ms"): "15 % apart (841 vs 711 ms) as latency_ms",
    ("fig6-stream", "work_per_s"): "8 % apart (924 vs 995)",
    ("daemon-mixed", "setup_s"): "12 % apart (0.33 vs 0.29 ms)",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pgmcml sources next to the benchmark (expected ../src)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets,
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def driver_cmd(workload, seed, seconds, trace, record=False):
    cmd = [os.path.join(BUILD_DIR, "repobench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    if record:
        cmd.append("--record")
    else:
        # Relative to the root (the driver's cwd), so the driver's strings
        # do not depend on where the checkout lives.
        cmd += ["--expected", os.path.relpath(EXPECTED, ROOT)]
    return cmd


def run_driver(cmd, capture):
    # glibc's mmap threshold is fixed: with its default dynamic threshold the
    # peak RSS of one build flipped between two values (21.4 and 28.9 MB on
    # fig6-stream) with the length of a path string on the command line.
    env = dict(os.environ, PGMCML_THREADS="1",
               GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def host_speed(stdout):
    """The timed phase's host-speed probe medians and scale, from the
    provenance line."""
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            speed = json.loads(line[len("provenance "):]).get("host_speed")
            if speed:
                return "scale %.4f (chain %.3f ms, parallel %.3f ms)" % (
                    speed["scale"], speed["chain_ms_median"],
                    speed["parallel_ms_median"])
    return "no host speed"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def receipt(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seconds = args.seconds or bench["run_seconds"]
    build(["repobench_driver"])
    values = {}  # (workload, metric) -> [values in run order]
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        seed = args.first_seed + r
        for w in order:
            res = run_driver(driver_cmd(w, seed, seconds, 0), capture=True)
            out = last_json(res.stdout)
            status = "ok" if res.returncode == 0 and out and out["correct"] else "FAILED"
            print("run %2d %-14s seed %-4d %s  %s" % (
                r, w, seed, status, host_speed(res.stdout)), flush=True)
            if out is None:
                continue
            for name, m in out["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
    print()
    print("%-14s %-15s %12s %12s %12s %8s %8s %8s %8s  %s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "bound/3",
        "worst", "drift", "verdict"))
    all_ok = True
    for (w, name), v in sorted(values.items(), key=lambda kv: (workloads.index(kv[0][0]), kv[0][1])):
        med = statistics.median(v)
        q1, q3 = quartiles(v)
        spread = (q3 - q1) / med
        worst = max(abs(x - med) for x in v) / med
        half = len(v) // 2
        drift = (abs(statistics.median(v[half:]) - statistics.median(v[:half])) / statistics.median(v[:half])
                 if half >= 1 else 0.0)
        bound = bounds.get(name, 0.0)
        # setup_s is judged on its median drift only, like the acceptance rule.
        ok = drift <= bound and (name == "setup_s" or spread < bound / 3)
        all_ok = all_ok and ok
        note = PREVIOUSLY_FAILING.get((w, name))
        print("%-14s %-15s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %7.2f%%  %s%s" % (
            w, name, med, q1, q3, 100 * spread, 100 * bound / 3, 100 * worst,
            100 * drift, "steady" if ok else "NOT STEADY",
            "  [previously failing: " + note + "]" if note else ""))
    print("\nvalues in run order:")
    for (w, name), v in values.items():
        print("  %s/%s: %s" % (w, name, " ".join("%.6g" % x for x in v)))
    print("\n%d runs per workload, %g s each; seeds %d..%d" % (
        args.runs, seconds, args.first_seed, args.first_seed + args.runs - 1))
    return 0 if all_ok else 1


def record(args):
    lo, hi = (int(x) for x in args.record_seeds.split("-"))
    if not 0 <= lo <= hi < INPUT_SETS:
        fail("--record-seeds takes input sets within 0-%d" % (INPUT_SETS - 1))
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    build(["repobench_driver"])
    table = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            table = json.load(f)
    for w in workloads:
        for seed in range(lo, hi + 1):
            res = run_driver(driver_cmd(w, seed, 1, 0, record=True), capture=True)
            rec = [l for l in res.stdout.splitlines() if l.startswith("record ")]
            if res.returncode != 0 or not rec:
                print("%s seed %d: checks failed, not pinned" % (w, seed))
                sys.stdout.write(res.stdout[-2000:])
                continue
            value = json.loads(rec[-1][len("record "):])
            if value is not None:
                table.setdefault(w, {})[str(seed)] = value
            print("%s seed %d pinned" % (w, seed), flush=True)
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def selftest():
    build(["repobench_tests"])
    return subprocess.run(["ctest", "--test-dir", BUILD_DIR, "--output-on-failure"]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--receipt", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--record-seeds")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.receipt:
        return receipt(args)
    if args.record_seeds:
        return record(args)
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    build(["repobench_driver"])
    res = run_driver(driver_cmd(args.workload, args.seed, args.seconds, args.trace),
                     capture=False)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
