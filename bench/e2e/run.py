#!/usr/bin/env python3
"""Runs the repo benchmark (see README.md in this directory).

One measurement, from the root of a checkout:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench/e2e (and the library sources under src/ it links) into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e, runs the workload in its own
process, and prints one JSON line per metric, a fingerprint line, and as the
last line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, which also writes a Chrome trace).

Other modes:

    run.py --smoke                   all workloads at tiny sizes; checks every
                                     metric of BENCHMARK.json is printed and
                                     nothing failed
    run.py --runs N [--workloads a,b] [--seconds S] [--out F.jsonl]
                                     N runs per workload on seeds 1..N, then
                                     the spread of each end-to-end metric
    run.py --compare A.jsonl B.jsonl two sets of --runs output judged with the
                                     bounds of BENCHMARK.json

Exits non-zero, printing no result, when the program cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to bench/e2e")
    out = os.path.join(build_root(), "e2e")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "sdbenc_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if rc != 0:
            fail("build step %s exited %d" % (" ".join(cmd[:2]), rc))
    return os.path.join(out, "sdbenc_bench")


def run_driver(exe, workload, seed, seconds, trace_file=None, smoke=False):
    """Runs one workload; returns ({metric: record}, summary)."""
    work = os.path.join(build_root(), "e2e-work")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--workdir=" + work]
    if trace_file:
        cmd.append("--trace=" + trace_file)
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited %d" % (workload, proc.returncode))
    metrics, summary = {}, None
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        if "summary" in obj:
            summary = obj["summary"]
        else:
            metrics[obj["metric"]] = obj
    if summary is None:
        fail("%s printed no summary" % workload)
    return metrics, summary


def fingerprint(summary):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10).stdout.strip() or head
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "crypto_backend": summary["crypto_backend"],
            "build_type": "Release", "git_head": head}


def measure(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    exe = build()
    trace_file = None
    if args.trace:
        trace_dir = os.path.join(build_root(), "e2e-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    metrics, summary = run_driver(exe, args.workload, args.seed,
                                  args.seconds, trace_file)
    print(json.dumps({"fingerprint": fingerprint(summary)}))
    for name, m in metrics.items():
        print(json.dumps({"workload": args.workload, "metric": name,
                          "value": m["value"], "unit": m["unit"],
                          "kind": m["kind"], "samples": m["samples"],
                          "base": m["base"]}))
    if trace_file:
        print(json.dumps({"trace_file": os.path.relpath(trace_file, ROOT)}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        result[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(summary["correct"]),
                      "attempted": int(summary["attempted"]),
                      "failed": int(summary["failed"]),
                      "metrics": result}))
    return 0


def smoke(spec):
    """Tiny sizes, traced, every workload: all metrics present, none failed."""
    exe = build()
    wanted = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = []
    for w in spec["workloads"]:
        trace = os.path.join(build_root(), "e2e-work", "smoke-trace.json")
        metrics, summary = run_driver(exe, w["name"], 1, 0.4, trace, True)
        missing = [n for n in wanted if n not in metrics]
        if missing:
            bad.append("%s: missing %s" % (w["name"], ", ".join(missing)))
        if summary["failed"] or metrics.get("fail_ratio", {}).get("value"):
            bad.append("%s: %d ops failed %s" % (
                w["name"], summary["failed"], summary["errors"]))
        if not summary["correct"]:
            bad.append("%s: incorrect %s" % (w["name"], summary["errors"]))
        print(json.dumps({"smoke": w["name"], "metrics": len(metrics),
                          "attempted": summary["attempted"],
                          "failed": summary["failed"]}))
    for b in bad:
        print("run.py --smoke: " + b, file=sys.stderr)
    return 1 if bad else 0


# ----------------------------------------------------------------- spread

def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (value - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def spread(args, spec):
    workloads = ([w for w in args.workloads.split(",") if w]
                 if args.workloads else [w["name"] for w in spec["workloads"]])
    out_path = args.out or os.path.join(build_root(), "e2e-runs.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    with open(out_path, "w") as out:
        for w in workloads:
            for seed in range(args.seed, args.seed + args.runs):
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True, cwd=ROOT)
                if proc.returncode != 0:
                    fail("%s seed %d failed" % (w, seed))
                result = json.loads(proc.stdout.splitlines()[-1])
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
    print(json.dumps({"runs_file": out_path}))
    return report_spread(load_runs(out_path), spec)


def report_spread(runs, spec):
    flagged = 0
    for w, results in runs.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            iqr = (q3 - q1) / med if med else 0.0
            lo, hi = min(values), max(values)
            maxmin = (hi - lo) / lo if lo else 0.0
            flags = []
            # The acceptance rule: the interquartile range stays within the
            # bound for every metric but setup_s.
            if m["name"] != "setup_s" and iqr > m["bound"]:
                flags.append("iqr above bound")
                flagged += 1
            if maxmin > m["bound"]:
                flags.append("max/min above bound")
            print(json.dumps({
                "workload": w, "metric": m["name"], "runs": len(values),
                "median": med, "q1": q1, "q3": q3, "iqr_share": iqr,
                "max_min_spread": maxmin, "bound": m["bound"],
                "all_correct": all(r["correct"] for r in results),
                "flags": flags}))
    return 1 if flagged else 0


def compare(args, spec):
    """B against A: a regression is a median worse by more than the bound;
    a gain needs B to win at least 9 in 10 of the run pairs (ties count for
    neither) and a median change larger than A's interquartile range."""
    a_runs, b_runs = load_runs(args.compare[0]), load_runs(args.compare[1])
    regressions = 0
    for w in sorted(set(a_runs) & set(b_runs)):
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs[w]]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs[w]]
            a_q1, a_med, a_q3 = quartiles(a)
            b_med = statistics.median(b)
            worse = worse_by(m, a_med, b_med)
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if worse_by(m, x, y) < 0)
            gain = (len(pairs) > 0 and wins >= 0.9 * len(pairs)
                    and abs(b_med - a_med) > (a_q3 - a_q1))
            regressed = worse > m["bound"]
            regressions += regressed
            verdict = ("regression" if regressed else
                       "gain" if gain else "no change beyond bound")
            print(json.dumps({
                "workload": w, "metric": m["name"], "a_median": a_med,
                "b_median": b_med, "worse_by": worse, "bound": m["bound"],
                "b_wins": wins, "pairs": len(pairs), "verdict": verdict}))
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--runs", type=int)
    p.add_argument("--workloads")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.compare:
        return compare(args, spec)
    if args.runs:
        return spread(args, spec)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
