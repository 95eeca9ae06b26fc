#!/usr/bin/env python3
"""Build the refsched benchmark program and run its workloads.

Usage (from anywhere; paths are resolved against the checkout):

  benchmark/run.sh [--seed S] [--trace] [--smoke] [--out FILE]
      Every workload in its own process (so peak RSS is per workload).
      Prints one `workload metric value unit n=.. median=.. iqr=..`
      line per metric plus each workload's fingerprint, ops and
      ops_failed, writes the merged results JSON, and exits non-zero
      when any correctness check fails.  --trace adds a traced run
      per workload: per-layer metrics, spans and trace_overhead_pct.
      --smoke divides run lengths by four and runs one pass.

  benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
      One workload; the last stdout line is the JSON object
      {"correct", "attempted", "failed", "metrics"} carrying the
      BENCHMARK.json end_to_end metrics (--trace 0) or per_layer
      metrics (--trace 1): each the median over timed passes, except
      wall_s and sim_mticks_per_s, which report the best pass.

Python standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-benchmark")
BENCH_BIN = os.path.join(BUILD, "refsched_bench")
ARTIFACTS = os.path.join(BUILD, "artifacts")
WORKLOADS = ["paper-grid", "sharded-8c4ch", "serving-mmpp", "churn-migrate"]
HOST_TIME_UNITS = {"s", "ms", "us", "ns"}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build refsched_bench (both no-ops when current)."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "refsched_bench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))


def summarize(samples, summary="median"):
    """The reported value (the series' summary statistic), n, median
    and quartiles (statistics.quantiles, n=4)."""
    med = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    value = {"median": med, "min": min(samples), "max": max(samples)}
    return {"value": value[summary], "n": len(samples), "median": med,
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def run_workload(workload, seed, seconds, trace, smoke):
    """Run one workload in a fresh process; return its results dict."""
    out = os.path.join(ARTIFACTS, "%s.seed%d.trace%d.json"
                       % (workload, seed, int(trace)))
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", out, "--artifact-dir", ARTIFACTS]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        sys.exit("%s exited with %d" % (workload, proc.returncode))
    with open(out) as f:
        res = json.load(f)
    for name, m in res["metrics"].items():
        if any(x is None for x in m["samples"]):
            sys.exit("%s: %s has a non-finite sample" % (workload, name))
        m.update(summarize(m["samples"], m["summary"]))
    return res


def metric_line(workload, name, m):
    return "%s %s %.6g %s n=%d median=%.6g iqr=%.6g" % (
        workload, name, m["value"], m["unit"], m["n"], m["median"],
        m["iqr"])


def contract_line(spec, res, trace):
    """The one-line result object the BENCHMARK.json contract asks for.

    A per_layer metric a workload does not exercise (say, barrier wait
    on the legacy kernel) reads 0; that is only allowed for metrics
    that are not host times, so a missing timer cannot pass as 0.
    """
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = res["metrics"].get(m["name"])
        if got is not None:
            value = got["value"]
        elif trace and m["unit"] not in HOST_TIME_UNITS:
            value = 0.0
        else:
            raise SystemExit("%s: metric %s missing"
                             % (res["workload"], m["name"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(res["correct"]), "attempted": res["ops"],
            "failed": res["ops_failed"], "metrics": metrics}


def single(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    res = run_workload(args.workload, args.seed, seconds, args.trace,
                     args.smoke)
    for name, m in res["metrics"].items():
        log(metric_line(res["workload"], name, m))
    print(json.dumps(contract_line(spec, res, args.trace)))
    return 0 if res["correct"] else 1


def full(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    merged = {"seed": args.seed, "smoke": args.smoke, "trace": args.trace,
              "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        res = run_workload(w, args.seed, seconds, False, args.smoke)
        if args.trace:
            traced = run_workload(w, args.seed, seconds, True, args.smoke)
            for name, m in traced["metrics"].items():
                if m["kind"] == "layer":
                    res["metrics"][name] = m
            base = res["metrics"]["wall_s"]["median"]
            over = 100.0 * (traced["metrics"]["wall_s"]["median"] / base - 1)
            res["metrics"]["trace_overhead_pct"] = dict(
                unit="%", kind="trace", summary="median", samples=[over],
                **summarize([over]))
            res["correct"] = res["correct"] and traced["correct"]
            res["trace_file"] = traced["trace_file"]
            res["span_self_ms_per_pass"] = traced["span_self_ms_per_pass"]
        merged["workloads"][w] = res
        ok = ok and res["correct"]

        print("%s seed=%d scale=%d passes=%d threads=%d"
              % (w, args.seed, res["scale"], res["passes"], res["threads"]))
        order = ["e2e", "fidelity", "layer", "trace"]
        for name, m in sorted(res["metrics"].items(),
                              key=lambda kv: order.index(kv[1]["kind"])):
            print(metric_line(w, name, m))
        print("%s fingerprint %s" % (w, res["fingerprint"]))
        print("%s ops %d" % (w, res["ops"]))
        print("%s ops_failed %d" % (w, res["ops_failed"]))
        for c in res["checks"]:
            if not c["ok"]:
                print("%s CHECK FAILED %s: %s" % (w, c["name"], c["detail"]))
        # Both traced and untraced must expose every listed metric.
        contract_line(spec, res, False)
        if args.trace:
            contract_line(spec, res, True)

    out = args.out or os.path.join(
        BUILD, "results-seed%d%s%s.json" % (
            args.seed, "-smoke" if args.smoke else "",
            "-trace" if args.trace else ""))
    with open(out, "w") as f:
        json.dump(merged, f, indent=1)
    with open(out) as f:
        json.load(f)  # the archive must parse back
    print("results: %s (%s)" % (out, "all checks passed" if ok
                                else "CHECKS FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="timed seconds per workload (BENCHMARK.json "
                         "run_seconds by default)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="merged results JSON (full mode)")
    args = ap.parse_args()
    spec = load_spec()
    build()
    os.makedirs(ARTIFACTS, exist_ok=True)
    return single(args, spec) if args.workload else full(args, spec)


if __name__ == "__main__":
    sys.exit(main())
