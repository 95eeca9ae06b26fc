#!/usr/bin/env python3
"""Interleaved parent/change A/B of the refsched benchmark.

Usage (from anywhere; paths are resolved against the checkout):

  tools/perf_ab.py run --parent REF [--workload W ...] [--pairs N]
        [--seed S] [--seconds N] [--trace] [--workdir DIR]
        [--record LABEL]
      Extracts REF with `git archive` into DIR (build-ab/ by default),
      builds the benchmark program in both that tree and this
      checkout (uncommitted edits included), then runs N pairs of
      `benchmark/run.sh --workload W` per workload (by default every
      workload BENCHMARK.json lists), alternating which side goes
      first.  Saves every run to DIR/ab-W-seedS[-trace].json,
      prints the summary, and with --record appends one row per
      workload and end-to-end metric to tools/perf_trajectory.jsonl.

  tools/perf_ab.py summarize RESULTS [--record LABEL]
      Re-prints (and optionally records) the summary of a saved run.

The summary gives, per workload and metric, the median and quartile
spread of each side.  For every end-to-end metric BENCHMARK.json
lists, it also gives how many pairs the change won (in the metric's
`better` direction), the ratio of the medians (parent/change for a
lower-is-better metric, change/parent for a higher-is-better one, so
above 1 means the change is better), and whether the change clears
the gain rule: at least nine in ten pairs won and a median gap larger
than the parent's IQR.  It also says whether every run on both sides
produced the same simulation fingerprint, and gives each side's median
timed-pass count.  The benchmark program keeps every pass's results,
so its peak RSS grows with the pass count; when the two sides' median
pass counts differ, the peak_rss_mb verdict is flagged.  Quartiles use
statistics.quantiles(n=4), as benchmark/run.py does.

Python standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "tools", "perf_trajectory.jsonl")


def read_benchmark(path=os.path.join(ROOT, "BENCHMARK.json")):
    """BENCHMARK.json's workload names and its end-to-end metrics as
    [(name, better)], both in file order."""
    with open(path) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            [(m["name"], m["better"]) for m in spec["end_to_end"]])


WORKLOADS, END_TO_END = read_benchmark()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(ref, workdir):
    """git archive @p ref into workdir/parent-<sha>; reuse if there."""
    sha = git("rev-parse", "--short", ref)
    tree = os.path.join(workdir, "parent-" + sha)
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait():
            sys.exit("git archive %s failed" % ref)
    return sha, tree


def build(tree):
    """Build refsched_bench the way benchmark/run.py does."""
    out = os.path.join(tree, "build-benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(tree, "benchmark"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "refsched_bench",
                 "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, check=True)


def steal_ticks():
    """Host steal time so far (the 8th field of /proc/stat's cpu line)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def parse_run(stdout, artifact):
    """One run's record from run.sh's last stdout line (the contract
    object) and its results artifact (fingerprint, timed-pass count,
    span ledger)."""
    contract = json.loads(stdout.strip().splitlines()[-1])
    with open(artifact) as f:
        res = json.load(f)
    metrics = {name: m["value"] for name, m in contract["metrics"].items()}
    # A traced run's contract lists only per-layer metrics; take the
    # rest (wall_s among them) from the artifact, summarized as
    # run.py summarizes them.
    pick = {"median": statistics.median, "min": min, "max": max}
    for name, m in res["metrics"].items():
        if name not in metrics and m["samples"]:
            metrics[name] = pick[m["summary"]](m["samples"])
    run = {"correct": bool(contract["correct"]),
           "fingerprint": res["fingerprint"], "passes": res["passes"],
           "metrics": metrics}
    spans = res.get("span_self_ms_per_pass") or {}
    if spans:
        run["span_self_ms_per_pass"] = spans
    return run


def run_once(tree, workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(tree, "benchmark", "run.sh"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    before = steal_ticks()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode not in (0, 1):
        sys.exit("%s exited with %d" % (" ".join(cmd), proc.returncode))
    artifact = os.path.join(tree, "build-benchmark", "artifacts",
                            "%s.seed%d.trace%d.json"
                            % (workload, seed, int(trace)))
    run = parse_run(proc.stdout, artifact)
    run["steal_ticks"] = steal_ticks() - before
    return run


def quartiles(xs):
    med = statistics.median(xs)
    if len(xs) > 1:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(pairs, name, better, parent, change):
    """Wins, median ratio and gain rule of one end-to-end metric."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p["parent"]["metrics"][name]
                       - p["change"]["metrics"][name]) > 0 for p in pairs)
    gap = sign * (parent["median"] - change["median"])
    num, den = ((parent["median"], change["median"]) if sign > 0
                else (change["median"], parent["median"]))
    return {"better": better, "wins": wins,
            "ratio": num / den if den else (1.0 if num == den else None),
            "gain_clears": wins * 10 >= 9 * len(pairs)
            and gap > parent["iqr"]}


def median_passes(pairs, side):
    """@p side's median timed-pass count; None when a run (saved
    before runs recorded it) lacks one."""
    counts = [p[side].get("passes") for p in pairs]
    return None if None in counts else statistics.median(counts)


def summarize(results):
    """Per-workload summary of a saved A/B (see the module doc)."""
    out = {}
    for workload, pairs in results["workloads"].items():
        names = sorted(pairs[0]["parent"]["metrics"])
        metrics = {}
        for name in names:
            a = [p["parent"]["metrics"][name] for p in pairs]
            b = [p["change"]["metrics"][name] for p in pairs]
            metrics[name] = {"parent": quartiles(a), "change": quartiles(b)}
        verdicts = {name: verdict(pairs, name, better,
                                  metrics[name]["parent"],
                                  metrics[name]["change"])
                    for name, better in END_TO_END if name in metrics}
        prints = {p[side]["fingerprint"] for p in pairs
                  for side in ("parent", "change")}
        passes = {side: median_passes(pairs, side)
                  for side in ("parent", "change")}
        out[workload] = {
            "pairs": len(pairs), "metrics": metrics, "verdicts": verdicts,
            "passes": passes,
            "passes_differ": None not in passes.values()
            and passes["parent"] != passes["change"],
            "fingerprints_equal": len(prints) == 1,
            "fingerprint": sorted(prints)[0],
            "correct": all(p[side]["correct"] for p in pairs
                           for side in ("parent", "change")),
            "max_steal_ticks": max(p[side]["steal_ticks"] for p in pairs
                                   for side in ("parent", "change")),
        }
    return out


def fmt_ratio(ratio):
    return "n/a" if ratio is None else "%.3fx" % ratio


def report(results, summary):
    lines = []
    for workload, s in summary.items():
        lines.append("%s seed=%d pairs=%d parent=%s change=%s" % (
            workload, results["seed"], s["pairs"], results["parent"],
            results["change"]))
        for name, m in s["metrics"].items():
            a, b = m["parent"], m["change"]
            lines.append("  %-28s parent %.6g (iqr %.3g)  change %.6g "
                         "(iqr %.3g)" % (name, a["median"], a["iqr"],
                                         b["median"], b["iqr"]))
        lines.append("  passes (median) parent %s change %s" % tuple(
            "n/a" if n is None else "%g" % n
            for n in (s["passes"]["parent"], s["passes"]["change"])))
        for name, v in s["verdicts"].items():
            flag = ""
            if name == "peak_rss_mb" and s["passes_differ"]:
                flag = " [pass counts differ: RSS grows with passes]"
            lines.append("  %s (%s is better) wins %d/%d ratio %s gain %s%s"
                         % (name, v["better"], v["wins"], s["pairs"],
                            fmt_ratio(v["ratio"]),
                            "clears" if v["gain_clears"]
                            else "does not clear", flag))
        lines.append("  fingerprints %s (%s); checks %s; max steal %d "
                     "ticks" % ("equal" if s["fingerprints_equal"]
                                else "DIFFER", s["fingerprint"],
                                "ok" if s["correct"] else "FAILED",
                                s["max_steal_ticks"]))
    return "\n".join(lines)


def trajectory_rows(label, results, summary):
    """One row per workload and end-to-end metric.  The row's
    `speedup` field is the metric's ratio (above 1 = the change is
    better); older rows, all wall_s, used the same field."""
    rows = []
    for workload, s in summary.items():
        for name, v in s["verdicts"].items():
            c = s["metrics"][name]
            rows.append({
                "label": label, "parent": results["parent"],
                "change": results["change"], "workload": workload,
                "seed": results["seed"], "pairs": s["pairs"],
                "metric": name,
                "parent_median": round(c["parent"]["median"], 4),
                "parent_iqr": round(c["parent"]["iqr"], 4),
                "change_median": round(c["change"]["median"], 4),
                "change_iqr": round(c["change"]["iqr"], 4),
                "wins": v["wins"],
                "speedup": None if v["ratio"] is None
                else round(v["ratio"], 3),
                "fingerprints_equal": s["fingerprints_equal"],
                "host": results.get("host", ""),
            })
    return rows


def record(label, results, summary):
    with open(TRAJECTORY, "a") as f:
        for row in trajectory_rows(label, results, summary):
            f.write(json.dumps(row, sort_keys=True) + "\n")
    log("appended to", TRAJECTORY)


def host_description():
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        model = "unknown cpu"
    return "%s x%d" % (model, os.cpu_count() or 1)


def cmd_run(args):
    workdir = os.path.abspath(args.workdir)
    sha, parent_tree = extract(args.parent, workdir)
    change = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change = "worktree@" + change
    for tree in (parent_tree, ROOT):
        build(tree)
    results = {"parent": sha, "change": change, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "host": host_description(), "workloads": {}}
    sides = {"parent": parent_tree, "change": ROOT}
    for workload in args.workload or WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 \
                else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, args.seed,
                                      args.seconds, args.trace)
                log("%s pair %d %s %s" % (
                    workload, i + 1, side, " ".join(
                        "%s=%.4g" % (name, pair[side]["metrics"][name])
                        for name, _ in END_TO_END
                        if name in pair[side]["metrics"])))
            pairs.append(pair)
        results["workloads"][workload] = pairs
        out = os.path.join(workdir, "ab-%s-seed%d%s.json" % (
            workload, args.seed, "-trace" if args.trace else ""))
        with open(out, "w") as f:
            json.dump({**results, "workloads": {workload: pairs}}, f,
                      indent=1)
        log("saved", out)
    summary = summarize(results)
    print(report(results, summary))
    if args.record:
        record(args.record, results, summary)
    return 0


def cmd_summarize(args):
    with open(args.results) as f:
        results = json.load(f)
    summary = summarize(results)
    print(report(results, summary))
    if args.record:
        record(args.record, results, summary)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run an interleaved A/B")
    r.add_argument("--parent", required=True,
                   help="git ref of the baseline side")
    r.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeatable; every BENCHMARK.json workload by "
                   "default")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=15)
    r.add_argument("--trace", action="store_true",
                   help="traced runs (per-layer metrics, span ledger)")
    r.add_argument("--workdir", default=os.path.join(ROOT, "build-ab"))
    r.add_argument("--record", metavar="LABEL",
                   help="append the summary to tools/perf_trajectory.jsonl")
    r.set_defaults(func=cmd_run)
    s = sub.add_parser("summarize", help="summarize a saved A/B")
    s.add_argument("results")
    s.add_argument("--record", metavar="LABEL")
    s.set_defaults(func=cmd_summarize)
    args = ap.parse_args()
    if getattr(args, "pairs", 1) < 1:
        ap.error("--pairs must be at least 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
