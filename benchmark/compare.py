#!/usr/bin/env python3
"""Compare two benchmark results files: benchmark/compare.py A.json B.json

A and B are results JSONs written by benchmark/run.sh (A = baseline).
For every workload and metric present in both, prints A's and B's
median and quartiles over passes and a verdict on the reported value
(the median, or the best pass for wall_s and sim_mticks_per_s):

  ok          B is no worse than A by more than the bound
  REGRESSED   B is worse than A by more than the bound
  unresolved  the spread across passes (IQR / median, of A or of B)
              is wider than the bound, so the bound cannot be
              judged -- unless every B sample beats every A sample
  identical   a count that repeats exactly in every pass of A and B
  CHANGED     such a count differs between A and B
  info        a host-time layer metric; no bound, change shown

Bounds come from BENCHMARK.json end_to_end (a share of A's value)
and, for the simulated outcomes that only some workloads have, from
SIMULATED_BOUNDS below.  The fingerprints must match as well.  Exits
1 when anything REGRESSED or CHANGED.  Python standard library only.
"""

import collections
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name: (better, bound, absolute?) -- absolute bounds are in the
# metric's own unit (percentage points), relative ones a share.
SIMULATED_BOUNDS = {
    "paper_error_pp": ("lower", 0.05, True),
    "blocked_read_pct": ("lower", 0.001, True),
    "serving_p50_ns": ("lower", 0.01, False),
    "serving_p99_ns": ("lower", 0.01, False),
    "serving_drop_pct": ("lower", 0.0, True),
}


def stats(samples):
    med = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def spread(samples):
    med, q1, q3 = stats(samples)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(a, b, better):
    """How much worse b is than a, in a's unit (negative = better)."""
    return b - a if better == "lower" else a - b


REPORTED = {"median": statistics.median, "min": min, "max": max}


def verdict(name, summary, a, b, e2e):
    ma, mb = REPORTED[summary](a), REPORTED[summary](b)
    if name in e2e or name in SIMULATED_BOUNDS:
        if name in e2e:
            better, bound, absolute = e2e[name]["better"], \
                e2e[name]["bound"], False
        else:
            better, bound, absolute = SIMULATED_BOUNDS[name]
        worse = worse_by(ma, mb, better)
        if not absolute:
            worse = worse / abs(ma) if ma else 0.0
        if not absolute and max(spread(a), spread(b)) > bound:
            if all(worse_by(x, y, better) < 0 for x in a for y in b):
                return "ok", bound
            return "unresolved", bound
        return ("ok" if worse <= bound else "REGRESSED"), bound
    repeats = len(a) > 1 and len(b) > 1 and len(set(a)) == len(set(b)) == 1
    if repeats:
        return ("identical" if ma == mb else "CHANGED"), None
    return "info", None


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: benchmark/compare.py A.json B.json")
    with open(sys.argv[1]) as f:
        A = json.load(f)
    with open(sys.argv[2]) as f:
        B = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        e2e = {m["name"]: m for m in json.load(f)["end_to_end"]}

    counts = collections.Counter()
    for w, ra in A["workloads"].items():
        rb = B["workloads"].get(w)
        if rb is None:
            print("%s: missing from %s" % (w, sys.argv[2]))
            continue
        same = ra["fingerprint"] == rb["fingerprint"]
        print("%s fingerprint %s %s %s" % (
            w, ra["fingerprint"], rb["fingerprint"],
            "identical" if same else "CHANGED"))
        counts["identical" if same else "CHANGED"] += 1
        print("%-14s %-34s %-9s %11s %11s %11s %11s | %11s %11s %11s %11s"
              " %6s  %s" % ("workload", "metric", "unit", "A value",
                            "A median", "A q1", "A q3", "B value",
                            "B median", "B q1", "B q3", "bound", "verdict"))
        for name, ma in ra["metrics"].items():
            mb = rb["metrics"].get(name)
            if mb is None:
                continue
            a, b = ma["samples"], mb["samples"]
            report = REPORTED[ma["summary"]]
            v, bound = verdict(name, ma["summary"], a, b, e2e)
            counts[v] += 1
            print("%-14s %-34s %-9s %11.6g %11.6g %11.6g %11.6g | %11.6g "
                  "%11.6g %11.6g %11.6g %6s  %s" % (
                      (w, name, ma["unit"], report(a)) + stats(a)
                      + (report(b),) + stats(b)
                      + ("-" if bound is None else "%g" % bound, v)))
    print("summary: " + ", ".join("%s %d" % kv
                                  for kv in sorted(counts.items())))
    return 1 if counts.get("REGRESSED") or counts.get("CHANGED") else 0


if __name__ == "__main__":
    sys.exit(main())
