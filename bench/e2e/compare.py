#!/usr/bin/env python3
"""Compares run.py result files of a parent commit and a change.

Run the two commits as at least ten alternating pairs (parent first in
one pair, change first in the next), each pair with the same seed and
--seconds, then:

    python3 bench/e2e/compare.py --parent p1.json ... --change c1.json ...

The i-th parent file is paired with the i-th change file. For every
(workload, end-to-end metric) of BENCHMARK.json it prints each side's
median and quartiles, the pairs the change won, and a verdict:

  improved    the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread
  worse       the same rule with parent and change swapped
  unresolved  the run-to-run spread is wider than the metric's bound and
              not every change run is better (or worse) than every parent
              run
  unchanged   none of the above

A median worse than the parent's by more than the bound is a regression;
the exit status is 1 if there is any. `--self-test` checks the rules on
fabricated results.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(parent, change, better, bound):
    """Verdict for one metric; parent and change are per-run values
    in pair order."""
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    pairs = len(gains)
    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    gain = sign * (cm - pm)
    worse_share = -gain / pm if pm else (0.0 if cm == pm else float("inf"))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if wins >= 0.9 * pairs and gain > p3 - p1 and (spread <= bound or
                                                   all_better):
        verdict = "improved"
    elif losses >= 0.9 * pairs and -gain > p3 - p1 and (spread <= bound or
                                                         all_worse):
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins,
            "pairs": pairs, "worse_share": worse_share, "spread": spread,
            "verdict": verdict,
            "regression": verdict != "unresolved" and worse_share > bound}


def collect(results):
    """{workload: {metric: [value per result]}} over run.py results."""
    out = {}
    for r in results:
        for w, rec in r["workloads"].items():
            for m, v in rec["e2e"].items():
                out.setdefault(w, {}).setdefault(m, []).append(v["value"])
    return out


def compare(parent_results, change_results, spec):
    parent, change = collect(parent_results), collect(change_results)
    rows = []
    for w in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p, c = parent[w].get(m["name"]), change[w].get(m["name"])
            if not p or not c or len(p) != len(c):
                continue
            rows.append((w, m, judge(p, c, m["better"], m["bound"])))
    return rows


def print_rows(rows):
    print(f"{'workload':12} {'metric':19} {'parent median [q1,q3]':>30} "
          f"{'change median [q1,q3]':>30} {'wins':>6} {'worse':>7} "
          f"{'bound':>6}  verdict")
    for w, m, j in rows:
        fmt = lambda t: f"{t[0]:.5g} [{t[1]:.5g},{t[2]:.5g}]"
        flag = "  REGRESSION" if j["regression"] else ""
        print(f"{w:12} {m['name']:19} {fmt(j['parent']):>30} "
              f"{fmt(j['change']):>30} {j['wins']:>3}/{j['pairs']:<2} "
              f"{100 * j['worse_share']:+6.1f}% {100 * m['bound']:5.1f}%  "
              f"{j['verdict']}{flag}")


def fabricated(spec, slow_workload=None, slowdown=1.0, rng=None, base=None):
    """Ten fake run.py results; slow_workload's timings scaled by
    slowdown. With base, the runs are base's runs in a new
    order (the identical distribution)."""
    if base is not None:
        runs = [json.loads(json.dumps(r)) for r in base]
        rng.shuffle(runs)
    else:
        runs = []
        for _ in range(10):
            wl = {}
            for w in ("table1_pea", "table1_flat", "compile", "tenants"):
                e2e = {}
                for m in spec["end_to_end"]:
                    noise = 1 + rng.gauss(0, 0.01) if m["bound"] > 0.05 else 1
                    e2e[m["name"]] = {"value": 100.0 * noise,
                                      "unit": m["unit"]}
                wl[w] = {"e2e": e2e}
            runs.append({"workloads": wl})
    if slow_workload:
        for r in runs:
            e2e = r["workloads"][slow_workload]["e2e"]
            for m in spec["end_to_end"]:
                if m["name"] == "ops_per_s":
                    e2e[m["name"]]["value"] /= slowdown
                elif m["name"].startswith("op_ms"):
                    e2e[m["name"]]["value"] *= slowdown
    return runs


def self_test(spec):
    rng = random.Random(11)
    parent = fabricated(spec, rng=rng)
    problems = []
    same = compare(parent, fabricated(spec, rng=rng, base=parent), spec)
    for w, m, j in same:
        if j["verdict"] != "unchanged" or j["regression"]:
            problems.append(f"identical distributions: {w} {m['name']} "
                            f"judged {j['verdict']}")
    slow = compare(parent, fabricated(spec, "compile", 1.10, rng, parent),
                   spec)
    timing = ("ops_per_s", "op_ms_p50", "op_ms_p99")
    for w, m, j in slow:
        want = "worse" if w == "compile" and m["name"] in timing \
            else "unchanged"
        if j["verdict"] != want:
            problems.append(f"10% slowdown on compile: {w} {m['name']} "
                            f"judged {j['verdict']}, want {want}")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", type=Path, default=[])
    ap.add_argument("--change", nargs="+", type=Path, default=[])
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if opts.self_test:
        return self_test(spec)
    if not opts.parent or len(opts.parent) != len(opts.change):
        ap.error("give the same number (>= 1) of --parent and --change files")
    if len(opts.parent) < 10:
        print(f"warning: {len(opts.parent)} pairs; a claim needs >= 10")
    load = lambda paths: [json.loads(p.read_text()) for p in paths]
    rows = compare(load(opts.parent), load(opts.change), spec)
    print_rows(rows)
    regressions = sum(j["regression"] for _, _, j in rows)
    print(f"{len(rows)} comparisons, {regressions} regressions")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
