#!/usr/bin/env python3
"""Alternating parent/change pairs of the CCTP benchmark, with a verdict for
each end-to-end metric; or one traced run per side and workload, to show
that no count moved.

    python3 tools/pair_bench.py --parent DIR --change DIR --workload W \\
        --seeds A-B [--seconds 10]
    python3 tools/pair_bench.py --parent DIR --change DIR --counts \\
        --seed S [--seconds 3]

DIR is the root of a checkout. For each seed from A to B, one pair runs
`python3 cctpbench/run.py --workload W --seed S --seconds X --trace 0` in
both checkouts, one after the other; the side that goes first alternates
from pair to pair. Each checkout builds its own binary on its first run.

The end-to-end metrics, each with its `better` direction and its `bound`
(the relative amount by which it may worsen), are read from BENCHMARK.json
in the change's checkout. For each metric the tool prints each side's
median [q1-q3], the pairs the change won (ties count for neither side) and
the parent's spread, (q3 - q1) / median. Then a verdict, the first of these
that holds:

  better      the change won at least 9/10 of the pairs, and its median is
              better than the parent's by more than the parent's q3 - q1;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's spread is wider than the bound, and not every
              change run reads better than every parent run;
  unchanged   any other case.

Last it prints each side's runs that failed to produce a result and its
failed/attempted operation counts summed over the runs. A pair with a
failed run counts for no metric. The exit code is 1 when a run failed.

With --counts, for each workload of the change's BENCHMARK.json, one run of
`cctpbench/run.py --workload W --seed S --seconds X --trace 1` goes in each
checkout, the parent's first. The tool prints both sides' correct,
attempted and failed counts and their per-layer time metrics (those whose
unit contains "ms", and obs.trace_overhead) side by side, then lists every
other per-layer metric whose value differs between the sides. Those are
counts and ratios of counts, which a seed fixes, so the exit code is 1 when
any of them, or the correct, attempted or failed field, differs, or a run
failed.

Nothing in either checkout is edited; run.py writes only its build
directory, .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True


def parse_seeds(text):
    first, _, last = text.partition("-")
    first = int(first)
    last = int(last) if last else first
    if last < first:
        raise argparse.ArgumentTypeError("empty seed range " + text)
    return list(range(first, last + 1))


def benchmark_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end_metrics(checkout):
    return [(m["name"], m["better"], float(m["bound"]))
            for m in benchmark_spec(checkout)["end_to_end"]]


def run_once(checkout, workload, seed, seconds, trace=0):
    """The result JSON of one run, or None if the run failed."""
    cmd = [sys.executable, os.path.join("cctpbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        print("  %s seed %d failed: %s" % (checkout, seed, tail),
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def quartiles(values):
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, better, bound):
    """The verdict for one metric over paired runs, as the module doc
    states it, with the numbers behind it."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    gain = sign * (c_med - p_med)
    if 10 * won >= 9 * len(parent) and gain > p_q3 - p_q1:
        result = "better"
    elif gain < -bound * abs(p_med):
        result = "worse"
    elif spread > bound and not (min(sign * c for c in change) >
                                 max(sign * p for p in parent)):
        result = "unresolved"
    else:
        result = "unchanged"
    return result, won, spread


def is_time_metric(metric):
    return "ms" in metric["unit"] or metric["name"] == "obs.trace_overhead"


def compare_counts(sides, seed, seconds):
    """--counts mode; returns the exit code."""
    spec = benchmark_spec(sides["change"])
    moved = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {side: run_once(sides[side], workload, seed, seconds, trace=1)
                for side in ("parent", "change")}
        print("%s, seed %d, %g s traced" % (workload, seed, seconds))
        failed = [side for side in runs if runs[side] is None]
        if failed:
            moved += 1
            print("  run failed: " + ", ".join(failed))
            continue
        for key in ("correct", "attempted", "failed"):
            differs = runs["parent"][key] != runs["change"][key]
            moved += differs
            print("  %-28s %s -> %s%s" % (key, runs["parent"][key],
                                          runs["change"][key],
                                          "  DIFFERS" if differs else ""))
        differing = []
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [runs[side]["metrics"][name]["value"]
                      for side in ("parent", "change")]
            if is_time_metric(metric):
                print("  %-28s %.4g -> %.4g %s" %
                      (name, values[0], values[1], metric["unit"]))
            elif values[0] != values[1]:
                differing.append("  %-28s %.6g -> %.6g %s  DIFFERS" %
                                 (name, values[0], values[1], metric["unit"]))
        moved += len(differing)
        print("\n".join(differing) if differing else
              "  every other per-layer metric is equal")
    return 1 if moved else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=parse_seeds,
                        help="A-B, both included")
    parser.add_argument("--counts", action="store_true",
                        help="one traced run per side and workload")
    parser.add_argument("--seed", type=int, help="the seed of --counts")
    parser.add_argument("--seconds", type=float,
                        help="default 10, or 3 with --counts")
    args = parser.parse_args()
    if args.counts and args.seed is None:
        parser.error("--counts needs --seed")
    if not args.counts and (args.workload is None or args.seeds is None):
        parser.error("--workload and --seeds are required without --counts")

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    if args.counts:
        return compare_counts(sides, args.seed,
                              3.0 if args.seconds is None else args.seconds)
    if args.seconds is None:
        args.seconds = 10.0
    metrics = end_to_end_metrics(sides["change"])
    results = {"parent": [], "change": []}
    for index, seed in enumerate(args.seeds):
        order = ["parent", "change"] if index % 2 == 0 else ["change",
                                                             "parent"]
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed,
                                  args.seconds)
        for side in order:
            results[side].append(pair[side])
        for side in order:
            values = "failed" if pair[side] is None else " ".join(
                "%s=%.4g" % (name, pair[side]["metrics"][name]["value"])
                for name, _, _ in metrics)
            print("seed %d %s: %s" % (seed, side, values), file=sys.stderr)

    ok = [i for i in range(len(args.seeds))
          if results["parent"][i] is not None
          and results["change"][i] is not None]
    print("%s, %d pairs of %g s (seeds %d-%d), %d with both runs ok" %
          (args.workload, len(args.seeds), args.seconds, args.seeds[0],
           args.seeds[-1], len(ok)))
    for name, better, bound in metrics:
        if not ok:
            break
        values = {side: [results[side][i]["metrics"][name]["value"]
                         for i in ok] for side in results}
        result, won, spread = verdict(values["parent"], values["change"],
                                      better, bound)
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(values[side])
            cells.append("%s %.4g [%.4g-%.4g]" % (side, median, q1, q3))
        print("  %-16s %s -> %s; won %d/%d; parent spread %.3f "
              "(bound %g, %s is better): %s" %
              (name, cells[0], cells[1], won, len(ok), spread, bound,
               better, result))
    failed_runs = 0
    for side in ("parent", "change"):
        runs = [r for r in results[side] if r is not None]
        failed_runs += len(results[side]) - len(runs)
        print("  %s: %d/%d runs ok; operations failed %d of %d attempted" %
              (side, len(runs), len(results[side]),
               sum(r["failed"] for r in runs),
               sum(r["attempted"] for r in runs)))
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
