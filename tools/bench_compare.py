#!/usr/bin/env python3
"""Compare two specmatch bench JSON files and fail on perf regressions.

Usage:
    bench_compare.py OLD.json NEW.json [--threshold PCT] [--min-ms MS]
                                       [--min-ns NS]

Two record shapes are understood and may coexist in one file:

  * engine rows (specmatch-bench-v2), keyed by (bench, M, N, algorithm,
    threads), comparing:
      - wall_ms            lower is better (skipped when the old value is 0)
      - p99_ms  (note)     lower is better
      - p50_ms  (note)     lower is better
      - rps     (note)     higher is better
  * kernel rows (specmatch-kernels-v1, written by bench/micro_kernels),
    keyed by (kernel, words, dispatch), comparing:
      - ns_per_word        lower is better
      - ns_per_call        lower is better

"note" metrics are parsed from the free-form `key=value` tokens the bench
binaries embed (e.g. "p50_ms=0.015 p99_ms=2.5 rps=4242.16 solves=48").

A metric regresses when it moves past --threshold percent (default 25) in
the bad direction AND by more than an absolute floor — --min-ms (default
0.25 ms) for millisecond metrics, --min-ns (default 2 ns) for the
nanosecond kernel metrics. The floors keep sub-millisecond smoke points
and single-digit-ns kernel calls from tripping the gate on scheduler
noise.

Keys present in only one file are reported as coverage drift but are not
fatal: bench grids legitimately grow and shrink across PRs.

Exit status: 0 = no regression, 1 = regression detected, 2 = usage or
parse error.
"""

import argparse
import json
import re
import sys

# metric name -> direction; +1 means higher-is-better, -1 lower-is-better.
NOTE_METRICS = {"p50_ms": -1, "p99_ms": -1, "rps": +1}
NOTE_TOKEN = re.compile(r"\b([A-Za-z0-9_]+)=(-?[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?)\b")


def load_records(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_compare: cannot read {path}: {exc}")
    records = doc.get("records")
    if not isinstance(records, list):
        sys.exit(f"bench_compare: {path} has no 'records' array")
    table = {}
    for rec in records:
        if "kernel" in rec:
            # micro_kernels row (specmatch-kernels-v1).
            key = ("kernel", rec.get("kernel"), rec.get("words"),
                   rec.get("dispatch"))
        else:
            key = (
                rec.get("bench"),
                rec.get("M"),
                rec.get("N"),
                rec.get("algorithm"),
                rec.get("threads"),
            )
        # Duplicate keys keep the first occurrence so OLD and NEW pair up the
        # same way.
        table.setdefault(key, rec)
    return table


def label_of(key):
    if key[0] == "kernel":
        return "kernel {}[words={} {}]".format(*key[1:])
    return "{}[M={} N={} {} t={}]".format(*key)


def metrics_of(rec):
    out = {}
    if "kernel" in rec:
        for name in ("ns_per_word", "ns_per_call"):
            value = rec.get(name)
            if isinstance(value, (int, float)) and value > 0:
                out[name] = (float(value), -1)
        return out
    wall = rec.get("wall_ms")
    if isinstance(wall, (int, float)) and wall > 0:
        out["wall_ms"] = (float(wall), -1)
    for name, value in NOTE_TOKEN.findall(rec.get("note", "") or ""):
        if name in NOTE_METRICS:
            out[name] = (float(value), NOTE_METRICS[name])
    return out


def main(argv):
    parser = argparse.ArgumentParser(prog="bench_compare.py")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="regression threshold in percent (default 25)")
    parser.add_argument("--min-ms", type=float, default=0.25,
                        help="absolute slack for *_ms metrics (default 0.25)")
    parser.add_argument("--min-ns", type=float, default=2.0,
                        help="absolute slack for ns_* kernel metrics "
                             "(default 2)")
    args = parser.parse_args(argv)
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    old_table = load_records(args.old)
    new_table = load_records(args.new)

    regressions = []
    improvements = 0
    compared = 0
    for key in sorted(old_table, key=str):
        if key not in new_table:
            continue
        old_metrics = metrics_of(old_table[key])
        new_metrics = metrics_of(new_table[key])
        label = label_of(key)
        for name, (old_val, direction) in sorted(old_metrics.items()):
            if name not in new_metrics:
                continue
            new_val = new_metrics[name][0]
            compared += 1
            # Signed percentage move in the bad direction.
            if old_val == 0:
                continue
            delta_pct = (new_val - old_val) / old_val * 100.0
            bad_pct = -delta_pct if direction > 0 else delta_pct
            if bad_pct <= args.threshold:
                if bad_pct < 0:
                    improvements += 1
                continue
            if name.endswith("_ms") and abs(new_val - old_val) < args.min_ms:
                continue
            if name.startswith("ns_") and abs(new_val - old_val) < args.min_ns:
                continue
            regressions.append(
                f"  {label} {name}: {old_val:g} -> {new_val:g} "
                f"({bad_pct:+.1f}% worse, threshold {args.threshold:g}%)")

    only_old = sorted(set(old_table) - set(new_table), key=str)
    only_new = sorted(set(new_table) - set(old_table), key=str)
    for key in only_old:
        print("bench_compare: note: dropped from NEW: "
              "{}[M={} N={} {} t={}]".format(*key))
    for key in only_new:
        print("bench_compare: note: new in NEW: "
              "{}[M={} N={} {} t={}]".format(*key))

    if compared == 0:
        sys.exit("bench_compare: no comparable metrics between "
                 f"{args.old} and {args.new}")

    if regressions:
        print(f"bench_compare: FAIL — {len(regressions)} regression(s) "
              f"over {args.threshold:g}% across {compared} metric(s):")
        for line in regressions:
            print(line)
        return 1
    print(f"bench_compare: OK — {compared} metric(s) within "
          f"{args.threshold:g}% ({improvements} improved)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
