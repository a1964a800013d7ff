#!/usr/bin/env python3
"""Parent-vs-change pipebench comparator: the repository's one perf gate.

Usage:

  python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds pipebench records: the <workload>-seed<N>-trace0.json
files that pipebench/run.py writes under $CARGO_TARGET_DIR/pipebench/out/.
For every workload BENCHMARK.json lists, the comparator takes the median
over seeds of each end_to_end metric on both sides and applies that
metric's `better` and `bound`: the change regresses when its median is
worse than the parent's by more than bound x the parent's median. It
prints one table and exits

  0  when every metric of every gated workload is within its bound;
  1  when a metric regressed, the change failed a larger share of its
     operations (sum failed / sum attempted), a record says
     correct: false, or a workload or metric is missing on either side;
  2  on a usage error (wrong arguments, unreadable record).

Workloads BENCHMARK.json does not list (serve-open) are ignored. There are
no options: the bounds come only from BENCHMARK.json at the repository
root. Stdlib only, like tools/check_report.py.
"""

import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def die(message):
    print("bench_compare: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def load_records(directory):
    """{workload: [record, ...]} for every untraced record in `directory`."""
    if not os.path.isdir(directory):
        die("%s is not a directory" % directory)
    records = {}
    for name in sorted(os.listdir(directory)):
        m = RECORD.match(name)
        if m:
            record = load_json(os.path.join(directory, name))
            record["seed"] = int(m.group("seed"))
            records.setdefault(m.group("workload"), []).append(record)
    return records


def failed_share(records):
    attempted = sum(r.get("attempted", 0) for r in records)
    failed = sum(r.get("failed", 0) for r in records)
    return failed / attempted if attempted else 0.0


def side_median(records, metric):
    values = [r["metrics"][metric]["value"] for r in records
              if metric in r.get("metrics", {})]
    # A metric absent from any one seed counts as missing.
    return statistics.median(values) if len(values) == len(records) else None


def fmt(value):
    """Counts print exactly, everything else to six significant digits."""
    return "%d" % value if float(value).is_integer() else "%.6g" % value


def regressed(parent, change, better, bound):
    if better == "higher":
        return change < parent * (1.0 - bound)
    return change > parent * (1.0 + bound)


def compare(spec, parent, change):
    """Prints the table; returns the list of reasons the gate fails."""
    reasons = []
    row = "%-16s %-20s %5s %6s %6s %14s %14s %8s  %s"
    print(row % ("workload", "metric", "unit", "better", "bound", "parent",
                 "change", "delta", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"parent": parent.get(workload, []),
                 "change": change.get(workload, [])}
        for side, records in sides.items():
            if not records:
                reasons.append("%s: no %s records" % (workload, side))
            for r in records:
                if r.get("correct") is not True:
                    reasons.append("%s: %s seed %d is not correct" %
                                   (workload, side, r["seed"]))
        if not all(sides.values()):
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = side_median(sides["parent"], name)
            c = side_median(sides["change"], name)
            if p is None or c is None:
                reasons.append("%s: %s missing on the %s side" %
                               (workload, name, "parent" if p is None else "change"))
                continue
            delta = (c - p) / p if p else 0.0
            bad = regressed(p, c, m["better"], m["bound"])
            if bad:
                reasons.append("%s: %s %+.1f%% is past its %g%% bound" %
                               (workload, name, 100 * delta, 100 * m["bound"]))
            print(row % (workload, name, m["unit"], m["better"],
                         "%g%%" % (100 * m["bound"]), fmt(p), fmt(c),
                         "%+.1f%%" % (100 * delta), "REGRESSED" if bad else "ok"))
        fp = failed_share(sides["parent"])
        fc = failed_share(sides["change"])
        print(row % (workload, "failed_share", "", "lower", "0%", fmt(fp),
                     fmt(fc), "", "REGRESSED" if fc > fp else "ok"))
        if fc > fp:
            reasons.append("%s: failed share %.6g > parent %.6g" % (workload, fc, fp))
        print("%-16s seeds parent=%s change=%s" % (
            workload, ",".join(str(r["seed"]) for r in sides["parent"]),
            ",".join(str(r["seed"]) for r in sides["change"])))
    return reasons


def main(argv):
    if len(argv) != 2 or any(a.startswith("-") for a in argv):
        die("usage: bench_compare.py PARENT_DIR CHANGE_DIR")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reasons = compare(spec, load_records(argv[0]), load_records(argv[1]))
    for reason in reasons:
        print("FAIL " + reason)
    print("bench_compare: %s" % ("FAIL" if reasons else "ok"))
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
