#!/usr/bin/env python3
"""Gate the auction engine's work counters against the committed baseline.

    ./build/bench/micro_auction /tmp/BENCH_auction.json
    python3 bench/check_auction_counters.py BENCH_auction.json /tmp/BENCH_auction.json

Every row of the fresh run must report the same oracle_queries,
oracle_cache_hits, solve_cache_hits and sssp_scanned (net.sssp.scanned: the
incident-list entries the run's shortest-path searches examined) as the
committed row with the same instance and mode. Every parallel row
(threads > 1) of the fresh run must also report the counters of its
instance's single-threaded row with the same cache setting: Clarke pivots
work on private memo overlays, so the work is the same at every thread
count. Run it on a build with observability compiled in (sssp_scanned reads
0 without). The counters are exact, so any difference is a change in what
the engine computes, not timing noise. Exits 1 on a difference, on a missing
row, or when the baseline has no rows.
"""

import json
import sys

COUNTERS = ("oracle_queries", "oracle_cache_hits", "solve_cache_hits", "sssp_scanned")


def rows_by_mode(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return {(r["instance"], r["mode"]): r for r in rows}


def differences(label, got, want, against):
    out = []
    for counter in COUNTERS:
        if got[counter] != want[counter]:
            out.append("%s: %s %d, %s %d" % (label, counter, got[counter], against,
                                             want[counter]))
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline, fresh = rows_by_mode(argv[1]), rows_by_mode(argv[2])
    if not baseline:
        print("no rows in %s" % argv[1], file=sys.stderr)
        return 1
    failures = []
    for key, want in sorted(baseline.items()):
        got = fresh.get(key)
        label = "%s/%s" % key
        if got is None:
            failures.append("%s: missing from %s" % (label, argv[2]))
            continue
        failures += differences(label, got, want, "baseline")
    serial = {(r["instance"], r["cache"]): r for r in fresh.values() if r["threads"] == 1}
    parallel = [r for r in fresh.values() if r["threads"] > 1]
    for row in sorted(parallel, key=lambda r: (r["instance"], r["mode"])):
        label = "%s/%s" % (row["instance"], row["mode"])
        ref = serial.get((row["instance"], row["cache"]))
        if ref is None:
            failures.append("%s: no single-threaded row with cache=%s" % (label, row["cache"]))
            continue
        failures += differences(label, row, ref, ref["mode"])
    for failure in failures:
        print(failure, file=sys.stderr)
    print("auction counters: %d rows checked against the baseline, %d parallel rows against "
          "their serial rows, %d differences" % (len(baseline), len(parallel), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
