#!/usr/bin/env python3
"""Gate the auction engine's work counters against the committed baseline.

    ./build/bench/micro_auction /tmp/BENCH_auction.json
    python3 bench/check_auction_counters.py BENCH_auction.json /tmp/BENCH_auction.json

Every single-threaded row (threads == 1: the serial and cached modes) of
the fresh run must report the same oracle_queries, oracle_cache_hits,
solve_cache_hits and sssp_scanned (net.sssp.scanned: the incident-list
entries the run's shortest-path searches examined) as the committed row
with the same instance and mode.
Run it on a build with observability compiled in (sssp_scanned reads 0
without). The counters are exact, so any difference is a change in what the
engine computes, not timing noise. Rows with threads > 1 are skipped:
concurrent pivots may race to fill the memo, which moves their counters
by a query or two without changing any result. Exits 1 on a difference,
on a missing row, or when the baseline has no single-threaded rows.
"""

import json
import sys

COUNTERS = ("oracle_queries", "oracle_cache_hits", "solve_cache_hits", "sssp_scanned")


def serial_rows(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return {(r["instance"], r["mode"]): r for r in rows if r["threads"] == 1}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline, fresh = serial_rows(argv[1]), serial_rows(argv[2])
    if not baseline:
        print("no threads == 1 rows in %s" % argv[1], file=sys.stderr)
        return 1
    failures = 0
    for key, want in sorted(baseline.items()):
        got = fresh.get(key)
        if got is None:
            print("%s/%s: missing from %s" % (key[0], key[1], argv[2]), file=sys.stderr)
            failures += 1
            continue
        for counter in COUNTERS:
            if got[counter] != want[counter]:
                print("%s/%s: %s %d, baseline %d" % (key[0], key[1], counter, got[counter],
                                                    want[counter]), file=sys.stderr)
                failures += 1
    print("auction counters: %d rows checked, %d differences" % (len(baseline), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
