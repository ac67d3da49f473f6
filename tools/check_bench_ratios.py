#!/usr/bin/env python3
"""Complexity gate over bench_micro_core JSON output.

Reads a google-benchmark ``--benchmark_format=json`` dump and asserts that
per-item cost stays flat where the design says it must. The bounds are
*ratios between benchmarks from the same run*, so runner speed and CPU
contention cancel out; only an algorithmic regression (an O(n)-per-event
scan creeping back into the PS resource or the warehouse ingest path) can
trip them.

Gates (see EXPERIMENTS.md "virtual-time PS + metrics hot paths"):

* PsResourceChurn/2048 items/s within 10x of PsResourceChurn/4. Measured
  3-5x on the virtual-time implementation (run-to-run noise included); the
  pre-rewrite O(n) scan sat at ~630x, so 10x is generous against noise and
  unmissable against regression.
* WarehouseIngestQuery/14400 items/s within 6x of /3600. Interned-id append
  is O(1) amortized (measured ~3x, dominated by one series reallocation in
  the timed region); a per-ingest name lookup or full-series window copy
  scales with prefill and blows well past 6x.

Usage: check_bench_ratios.py <bench.json>
"""

import json
import sys

# (faster benchmark, slower benchmark, max allowed items/s ratio)
GATES = [
    ("BM_PsResourceChurn/4", "BM_PsResourceChurn/2048", 10.0),
    ("BM_WarehouseIngestQuery/3600", "BM_WarehouseIngestQuery/14400", 6.0),
    # Lane-engine per-event cost: 16x more closed-loop sessions may pay a
    # heap log factor (~1.3x in theory, a few x with cache effects), never a
    # linear one — an O(n) scan per event would sit at 16x minimum.
    ("BM_LaneSessionChurn/4096", "BM_LaneSessionChurn/65536", 5.0),
    # Same bound for the tier-laned variant: its narrower LAN-hop window
    # adds rounds, and a round's cost is O(lanes), independent of the
    # session count, so its per-event cost must stay as flat.
    ("BM_LaneTierChurn/4096", "BM_LaneTierChurn/65536", 5.0),
]


def main(path):
    with open(path) as f:
        report = json.load(f)
    rates = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows if repetitions are ever enabled
        rates[bench["name"]] = bench.get("items_per_second")

    failures = []
    for fast_name, slow_name, bound in GATES:
        fast = rates.get(fast_name)
        slow = rates.get(slow_name)
        if not fast or not slow:
            failures.append(
                f"missing benchmark(s): {fast_name}={fast} {slow_name}={slow}"
            )
            continue
        ratio = fast / slow
        verdict = "OK" if ratio <= bound else "FAIL"
        print(
            f"{verdict}: {fast_name} / {slow_name} items-per-second ratio "
            f"{ratio:.2f} (bound {bound:g})"
        )
        if ratio > bound:
            failures.append(
                f"{slow_name} is {ratio:.1f}x slower per item than "
                f"{fast_name} (bound {bound:g}x) — hot path no longer flat"
            )

    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
