#!/usr/bin/env python3
"""Compares two sets of benchmark results, parent against change.

  python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds result records as run.py appends them (one JSON object per
line). Records of one workload are paired by seed, so both sides should be
run with the same seeds, alternating which side runs first. For every
workload and every end-to-end metric of BENCHMARK.json it prints one row:

  gain        at least 10 pairs, the change wins at least 9 in 10 of them,
              and the medians differ by more than the parent's spread
              (the distance between its quartiles);
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the runs spread wider than the bound, so neither can be told,
              unless every run of the change reads better than every run
              of the parent;
  same        none of the above.

A row for failed_frac (failed / attempted runs) is a regression whenever the
change fails more, and then every gain on that workload reads "void". The
exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    parent: float
    change: float
    spread: float
    bound: float
    wins: int
    pairs: int
    verdict: str


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def better(a: float, b: float, lower_is_better: bool) -> bool:
    """True when a reads strictly better than b."""
    return a < b if lower_is_better else a > b


def judge(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
          lower_is_better: bool, bound: float) -> tuple[str, float, int]:
    """Verdict, relative spread and pair wins for one workload × metric."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    scale = abs(p_med) or 1.0
    spread = max(quartile_spread(parent) / scale,
                 quartile_spread(change) / (abs(c_med) or 1.0))
    worse = (c_med - p_med) / scale if lower_is_better else (p_med - c_med) / scale
    wins = sum(1 for p, c in pairs if better(c, p, lower_is_better))
    all_better = all(better(c, p, lower_is_better) for c in change for p in parent)
    gain = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(c_med, p_med, lower_is_better)
            and abs(c_med - p_med) > quartile_spread(parent))
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif gain:
        verdict = "gain"
    else:
        verdict = "same"
    return verdict, spread, wins


def paired(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in parent}
    return [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]


def value(record: dict, metric: str) -> float:
    return record["metrics"][metric]["value"]


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[Row]:
    """One row per workload × metric; untraced records only."""
    parent = [r for r in parent if r["trace"] == 0]
    change = [r for r in change if r["trace"] == 0]
    rows: list[Row] = []
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        pairs = paired(p_runs, c_runs)
        workload_rows = []
        for metric in metrics:
            name = metric["name"]
            p_values = [value(r, name) for r in p_runs]
            c_values = [value(r, name) for r in c_runs]
            verdict, spread, wins = judge(
                p_values, c_values, [(value(p, name), value(c, name)) for p, c in pairs],
                metric["better"] == "lower", metric["bound"])
            workload_rows.append(Row(
                workload, name, statistics.median(p_values), statistics.median(c_values),
                spread, metric["bound"], wins, len(pairs), verdict))
        p_failed = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        failing = c_failed > p_failed
        if failing:
            for row in workload_rows:
                if row.verdict == "gain":
                    row.verdict = "void"
        workload_rows.append(Row(workload, "failed_frac", p_failed, c_failed, 0.0, 0.0,
                                 0, len(pairs), "regression" if failing else "same"))
        rows += workload_rows
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    metrics = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["end_to_end"]
    rows = compare(load(args.parent), load(args.change), metrics)
    print(f"{'workload':<17} {'metric':<12} {'parent':>11} {'change':>11} "
          f"{'delta':>7} {'spread':>7} {'bound':>6} {'wins':>6}  verdict")
    for r in rows:
        delta = (r.change - r.parent) / r.parent if r.parent else 0.0
        print(f"{r.workload:<17} {r.metric:<12} {r.parent:11.4g} {r.change:11.4g} "
              f"{delta:+7.1%} {r.spread:7.1%} {r.bound:6.0%} {r.wins:>3}/{r.pairs:<2}  {r.verdict}")
    return 1 if any(r.verdict == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
