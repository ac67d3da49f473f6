#!/usr/bin/env python3
"""The repo benchmark: builds the simulator from source, runs its workloads,
checks their results, and prints every metric with its unit.

  python3 benchmark/run.py                        all workloads, end-to-end metrics
  python3 benchmark/run.py --traced               all workloads, per-layer metrics too
  python3 benchmark/run.py --workload table1 --seed 7 --seconds 20 --trace 0
  python3 benchmark/run.py --update-golden        rewrite golden.json (default seed)

Each workload runs in its own process (the cs_bench driver) for --seconds of
host time. Lines of the form "<workload> <metric> <value> <unit>" go to
stdout; with --workload the last line is one JSON object with the keys
correct, attempted, failed and metrics. Every invocation also appends a
result record (git sha, nproc, CPU model, seed, threads, metrics) to --out.
The exit code is nonzero when any run failed a check. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 12345
WORKLOADS = ("table1", "dag_grid", "million_sessions", "dag_tier_cut")
SETUP_BATCHES = 5

sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402  (the benchmark's own module, beside this file)


class BenchError(Exception):
    pass


def build_root() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR")
    path = Path(target) if target else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def thread_count() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def build(tree: str, traced: bool) -> Path:
    """Configures (once) and builds cs_bench in <build root>/<tree>."""
    directory = build_root() / tree
    log = build_root() / f"{tree}.log"
    directory.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(directory),
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCS_BENCH_TRACED={'ON' if traced else 'OFF'}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(directory), "--target", "cs_bench",
                  "-j", str(thread_count())])
    with open(log, "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(encoding="utf-8").splitlines()[-40:]
                raise BenchError(f"build of {tree} failed; see {log}:\n" + "\n".join(tail))
    return directory / "cs_bench"


def run_driver(executable: Path, workload: str, seed: int, seconds: int,
               setup_batches: int, reference: bool, trace_out: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop("CS_TRACE_OUT", None)
    if trace_out is not None:
        env["CS_TRACE_OUT"] = str(trace_out)
    args = [str(executable), f"workload={workload}", f"seed={seed}",
            f"seconds={seconds}", f"threads={thread_count()}",
            f"setup_batches={setup_batches}", f"reference={int(reference)}"]
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    if proc.returncode not in (0, 3):  # 3: the JSON lists failed runs
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def digests(raw: dict) -> dict[str, str]:
    return {cell["cell"]: cell["digest"] for cell in raw["cells"]}


def golden_failures(workload: str, raw: dict) -> list[str]:
    """Cells whose digest differs from golden.json (default seed only)."""
    if raw["seed"] != DEFAULT_SEED:
        return []
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload)
    if golden is None:
        return [f"{workload}: no golden digests (run --update-golden)"]
    got = digests(raw)
    if set(got) != set(golden):
        return [f"{workload}: cells {sorted(got)} differ from golden {sorted(golden)}"]
    return [f"{cell}: digest {got[cell]} != golden {golden[cell]}"
            for cell in sorted(got) if got[cell] != golden[cell]]


def fast_quartile(values: list[float]) -> float:
    """Lower quartile (nearest rank). On a shared host, bursts of
    interference slow a third or more of the runs: that moves a median but
    not the fast quartile."""
    return sorted(values)[(len(values) - 1) // 4]


def per_cell(raw: dict, key: str) -> list[float]:
    """Fast quartile of each cell's runs across the passes."""
    return [fast_quartile(list(samples))
            for samples in zip(*(p[key] for p in raw["passes"]))]


def pass_wall(raw: dict) -> float:
    """Wall time of one pass: every cell once, spread over the workers."""
    return sum(per_cell(raw, "run_wall_s")) / raw["jobs"]


def end_to_end(raw: dict) -> dict[str, tuple[float, str]]:
    return {
        "wall_s": (pass_wall(raw), "s"),
        "cpu_s": (sum(per_cell(raw, "run_cpu_s")), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(raw: dict, traced_raw: dict, profile: layers.Profile) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: trace totals and exact counts, each per pass."""
    metrics: dict[str, tuple[float, str]] = {}
    traced_passes = len(traced_raw["passes"])
    work = sum(t.self_s for t in profile.layers.values())
    for name in layers.LAYERS:
        totals = profile.layers.get(name, layers.LayerTotals())
        metrics[f"{name}.self_s"] = (totals.self_s / traced_passes, "s")
        metrics[f"{name}.share"] = (ratio(totals.self_s, work), "fraction")
        metrics[f"{name}.calls"] = (totals.calls / traced_passes, "count")
    lanes_totals = profile.layers.get("lanes", layers.LayerTotals())
    metrics["lanes.wait_s"] = (lanes_totals.wait_s / traced_passes, "s")

    steps = profile.calls_of("conscale::Simulation::step()") / traced_passes
    pops = profile.calls_of("conscale::Simulation::pop_and_release()") / traced_passes
    cells = raw["cells"]
    issued = sum(c["issued"] for c in cells)
    metrics["simcore.events"] = (steps, "count")
    metrics["simcore.cancelled_frac"] = (ratio(pops - steps, pops), "fraction")
    metrics["simcore.events_per_req"] = (ratio(steps, issued), "count")

    untraced_wall = pass_wall(raw)
    metrics["trace.overhead"] = (ratio(pass_wall(traced_raw), untraced_wall), "x")
    metrics["trace.hook_ns"] = (profile.hook_ns, "ns")

    lane = [c["lane"] for c in cells if "lane" in c]
    rounds = sum(l["rounds"] for l in lane)
    announced = sum(l["nulls_announced"] for l in lane)
    suppressed = sum(l["nulls_suppressed"] for l in lane)
    speedup = ratio(raw["reference_wall_s"], untraced_wall) if lane else 0.0
    metrics["lanes.rounds"] = (rounds, "count")
    metrics["lanes.messages"] = (sum(l["messages"] for l in lane), "count")
    metrics["lanes.serial_rounds"] = (sum(l["serial_rounds"] for l in lane), "count")
    metrics["lanes.solo_frac"] = (ratio(sum(l["solo_rounds"] for l in lane), rounds), "fraction")
    metrics["lanes.nulls"] = (announced, "count")
    metrics["lanes.null_suppressed_frac"] = (ratio(suppressed, announced + suppressed), "fraction")
    metrics["lanes.events_per_round"] = (ratio(sum(l["events"] for l in lane), rounds), "count")
    metrics["lanes.speedup"] = (speedup, "x")
    metrics["lanes.efficiency"] = (ratio(speedup, raw["lane_threads"]), "fraction")

    metrics["workload.requests"] = (issued, "count")
    metrics["workload.completed_frac"] = (ratio(sum(c["completed"] for c in cells), issued), "fraction")
    metrics["metrics.samples"] = (sum(c["samples"] for c in cells), "count")
    estimates = sum(c["sct_estimates"] for c in cells)
    estimate_calls = profile.calls_of("conscale::SctEstimator::estimate(") / traced_passes
    metrics["sct.estimates"] = (estimates, "count")
    metrics["sct.success_frac"] = (ratio(estimates, estimate_calls), "fraction")
    metrics["conscale.actions"] = (sum(c["actions"] for c in cells), "count")

    run_walls = [w for p in raw["passes"] for w in p["run_wall_s"]]
    idle = [raw["jobs"] * p["wall_s"] - sum(p["run_wall_s"]) for p in raw["passes"]]
    metrics["experiments.run_p50_s"] = (statistics.median(run_walls), "s")
    metrics["experiments.run_max_s"] = (max(run_walls), "s")
    metrics["experiments.fanout_idle_s"] = (statistics.median(idle), "s")

    def p99_by_trace(framework: str) -> dict[str, float]:
        return {c["cell"].split("/", 1)[1]: c["p99_ms"] for c in cells
                if c["cell"].startswith(framework + "/")}
    conscale, ec2 = p99_by_trace("conscale"), p99_by_trace("ec2")
    metrics["sim_p99_ms"] = (max(conscale.values()), "ms")
    metrics["table1_wins"] = (sum(1 for trace, p99 in conscale.items()
                                  if trace in ec2 and p99 < ec2[trace]), "count")
    return metrics


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 executables: dict[str, Path]) -> dict:
    raw = run_driver(executables["release"], workload, seed, seconds,
                     SETUP_BATCHES, reference=True)
    failures = list(raw["failures"]) + golden_failures(workload, raw)
    attempted = raw["attempted"]
    if trace:
        trace_out = build_root() / f"trace-{workload}-{seed}.tsv"
        traced = run_driver(executables["traced"], workload, seed, seconds,
                            0, reference=False, trace_out=trace_out)
        attempted += traced["attempted"]
        failures += [f"traced {f}" for f in traced["failures"]]
        if digests(traced) != digests(raw):
            failures.append(f"{workload}: traced results differ from untraced")
        profile = layers.profile_of(str(trace_out), str(executables["traced"]))
        metrics = per_layer(raw, traced, profile)
    else:
        metrics = end_to_end(raw)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "threads": thread_count(),
            "attempted": attempted, "failures": failures, "metrics": metrics}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def record(result: dict) -> dict:
    return {
        "workload": result["workload"], "seed": result["seed"],
        "seconds": result["seconds"], "trace": result["trace"],
        "threads": result["threads"], "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "sha": git_sha(),
        "correct": not result["failures"], "attempted": result["attempted"],
        "failed": len(result["failures"]), "failures": result["failures"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def update_golden(executable: Path) -> None:
    golden = {}
    for workload in WORKLOADS:
        raw = run_driver(executable, workload, DEFAULT_SEED, 1, 0, reference=True)
        if raw["failures"]:
            raise BenchError(f"{workload}: {raw['failures']}")
        golden[workload] = digests(raw)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--out", help="result records (JSONL) to append to; "
                        "default <build root>/results.jsonl")
    args = parser.parse_args()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: {ROOT} holds no simulator sources to build", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    trace = bool(args.trace) or args.traced
    try:
        executables = {"release": build("release", traced=False),
                       "traced": build("traced", traced=True)}
        if args.update_golden:
            update_golden(executables["release"])
            return 0
        out = Path(args.out) if args.out else build_root() / "results.jsonl"
        results = []
        for workload in [args.workload] if args.workload else WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, trace, executables)
            for failure in result["failures"]:
                print(f"{workload} FAILED {failure}", file=sys.stderr)
            for name, (value, unit) in result["metrics"].items():
                print(f"{workload} {name} {value!r} {unit}")
            results.append(record(result))
        with open(out, "a", encoding="utf-8") as handle:
            for r in results:
                handle.write(json.dumps(r, sort_keys=True) + "\n")
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    if args.workload:
        only = results[0]
        print(json.dumps({key: only[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
