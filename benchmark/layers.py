"""Per-layer split of a traced benchmark run.

Reads the TSV profile written by trace/hooks.cpp, names each function with
``addr2line -f -C``, maps the function's defining file to its layer (the
``src/<module>/`` it lives in, with ``src/simcore/lanes/`` as its own layer
and ``src/conscale/zoo/`` folded into ``conscale``), subtracts the
calibrated hook cost per call, and sums per layer.

Self time of the functions in ``WAIT_FUNCTIONS`` is a thread blocked on a
barrier or a join, not work: it is reported as waiting and left out of the
layer's self time. Time with no hooked frame open (the benchmark driver
itself) belongs to no layer.
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass, field

# The layers are the simulator's src/ modules.
LAYERS = (
    "simcore", "lanes", "resources", "tier", "cluster", "topology",
    "workload", "metrics", "sct", "conscale", "experiments", "common",
)

# Functions whose self time is waiting: (layer, name pattern).
WAIT_FUNCTIONS = (
    ("lanes", re.compile(r"LaneEngine::(worker_loop|run)\(")),
    ("experiments", re.compile(r"conscale::detail::parallel_for\(")),
)

# Modules folded into another layer.
FOLDED = {"conscale/zoo": "conscale", "simcore/lanes": "lanes"}


@dataclass
class Row:
    calls: int
    child_calls: int
    self_ticks: int
    incl_ticks: int


@dataclass
class Dump:
    meta: dict[str, float]
    functions: dict[str, Row]


@dataclass
class LayerTotals:
    self_s: float = 0.0
    calls: int = 0
    wait_s: float = 0.0


@dataclass
class Profile:
    layers: dict[str, LayerTotals] = field(default_factory=dict)
    # Exact call counts by demangled function name.
    calls_by_name: dict[str, int] = field(default_factory=dict)
    hook_ns: float = 0.0

    def layer(self, name: str) -> LayerTotals:
        return self.layers.setdefault(name, LayerTotals())

    def calls_of(self, prefix: str) -> int:
        return sum(c for n, c in self.calls_by_name.items()
                   if n.startswith(prefix))


def parse_row(fields: list[str]) -> Row:
    calls, child, self_ticks, incl = (int(f) for f in fields)
    return Row(calls, child, self_ticks, incl)


def load_dump(path: str) -> Dump:
    meta: dict[str, float] = {}
    functions: dict[str, Row] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "meta":
                meta[fields[1]] = float(fields[2])
            elif fields[0] == "fn":
                functions[fields[1]] = parse_row(fields[2:])
            elif fields[0] != "root":  # time outside every layer
                raise ValueError(f"{path}: unknown row kind {fields[0]!r}")
    for key in ("ticks_per_ns", "hook_self_ticks", "hook_parent_ticks"):
        if key not in meta:
            raise ValueError(f"{path}: missing meta {key}")
    if meta.get("overflows", 0) > 0:
        raise ValueError(f"{path}: function table overflowed")
    return Dump(meta, functions)


def symbolize(executable: str, addresses: list[str]) -> dict[str, tuple[str, str]]:
    """Maps each hex address to (demangled name, defining file)."""
    if not addresses:
        return {}
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-e", executable],
        input="".join(f"0x{a}\n" for a in addresses),
        capture_output=True, text=True, check=True).stdout.splitlines()
    if len(out) != 2 * len(addresses):
        raise RuntimeError("addr2line returned an unexpected line count")
    symbols = {}
    for i, address in enumerate(addresses):
        name = out[2 * i]
        location = out[2 * i + 1].rsplit(":", 1)[0]
        symbols[address] = (name, location)
    return symbols


def layer_of(path: str) -> str | None:
    """The layer a source file belongs to, or None outside src/."""
    marker = path.rfind("/src/")
    if marker < 0:
        if not path.startswith("src/"):
            return None
        rest = path[len("src/"):]
    else:
        rest = path[marker + len("/src/"):]
    parts = rest.split("/")
    if len(parts) < 2:
        return None
    nested = "/".join(parts[:2])
    if len(parts) > 2 and nested in FOLDED:
        return FOLDED[nested]
    return parts[0]


def wait_layer(name: str) -> str | None:
    for layer, pattern in WAIT_FUNCTIONS:
        if pattern.search(name):
            return layer
    return None


def attribute(dump: Dump, symbols: dict[str, tuple[str, str]]) -> Profile:
    """Per-layer totals with the hook cost taken out of every self time."""
    ticks_per_s = dump.meta["ticks_per_ns"] * 1e9
    hook_self = dump.meta["hook_self_ticks"]
    hook_parent = dump.meta["hook_parent_ticks"]
    profile = Profile(hook_ns=(hook_self + hook_parent) / dump.meta["ticks_per_ns"])
    for address, row in dump.functions.items():
        name, path = symbols.get(address, ("??", "??"))
        profile.calls_by_name[name] = profile.calls_by_name.get(name, 0) + row.calls
        layer = layer_of(path)
        if layer is None:
            continue
        ticks = row.self_ticks - row.calls * hook_self - row.child_calls * hook_parent
        seconds = max(ticks, 0.0) / ticks_per_s
        totals = profile.layer(layer)
        totals.calls += row.calls
        waiting = wait_layer(name)
        if waiting is not None:
            profile.layer(waiting).wait_s += seconds
        else:
            totals.self_s += seconds
    return profile


def profile_of(trace_path: str, executable: str) -> Profile:
    dump = load_dump(trace_path)
    return attribute(dump, symbolize(executable, sorted(dump.functions)))
