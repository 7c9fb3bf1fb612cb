"""Span tracer for rownoise's public functions, applied from outside src/.

Each traced function is rebound, in its defining module and in every
rownoise module that imported it by name (for example sweep.simulate_stack,
cli.row_noise and mitigation.quantize_dn), to a wrapper that records a
span (name, start, end, parent). The physics helpers are only counted.
Spans stay in memory; the caller writes them out when the benchmark ends.
Tracer.remove() puts every original function back.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

# (span name, defining module, function name). Order is the report order.
TRACED = [
    ("cli.main", "cli", "main"),
    ("sweep.run_sweep", "sweep", "run_sweep"),
    ("sweep.write_csv", "sweep", "write_csv"),
    ("sensor.simulate_stack", "sensor", "simulate_stack"),
    ("sensor.fpn_maps", "sensor", "generate_fpn_maps"),
    ("sensor.simulate_frame", "sensor", "simulate_frame"),
    ("sensor.analog", "sensor", "simulate_frame_analog"),
    ("sensor.supply_offsets", "sensor", "row_supply_offsets_dn"),
    ("sensor.pink_noise", "sensor", "pink_noise"),
    ("sensor.quantize", "sensor", "quantize_dn"),
    ("metric.row_noise", "metric", "row_noise"),
    ("metric.row_noise_single", "metric", "row_noise_single"),
    ("imageio.read", "imageio", "read_image"),
    ("imageio.write", "imageio", "write_image"),
    ("mitigation.lowpass", "mitigation", "lowpass_offset_suppress"),
    ("mitigation.dark_ref", "mitigation", "dark_reference_correct"),
    ("mitigation.tune", "mitigation", "recommend_tuning"),
]
COUNTED = [
    ("physics.line_frequency", "physics", "line_frequency"),
    ("physics.alias", "physics", "alias_and_band_height"),
]


def _fpn_useful(args, kwargs, result) -> tuple[str, int]:
    spatial = kwargs["spatial"] if "spatial" in kwargs else args[2]
    sigmas = (spatial.dsnu_dn, spatial.column_fpn_dn, spatial.prnu_fraction)
    return "sensor.fpn_maps.useful", int(any(s != 0 for s in sigmas))


def _frame_pixels(args, kwargs, result) -> tuple[str, int]:
    return "sensor.pixels", int(result.pixels.size)


def _read_bytes(args, kwargs, result) -> tuple[str, int]:
    return "imageio.read.bytes", os.stat(args[0]).st_size


def _write_bytes(args, kwargs, result) -> tuple[str, int]:
    return "imageio.write.bytes", os.stat(args[1]).st_size


# Counters taken after a traced call returns, outside its span.
PROBES = {
    "sensor.fpn_maps": _fpn_useful,
    "sensor.simulate_frame": _frame_pixels,
    "imageio.read": _read_bytes,
    "imageio.write": _write_bytes,
}


@dataclass
class Tracer:
    """Wraps the functions on install(); restores them on remove()."""

    spans: list = field(default_factory=list)  # (name, start_ns, end_ns, parent index)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)  # (module, attribute, original)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, module, attr in TRACED:
                self._rebind(module, attr, self._span_wrapper(name, _original(module, attr)))
            for name, module, attr in COUNTED:
                self._rebind(module, attr, self._count_wrapper(name, _original(module, attr)))
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _rebind(self, module_name: str, attr: str, wrapper) -> None:
        original = _original(module_name, attr)
        for mod in _rownoise_modules():
            if getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so indices follow start order
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if probe is not None:
                key, value = probe(args, kwargs, result)
                self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _rownoise_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "rownoise" or key.startswith("rownoise."))
    ]


def _original(module_name: str, attr: str):
    return getattr(sys.modules[f"rownoise.{module_name}"], attr)


def check_nesting(spans: list) -> list[str]:
    """Problems with the span tree: every span must lie inside its parent
    and descend from a cli.main span, so cli.main accounts for all work."""
    problems = []
    for name, start, end, parent in spans:
        if parent < 0:
            if name != "cli.main":
                problems.append(f"{name} ran outside cli.main")
            continue
        _, p_start, p_end, _ = spans[parent]
        if not p_start <= start <= end <= p_end:
            problems.append(f"{name} is not inside its parent {spans[parent][0]}")
    return problems


def summarize(spans: list, counts: dict) -> dict:
    """Per-pass layer numbers: calls, busy and self seconds per span name,
    plus the probe and physics counters. Self time is busy time minus the
    time of the span's traced children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    main_busy = main_child = 0
    for i, (name, start, end, parent) in enumerate(spans):
        busy = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += busy / 1e9
        out[f"{name}.self_s"] += (busy - child_ns[i]) / 1e9
        if name == "cli.main":
            main_busy += busy
            main_child += child_ns[i]
    calls = out["sensor.fpn_maps.calls"]
    out["sensor.fpn_maps.useful_ratio"] = (
        counts.get("sensor.fpn_maps.useful", 0) / calls if calls else 0.0
    )
    for key in ("sensor.pixels", "imageio.read.bytes", "imageio.write.bytes"):
        out[key] = counts.get(key, 0)
    for name, _, _ in COUNTED:
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    out["cli.main.child_share"] = main_child / main_busy if main_busy else 0.0
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"
