"""The benchmark's own test: every workload once at its tiny size.

Run with `python -m pytest bench` from the repository root.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _functions() -> dict:
    """Every function-valued attribute of every loaded rownoise module."""
    return {
        (key, attr): value
        for key, mod in list(sys.modules.items())
        if key == "rownoise" or key.startswith("rownoise.")
        for attr, value in vars(mod).items()
        if isinstance(value, types.FunctionType)
    }


def _pinned_numpy() -> bool:
    return json.loads(run.DIGESTS.read_text())["numpy"] == np.__version__


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_correct_at_tiny_size(name):
    result, info, _ = run.run_benchmark(name, run.DEFAULT_SEED, 0, trace=False, tiny=True)
    assert info["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == _declared("end_to_end")
    assert set(info["machine"]) >= {"cores", "python", "numpy", "scipy"}
    if _pinned_numpy():
        assert info["digest_status"] == "pinned"


def test_traced_run_restores_functions_and_repeats_counts():
    run.load_cli()
    before = _functions()
    first, info, traced = run.run_benchmark(
        "captures_correct", run.DEFAULT_SEED, 0, trace=True, tiny=True
    )
    assert _functions() == before
    second, _, _ = run.run_benchmark("captures_correct", run.DEFAULT_SEED, 0, trace=True, tiny=True)
    assert _functions() == before
    assert info["problems"] == [] and first["correct"]
    assert _units(first["metrics"]) == _declared("per_layer")
    counts = [
        {k: m["value"] for k, m in result["metrics"].items() if not k.endswith(("_s", "_share"))}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    counts = counts[0]
    assert counts["cli.main.calls"] == 5 and counts["mitigation.tune.calls"] == 1
    assert traced and all(span[0] == "cli.main" for span in traced[0] if span[3] < 0)


def test_tracer_rebinds_every_importing_module():
    run.load_cli()
    from rownoise import cli, mitigation, sensor, sweep

    def sites():
        return (sweep.simulate_stack, sweep.row_noise, cli.simulate_stack, cli.row_noise,
                mitigation.quantize_dn, sensor.generate_fpn_maps)

    originals = sites()
    with spans.Tracer() as tracer:
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(sites(), originals))
        assert sweep.simulate_stack is cli.simulate_stack is sensor.simulate_stack
    assert sites() == originals
    assert tracer.spans == []
