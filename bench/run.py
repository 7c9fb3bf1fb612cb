"""rownoise benchmark: one workload through rownoise.cli.main, in-process.

    python3 bench/run.py --workload sweep_ref --seed 12345 --seconds 35 --trace 0

Run it from a rownoise checkout; it imports the package from the
checkout's src/ and nothing else. It sets up several times (a fresh
process importing rownoise.cli, plus generating the inputs), then repeats
passes of the workload's CLI steps until --seconds have been measured.
Times are scaled to a nominal host speed by a reference kernel timed
around each call (see reference_kernel).
Every CLI output is hashed and compared with the pinned digests in
digests.json (default seed, same numpy) and with the run's first pass.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it holds the
per-layer metrics from spans.py. The line before it records the machine,
the digests and any problem found. Spans and details go to
bench/out/results/. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import os

# Each workload runs single-threaded; fix the thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.ndimage import median_filter

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 12345
SETUP_REPEATS = 5
# Nominal seconds of reference_kernel() on the 2-core Xeon host the bounds
# were set on; wall_s is reported at this host speed.
REFERENCE_S = 0.025
END_TO_END_UNITS = {
    "wall_s": "s",
    "frames_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def load_cli():
    """Import rownoise.cli from this checkout's src/, refusing any other copy."""
    if not (SRC / "rownoise" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'rownoise'} not found; run from a rownoise checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from rownoise import cli

    if Path(cli.__file__).resolve().parent != SRC / "rownoise":
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


def machine_info() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def reference_kernel() -> float:
    """Seconds for a fixed numpy/scipy job shaped like the workloads' inner
    loops: Philox normal draws, rounding to uint8, row means and a vertical
    median filter. It runs between CLI calls and measures how fast the host
    is at the time, which drifts by +-20% over tens of seconds on a shared
    host; it does not depend on rownoise."""
    rng = np.random.Generator(np.random.Philox(DEFAULT_SEED))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        image = np.clip(np.floor(rng.standard_normal((480, 640)) * 2.0 + 128.5), 0, 255)
        image.astype(np.uint8).astype(np.float64).mean(axis=1).std(ddof=1)
        median_filter(image[:160], size=(9, 1), mode="nearest")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    """One CLI call with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not a failed benchmark
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def digest(step, stdout: str, work: Path) -> str:
    """sha256 over stdout and the step's output files. Sidecar JSON files are
    left out and the work directory is masked, because both carry paths."""
    h = hashlib.sha256(b"stdout\0" + stdout.replace(str(work), "<work>").encode())
    if step.output is not None:
        files = sorted(step.output.iterdir()) if step.output.is_dir() else [step.output]
        for f in files:
            if not f.name.endswith("config.json"):
                h.update(b"\0" + f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def pinned_digests(name: str, seed: int, tiny: bool) -> tuple[dict | None, str]:
    doc = json.loads(DIGESTS.read_text())
    if seed != doc["seed"]:
        return None, f"not pinned: seed {seed} (pins are for seed {doc['seed']})"
    if np.__version__ != doc["numpy"]:
        return None, f"not pinned: numpy {np.__version__} (pins are for {doc['numpy']})"
    pins = doc["tiny" if tiny else "full"].get(name)
    return pins, "pinned" if pins else f"not pinned: no digests for {name}"


def at_nominal_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A measured interval scaled to the nominal host speed, by the
    reference kernel timed just before and just after it."""
    return seconds * REFERENCE_S * 2.0 / (kernel_before + kernel_after)


def setup(workload, work: Path, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times: a fresh process importing rownoise.cli,
    which every CLI call pays, plus generating the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    kernel = reference_kernel()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rownoise.cli"], env=env, check=True)
        workload.prepare(work, seed)
        raw.append(time.perf_counter() - t0)
        after = reference_kernel()
        scaled.append(at_nominal_speed(raw[-1], kernel, after))
        kernel = after
    return raw, scaled


def run_pass(cli, workload, work: Path, seed: int, tracer) -> tuple[float, float, list]:
    """One pass of the workload's CLI steps. Returns the raw wall time, the
    wall time at the nominal host speed, and (step, exit code, stdout,
    stderr) per call. Each call's time is scaled on its own."""
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir(parents=True)
    steps = workload.steps(work, seed)
    calls = []
    raw = scaled = 0.0
    kernel = reference_kernel()
    with tracer if tracer is not None else contextlib.nullcontext():
        for step in steps:
            t0 = time.perf_counter()
            calls.append((step, *call(cli, step.argv)))
            elapsed = time.perf_counter() - t0
            after = reference_kernel()
            raw += elapsed
            scaled += at_nominal_speed(elapsed, kernel, after)
            kernel = after
    return raw, scaled, calls


def verify_pass(workload, work: Path, n: int, calls: list, reference: dict, problems: list) -> set:
    """Names of the pass's failed steps. A step fails when it exits nonzero,
    its outputs' digest differs from the reference (the pin, else the first
    pass), or, on the first pass, the workload's own checks find a fault.
    Each failure is described in problems."""
    bad_steps = set()
    for step, rc, stdout, stderr in calls:
        if rc != 0:
            bad_steps.add(step.name)
            problems.append(f"pass {n} {step.name}: exit {rc}: {stderr.strip()[-300:]}")
            continue
        try:
            got = digest(step, stdout, work)
        except OSError as exc:
            bad_steps.add(step.name)
            problems.append(f"pass {n} {step.name}: outputs unreadable: {exc}")
            continue
        want = reference.setdefault(step.name, got)
        if got != want:
            bad_steps.add(step.name)
            problems.append(f"pass {n} {step.name}: digest {got[:12]}, expected {want[:12]}")
    if n == 0 and not bad_steps:
        stdouts = {step.name: stdout for step, _, stdout, _ in calls}
        try:
            found = workload.check(work, stdouts)
        except (OSError, ValueError, KeyError) as exc:
            found = [(calls[-1][0].name, f"outputs unreadable: {exc!r}")]
        for step_name, message in found:
            bad_steps.add(step_name)
            problems.append(f"check {step_name}: {message}")
    return bad_steps


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Returns the result line, the info record and the spans of traced passes."""
    cli = load_cli()
    workload = WORKLOADS[name](tiny=tiny)
    work = OUT / f"work-{name}-{os.getpid()}"
    pinned, pin_status = pinned_digests(name, seed, tiny)
    problems: list[str] = []
    reference: dict[str, str] = dict(pinned or {})
    walls = {False: [], True: []}  # scaled pass times, untraced and traced
    raw_walls = {False: [], True: []}
    layers: list[dict] = []
    traced_spans: list[list] = []
    attempted = failed = 0
    try:
        repeats = 1 if trace or tiny else SETUP_REPEATS  # setup_s is reported untraced
        raw_setup, setup_samples = setup(workload, work, seed, repeats)
        start = time.perf_counter()
        n = 0
        while True:
            t_pass = time.perf_counter()
            traced = trace and n % 2 == 1
            tracer = spans.Tracer() if traced else None
            raw, scaled, calls = run_pass(cli, workload, work, seed, tracer)
            raw_walls[traced].append(raw)
            walls[traced].append(scaled)
            bad_steps = verify_pass(workload, work, n, calls, reference, problems)
            attempted += len(calls)
            failed += len(bad_steps)
            if tracer is not None:
                problems += [f"pass {n} spans: {p}" for p in spans.check_nesting(tracer.spans)]
                layers.append(spans.summarize(tracer.spans, tracer.counts))
                traced_spans.append(tracer.spans)
            n += 1
            elapsed = time.perf_counter() - start
            if n >= (2 if trace else 1) and elapsed + (time.perf_counter() - t_pass) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layer_metrics(layers, problems)
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = overhead
    else:
        wall = statistics.median(walls[False])
        metrics = {
            "wall_s": wall,
            "frames_per_s": workload.frames / wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (attempted - failed) / attempted,
        }
    unit = spans.unit_of if trace else END_TO_END_UNITS.get
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    info = {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "trace": trace,
        "machine": machine_info(),
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "wall_s": {"untraced": walls[False], "traced": walls[True]},
        "raw_wall_s": {"untraced": raw_walls[False], "traced": raw_walls[True]},
        "setup_s": setup_samples,
        "raw_setup_s": raw_setup,
        "digests": reference,
        "digest_status": pin_status,
        "problems": problems,
    }
    return result, info, traced_spans


def layer_metrics(layers: list[dict], problems: list[str]) -> dict:
    """Medians of the timings over traced passes; counts must repeat exactly."""
    out = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("_s") or key == "cli.main.child_share":
            out[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between traced passes: {values}")
            out[key] = values[0]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, info, traced_spans = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(
        json.dumps(
            {
                "info": info,
                "result": result,
                "spans": {"fields": ["name", "start_ns", "end_ns", "parent"], "passes": traced_spans},
            },
            separators=(",", ":"),
        )
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
