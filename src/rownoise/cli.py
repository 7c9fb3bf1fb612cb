"""Command line front end.

One subcommand per workflow: simulate captures, analyze images, sweep a
disturbance band, report on a sweep CSV, mitigate banding in images,
predict alias placement. Each config flag's dest is its dotted path in
the scenario or sweep document; a JSON config file can seed any simulate
or sweep run and explicit flags override it. Every run that writes files
also writes a sidecar JSON echoing the fully resolved configuration,
seed included, so the run can be reproduced from the sidecar alone.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or config
error. All numeric output is locale-independent.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

from . import imageio, mitigation, physics, sweep as sweepmod
from .metric import row_noise
from .sensor import PhaseMode, SimScenario, _build_section, iter_stack, scenario_to_json
from .sensor import simulate_stack  # noqa: F401  bench/test_bench.py traces cli.simulate_stack

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _flag(group, flag: str, dest: str, **kw) -> None:
    """Declare a flag whose dest is its dotted path in the config document.
    The metavar stays the flag name, as it would be without the dest."""
    if "choices" not in kw and "action" not in kw:
        kw["metavar"] = flag[2:].replace("-", "_").upper()
    group.add_argument(flag, dest=dest, **kw)


def _add_scenario_flags(p: argparse.ArgumentParser, at: str = "") -> None:
    """The scenario flags, with dests under the document path `at`."""

    def add(group, flag: str, path: str, **kw) -> None:
        _flag(group, flag, at + path, **kw)

    g = p.add_argument_group("sensor geometry and timing")
    add(g, "--width", "sensor.width", type=int)
    add(g, "--active-rows", "sensor.active_rows", type=int)
    add(g, "--ob-rows", "sensor.optical_black_rows", type=int, help="optical black rows")
    add(g, "--blanking-rows", "sensor.blanking_rows", type=int)
    add(g, "--fps", "sensor.fps", type=float)
    add(g, "--pedestal", "sensor.pedestal_dn", type=float, help="dark level in DN")
    add(g, "--dn-per-volt", "sensor.dn_per_volt", type=float)
    add(g, "--channels", "sensor.channels", type=int, choices=(1, 3))

    s = p.add_argument_group("supply disturbance")
    if not at:  # a sweep sets the frequency and the amplitude at each point
        add(s, "--noise-freq", "supply.frequency_hz", type=float, help="Hz")
        add(s, "--noise-amp", "supply.amplitude_vpp", type=float, help="Vpp")
    add(s, "--noise-phase", "supply.phase_rad", type=float, help="radians")
    add(s, "--coupling-gain", "supply.coupling_gain", type=float)
    add(s, "--phase-mode", "supply.phase_mode", choices=[m.value for m in PhaseMode])
    add(s, "--rc-cutoff", "supply.rc_cutoff_hz", type=float, help="supply filter cutoff, Hz")

    t = p.add_argument_group("temporal noise")
    switch = argparse.BooleanOptionalAction
    add(t, "--shot", "temporal.shot_enabled", action=switch)
    add(t, "--dark-signal-e", "temporal.dark_signal_e", type=float, help="mean dark electrons")
    add(t, "--read-noise", "temporal.read_noise_dn", type=float, help="DN rms")
    add(t, "--flicker", "temporal.flicker_enabled", action=switch)
    add(t, "--flicker-scale", "temporal.flicker_scale_dn", type=float, help="DN")
    add(t, "--reset", "temporal.reset_enabled", action=switch)
    add(t, "--reset-temp", "temporal.reset_temp_k", type=float, help="K")
    add(t, "--reset-cap", "temporal.reset_cap_f", type=float, help="F")
    add(t, "--cds", "temporal.cds_enabled", action=switch)

    sp = p.add_argument_group("spatial noise")
    add(sp, "--dsnu", "spatial.dsnu_dn", type=float, help="per-pixel offset sigma, DN")
    add(sp, "--column-fpn", "spatial.column_fpn_dn", type=float,
        help="per-column offset sigma, DN")
    add(sp, "--prnu", "spatial.prnu_fraction", type=float,
        help="gain sigma, fraction; only 0, as illumination is not modelled")

    # The seed is a top-level field of both the scenario and the sweep document.
    p.add_argument("--seed", type=int)


def _merge_flags(args: argparse.Namespace, doc, root):
    """doc with every given flag whose dest path starts at a field of the
    dataclass root set at that path. A document, or a part of the path,
    that is not an object stays as it is, for the parser to reject."""
    if not isinstance(doc, dict):
        return doc
    names = {f.name for f in fields(root)}
    for dest, value in vars(args).items():
        path = dest.split(".")
        if value is None or path[0] not in names:
            continue
        part = doc
        for name in path[:-1]:
            part = part.setdefault(name, {})
            if not isinstance(part, dict):
                break
        else:
            part[path[-1]] = value
    return doc


def _write_sidecar(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _expand_inputs(paths: list[str]) -> list[Path]:
    """Files stay; directories contribute their im* images in name order."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = imageio.find_images(p)
            if not found:
                raise FileNotFoundError(f"{p}: no im* images found")
            out.extend(found)
        else:
            out.append(p)
    return out


def _fmt_num(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    n = 3
    if isinstance(doc, dict) and "scenario" in doc:  # a previous run's sidecar
        n = doc.get("frames", n)
        doc = doc["scenario"]
    scenario = _build_section(SimScenario, _merge_flags(args, doc, SimScenario), "scenario")
    if args.frames is not None:
        n = args.frames
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f"frames must be an integer >= 1, got {n!r}")

    out_dir = Path(args.out_dir)
    ext = imageio.image_suffix(scenario.sensor.channels)
    # The im* names that analyze, mitigate and sweep read.
    names = [f"im{i}{ext}" for i in range(1, n + 1)]
    # Each frame is written as it is made, into a staging directory on
    # out_dir's file system, and takes its name once every frame is made:
    # a frame that fails leaves no file or directory behind.
    anchor = next(p for p in (out_dir, *out_dir.parents) if p.is_dir())
    staging = Path(tempfile.mkdtemp(prefix=".simulate-", dir=anchor))
    try:
        for name, frame in zip(names, iter_stack(scenario, n)):
            imageio.write_image(frame, staging / name)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            (staging / name).replace(out_dir / name)
    finally:
        shutil.rmtree(staging)
    _write_sidecar(
        out_dir / "config.json",
        {
            "command": "simulate",
            "frames": n,
            "out_dir": str(out_dir),
            "scenario": json.loads(scenario_to_json(scenario)),
        },
    )
    print(f"wrote {', '.join(names)} and config.json to {out_dir}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    paths = _expand_inputs(args.inputs)
    frames = imageio.read_stack(paths)
    if frames[0].rows < 2:
        raise RuntimeError(f"{paths[0]}: row noise needs at least 2 rows, got {frames[0].rows}")
    result = row_noise(frames)
    if args.per_frame:
        for p, v in zip(paths, result.per_frame):
            print(f"{p.name}\t{v:.4f}")
    print(f"{result.average:.4f}")
    if args.csv:
        csv_path = Path(args.csv)
        lines = ["frame,row_noise"]
        lines += [f"{p.name},{v:.4f}" for p, v in zip(paths, result.per_frame)]
        csv_path.write_text("\n".join(lines) + "\n")
        _write_sidecar(
            Path(f"{csv_path}.config.json"),
            {
                "command": "analyze",
                "inputs": [str(p) for p in paths],
                "csv": str(csv_path),
            },
        )
    return 0


def _sweep_config_from_args(args: argparse.Namespace) -> sweepmod.SweepConfig:
    """Merge the flags into the config file (or sweep sidecar) and parse
    the result as one sweep document; flags override the file. A flag the
    source does not take reaches the parser as an unknown key."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    if isinstance(doc, dict) and doc.get("command") == "sweep" and "config" in doc:
        doc = doc["config"]  # a previous run's sidecar
    if getattr(args, "source.command") is not None:  # --capture-cmd
        setattr(args, "source.mode", "capture")
    doc = _merge_flags(args, doc, sweepmod.SweepConfig)
    return sweepmod._sweep_config_from_doc(doc)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config_from_args(args)
    out = Path(args.out)
    try:
        points = sweepmod.run_sweep(config)
    except sweepmod.CaptureError as exc:
        # Save what completed so a partial bench run is not lost.
        sweepmod.write_csv(exc.partial, out)
        print(f"error: {exc} (partial results saved to {out})", file=sys.stderr)
        return 1
    sweepmod.write_csv(points, out)
    _write_sidecar(
        Path(f"{out}.config.json"),
        {
            "command": "sweep",
            "out": str(out),
            "config": json.loads(sweepmod.sweep_config_to_json(config)),
        },
    )
    if args.plot:
        sweepmod.emit_plot_data(points, args.plot)
    print(f"wrote {len(points)} points to {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.threshold is not None and (args.sigma_k is not None or args.window is not None):
        raise UsageError("--threshold excludes --sigma-k/--window")
    points = sweepmod.read_csv(args.csv)
    if args.threshold is not None:
        mode: sweepmod.Absolute | sweepmod.BaselineSigma = sweepmod.Absolute(args.threshold)
    else:
        given = {"k": args.sigma_k, "window": args.window}
        mode = sweepmod.BaselineSigma(**{k: v for k, v in given.items() if v is not None})
    report = sweepmod.analyze_report(points, mode)
    text = report.to_text()
    sys.stdout.write(text)
    name = "absolute" if isinstance(mode, sweepmod.Absolute) else "baseline_sigma"
    threshold_doc = {"mode": name, **asdict(mode)}
    for out, payload in ((args.json_out, None), (args.text_out, text)):
        if not out:
            continue
        path = Path(out)
        if payload is None:
            path.write_text(json.dumps(asdict(report), indent=2) + "\n")
        else:
            path.write_text(payload)
        _write_sidecar(
            Path(f"{path}.config.json"),
            {"command": "report", "csv": str(args.csv), "threshold": threshold_doc},
        )
    return 0


def cmd_mitigate(args: argparse.Namespace) -> int:
    if args.method == "tune":
        needed = ("noise_freq", "fps_min", "fps_max", "frame_length_min", "frame_length_max")
        missing = ["--" + dest.replace("_", "-") for dest in needed if getattr(args, dest) is None]
        if missing:
            raise UsageError(f"--method tune requires {', '.join(missing)}")
        rec = mitigation.recommend_tuning(
            args.noise_freq,
            (args.fps_min, args.fps_max),
            (args.frame_length_min, args.frame_length_max),
            mitigation.TuningMode(args.mode),
        )
        print(f"fps {_fmt_num(rec.recommended_fps)}")
        print(f"frame length {rec.recommended_frame_length_rows} rows")
        print(f"alias {_fmt_num(rec.resulting_alias_hz)} Hz")
        print(f"band height {_band_text(rec.predicted_band_height_rows)}")
        return 0

    if not args.inputs:
        raise UsageError("no input images given")
    if args.out_dir is None:
        raise UsageError(f"--method {args.method} requires --out-dir")
    paths = _expand_inputs(args.inputs)
    frames = imageio.read_stack(paths)
    out_dir = Path(args.out_dir)
    # Same name as the input, in a format write_image takes (BMP in, PPM out).
    names = [p.stem + imageio.image_suffix(f.channels) for p, f in zip(paths, frames)]
    clashes = sorted(name for name, count in Counter(names).items() if count > 1)
    if clashes:
        raise UsageError(f"inputs would overwrite each other in {out_dir}: {', '.join(clashes)}")
    for name, frame in zip(names, frames):
        if args.method == "dark-ref":
            fixed = mitigation.dark_reference_correct(
                frame, args.dark_cols, pedestal_dn=args.pedestal
            )
        else:
            fixed = mitigation.lowpass_offset_suppress(frame, args.kernel_rows)
        # Made once a frame is corrected: a parameter that fits no input
        # fails on the first frame and leaves no directory behind.
        out_dir.mkdir(parents=True, exist_ok=True)
        imageio.write_image(fixed, out_dir / name)
    _write_sidecar(
        out_dir / "config.json",
        {
            "command": "mitigate",
            "method": args.method,
            "dark_cols": args.dark_cols,
            "pedestal": args.pedestal,
            "kernel_rows": args.kernel_rows,
            "inputs": [str(p) for p in paths],
            "out_dir": str(out_dir),
        },
    )
    print(f"wrote {len(frames)} corrected frames to {out_dir}")
    return 0


def _band_text(band_rows: float) -> str:
    if math.isinf(band_rows):
        return "uniform (whole frame shifts together)"
    unit = "row" if band_rows == 1 else "rows"
    return f"{_fmt_num(band_rows)} {unit}"


def cmd_predict(args: argparse.Namespace) -> int:
    # Everything is computed before anything is printed, so a domain
    # error (exit 2) leaves stdout empty.
    f_line = physics.line_frequency(args.fps, args.frame_length)
    alias = physics.alias_and_band_height(args.noise_freq, f_line)
    band = _band_text(alias.band_height_rows)
    lines = [f"alias {_fmt_num(alias.alias_hz)} Hz, band height {band}"]
    if args.rc_cutoff is not None:
        att = mitigation.predict_filter_effect(args.noise_freq, args.rc_cutoff)
        lines.append(f"rc attenuation {att:.4f}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rownoise",
        description="Simulate, measure and mitigate supply-induced row noise.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="render synthetic dark captures")
    _add_scenario_flags(p)
    p.add_argument("--config", help="scenario JSON (or a simulate sidecar)")
    p.add_argument("--frames", type=int)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="measure row noise of images")
    p.add_argument("inputs", nargs="+", help="image files or directories")
    p.add_argument("--per-frame", action="store_true")
    p.add_argument("--csv", help="write per-frame values to this CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="characterize row noise over a frequency band")
    _add_scenario_flags(p, at="source.scenario.")
    p.add_argument("--config", help="sweep config JSON (or a sweep sidecar)")
    _flag(p, "--start", "start_hz", type=float, help="Hz")
    _flag(p, "--end", "end_hz", type=float, help="Hz")
    _flag(p, "--step", "step_hz", type=float, help="Hz")
    _flag(p, "--amp", "amplitude_vpp", type=float, help="Vpp")
    p.add_argument("--frames-per-step", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot", help="also write an SVG chart here")
    _flag(p, "--capture-cmd", "source.command",
          help="external capture command with {freq}/{amp}")
    _flag(p, "--capture-dir", "source.image_dir", help="directory the capture command fills")
    _flag(p, "--capture-glob", "source.pattern", help="image name pattern (default im*)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="extract landmarks from a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--threshold", type=float, help="absolute row-noise threshold, DN")
    p.add_argument("--sigma-k", type=float, help="baseline sigma multiplier")
    p.add_argument("--window", type=int, help="baseline point count")
    p.add_argument("--json", dest="json_out", help="write report JSON here")
    p.add_argument("--text", dest="text_out", help="write report text here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("mitigate", help="correct banding or recommend timing")
    p.add_argument("inputs", nargs="*", help="image files or directories")
    p.add_argument(
        "--method", required=True, choices=("dark-ref", "lowpass", "tune")
    )
    p.add_argument("--out-dir")
    p.add_argument("--dark-cols", type=int, default=4)
    p.add_argument("--pedestal", type=float, default=16.0)
    p.add_argument("--kernel-rows", type=int, default=9)
    p.add_argument("--noise-freq", type=float, help="Hz (tune)")
    p.add_argument("--fps-min", type=float)
    p.add_argument("--fps-max", type=float)
    p.add_argument("--frame-length-min", type=int)
    p.add_argument("--frame-length-max", type=int)
    p.add_argument(
        "--mode",
        choices=[m.value for m in mitigation.TuningMode],
        default=mitigation.TuningMode.MAX_SEPARATION.value,
    )
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("predict", help="alias placement for a hypothetical setup")
    p.add_argument("--noise-freq", type=float, required=True, help="Hz")
    p.add_argument("--fps", type=float, required=True)
    p.add_argument("--frame-length", type=int, required=True, help="rows")
    p.add_argument("--rc-cutoff", type=float, help="also print RC attenuation")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (imageio.ImageParseError, sweepmod.CsvParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # domain/config problems from the modules
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
