"""Command line front end.

One subcommand per workflow: simulate captures, analyze images, sweep a
disturbance band, report on a sweep CSV, mitigate banding in images,
predict alias placement. Flags map onto the config dataclasses; a JSON
config file can seed any simulate or sweep run and explicit flags
override it. Every run that writes files also writes a sidecar JSON
echoing the fully resolved configuration, seed included, so the run can
be reproduced from the sidecar alone.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or config
error. All numeric output is locale-independent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

from . import imageio, mitigation, physics, sweep as sweepmod
from .metric import ImageStack, row_noise
from .sensor import PhaseMode, scenario_from_json, scenario_to_json, simulate_stack

__all__ = ["main"]

IMAGE_SUFFIXES = (".pgm", ".ppm", ".bmp")


class UsageError(ValueError):
    pass


# CLI flag -> (scenario section, field). dest names use underscores.
_SCENARIO_FLAGS = {
    "width": ("sensor", "width"),
    "active_rows": ("sensor", "active_rows"),
    "ob_rows": ("sensor", "optical_black_rows"),
    "blanking_rows": ("sensor", "blanking_rows"),
    "fps": ("sensor", "fps"),
    "pedestal": ("sensor", "pedestal_dn"),
    "dn_per_volt": ("sensor", "dn_per_volt"),
    "channels": ("sensor", "channels"),
    "noise_freq": ("supply", "frequency_hz"),
    "noise_amp": ("supply", "amplitude_vpp"),
    "noise_phase": ("supply", "phase_rad"),
    "coupling_gain": ("supply", "coupling_gain"),
    "phase_mode": ("supply", "phase_mode"),
    "rc_cutoff": ("supply", "rc_cutoff_hz"),
    "shot": ("temporal", "shot_enabled"),
    "dark_signal_e": ("temporal", "dark_signal_e"),
    "read_noise": ("temporal", "read_noise_dn"),
    "flicker": ("temporal", "flicker_enabled"),
    "flicker_scale": ("temporal", "flicker_scale_dn"),
    "reset": ("temporal", "reset_enabled"),
    "reset_temp": ("temporal", "reset_temp_k"),
    "reset_cap": ("temporal", "reset_cap_f"),
    "cds": ("temporal", "cds_enabled"),
    "dsnu": ("spatial", "dsnu_dn"),
    "column_fpn": ("spatial", "column_fpn_dn"),
    "prnu": ("spatial", "prnu_fraction"),
}
# CLI flag -> sweep config field, and -> capture source field.
_SWEEP_FLAGS = {
    "start": "start_hz",
    "end": "end_hz",
    "step": "step_hz",
    "amp": "amplitude_vpp",
    "frames_per_step": "frames_per_step",
    "seed": "seed",
    "workers": "workers",
}
_CAPTURE_FLAGS = {"capture_cmd": "command", "capture_dir": "image_dir", "capture_glob": "pattern"}


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("sensor geometry and timing")
    g.add_argument("--width", type=int)
    g.add_argument("--active-rows", type=int)
    g.add_argument("--ob-rows", type=int, help="optical black rows")
    g.add_argument("--blanking-rows", type=int)
    g.add_argument("--fps", type=float)
    g.add_argument("--pedestal", type=float, help="dark level in DN")
    g.add_argument("--dn-per-volt", type=float)
    g.add_argument("--channels", type=int, choices=(1, 3))

    s = p.add_argument_group("supply disturbance")
    s.add_argument("--noise-freq", type=float, help="Hz")
    s.add_argument("--noise-amp", type=float, help="Vpp")
    s.add_argument("--noise-phase", type=float, help="radians")
    s.add_argument("--coupling-gain", type=float)
    s.add_argument("--phase-mode", choices=[m.value for m in PhaseMode])
    s.add_argument("--rc-cutoff", type=float, help="supply filter cutoff, Hz")

    t = p.add_argument_group("temporal noise")
    t.add_argument("--shot", action=argparse.BooleanOptionalAction, default=None)
    t.add_argument("--dark-signal-e", type=float, help="mean dark electrons")
    t.add_argument("--read-noise", type=float, help="DN rms")
    t.add_argument("--flicker", action=argparse.BooleanOptionalAction, default=None)
    t.add_argument("--flicker-scale", type=float, help="DN")
    t.add_argument("--reset", action=argparse.BooleanOptionalAction, default=None)
    t.add_argument("--reset-temp", type=float, help="K")
    t.add_argument("--reset-cap", type=float, help="F")
    t.add_argument("--cds", action=argparse.BooleanOptionalAction, default=None)

    sp = p.add_argument_group("spatial noise")
    sp.add_argument("--dsnu", type=float, help="per-pixel offset sigma, DN")
    sp.add_argument("--column-fpn", type=float, help="per-column offset sigma, DN")
    sp.add_argument(
        "--prnu", type=float, help="gain sigma, fraction; only 0, as illumination is not modelled"
    )

    p.add_argument("--seed", type=int)


def _given(args: argparse.Namespace, flags: dict) -> dict:
    """The flags given on the command line, keyed by document field."""
    given = {key: getattr(args, dest) for dest, key in flags.items()}
    return {key: value for key, value in given.items() if value is not None}


def _with_scenario_flags(args: argparse.Namespace, base):
    """The scenario document base with the scenario flags merged in. A
    document or section that is not an object stays as it is, for the
    parser to reject."""
    if not isinstance(base, dict):
        return base
    doc = dict(base)
    for dest, (section, field) in _SCENARIO_FLAGS.items():
        value, part = getattr(args, dest), doc.get(section, {})
        if value is not None and isinstance(part, dict):
            doc[section] = {**part, field: value}
    if args.seed is not None:
        doc["seed"] = args.seed
    return doc


def _write_sidecar(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _expand_inputs(paths: list[str]) -> list[Path]:
    """Files stay; directories contribute their im* images in name order."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(
                q for q in p.glob("im*") if q.suffix.lower() in IMAGE_SUFFIXES
            )
            if not found:
                raise FileNotFoundError(f"{p}: no im* images found")
            out.extend(found)
        else:
            out.append(p)
    if not out:
        raise UsageError("no input images given")
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
    scenario = scenario_from_json(json.dumps(_with_scenario_flags(args, doc)))
    if args.frames is not None:
        n = args.frames
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f"frames must be an integer >= 1, got {n!r}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = imageio.image_suffix(scenario.sensor.channels)
    stack = simulate_stack(scenario, n)
    names = []
    for i, frame in enumerate(stack, start=1):
        name = f"{args.prefix}{i}{ext}"
        imageio.write_image(frame, out_dir / name)
        names.append(name)
    _write_sidecar(
        out_dir / "config.json",
        {
            "command": "simulate",
            "frames": n,
            "out_dir": str(out_dir),
            "prefix": args.prefix,
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
    result = row_noise(ImageStack(frames))
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
    the result as one sweep document; flags override the file."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    if isinstance(doc, dict) and doc.get("command") == "sweep" and "config" in doc:
        doc = doc["config"]  # a previous run's sidecar
    if isinstance(doc, dict):
        doc = {**doc, **_given(args, _SWEEP_FLAGS)}
        source = doc.get("source", {})
        if isinstance(source, dict):
            if args.capture_cmd is not None and source.get("mode") != "capture":
                source = {"mode": "capture"}
            if source.get("mode") == "capture":
                source = {**source, **_given(args, _CAPTURE_FLAGS)}
            else:
                source = {
                    **source,
                    "scenario": _with_scenario_flags(args, source.get("scenario", {})),
                }
            doc["source"] = source
    return sweepmod.sweep_config_from_json(json.dumps(doc))


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config_from_args(args)
    out = Path(args.out)
    try:
        result = sweepmod.run_sweep(config)
    except sweepmod.CaptureError as exc:
        # Save what completed so a partial bench run is not lost.
        sweepmod.write_csv(exc.partial, out)
        print(f"error: {exc} (partial results saved to {out})", file=sys.stderr)
        return 1
    sweepmod.write_csv(result, out)
    _write_sidecar(
        Path(f"{out}.config.json"),
        {
            "command": "sweep",
            "out": str(out),
            "config": json.loads(sweepmod.sweep_config_to_json(config)),
        },
    )
    if args.plot:
        sweepmod.emit_plot_data(result, args.plot)
    print(f"wrote {len(result.points)} points to {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.threshold is not None and (args.sigma_k is not None or args.window is not None):
        raise UsageError("--threshold excludes --sigma-k/--window")
    result = sweepmod.read_csv(args.csv)
    if args.threshold is not None:
        mode: sweepmod.Absolute | sweepmod.BaselineSigma = sweepmod.Absolute(args.threshold)
    else:
        mode = sweepmod.BaselineSigma(
            k=args.sigma_k if args.sigma_k is not None else 5.0,
            window=args.window if args.window is not None else 10,
        )
    report = sweepmod.analyze_report(result, mode)
    text = report.to_text()
    sys.stdout.write(text)
    threshold_doc = (
        {"mode": "absolute", "value": mode.value}
        if isinstance(mode, sweepmod.Absolute)
        else {"mode": "baseline_sigma", "k": mode.k, "window": mode.window}
    )
    for out, payload in ((args.json_out, None), (args.text_out, text)):
        if not out:
            continue
        path = Path(out)
        if payload is None:
            path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
        else:
            path.write_text(payload)
        _write_sidecar(
            Path(f"{path}.config.json"),
            {"command": "report", "csv": str(args.csv), "threshold": threshold_doc},
        )
    return 0


def cmd_mitigate(args: argparse.Namespace) -> int:
    if args.method == "tune":
        needed = {
            "--noise-freq": args.noise_freq,
            "--fps-min": args.fps_min,
            "--fps-max": args.fps_max,
            "--frame-length-min": args.frame_length_min,
            "--frame-length-max": args.frame_length_max,
        }
        missing = [flag for flag, value in needed.items() if value is None]
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
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, frame in zip(names, frames):
        if args.method == "dark-ref":
            fixed = mitigation.dark_reference_correct(
                frame, args.dark_cols, pedestal_dn=args.pedestal
            )
        else:
            fixed = mitigation.lowpass_offset_suppress(frame, args.kernel_rows)
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
    try:
        f_line = physics.line_frequency(args.fps, args.frame_length)
        alias = physics.alias_and_band_height(args.noise_freq, f_line)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(
        f"alias {_fmt_num(alias.alias_hz)} Hz, band height "
        f"{_band_text(alias.band_height_rows)}"
    )
    if args.rc_cutoff is not None:
        att = mitigation.predict_filter_effect(args.noise_freq, args.rc_cutoff)
        print(f"rc attenuation {att:.4f}")
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
    p.add_argument("--prefix", default="im")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="measure row noise of images")
    p.add_argument("inputs", nargs="+", help="image files or directories")
    p.add_argument("--per-frame", action="store_true")
    p.add_argument("--csv", help="write per-frame values to this CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="characterize row noise over a frequency band")
    _add_scenario_flags(p)
    p.add_argument("--config", help="sweep config JSON (or a sweep sidecar)")
    p.add_argument("--start", type=float, help="Hz")
    p.add_argument("--end", type=float, help="Hz")
    p.add_argument("--step", type=float, help="Hz")
    p.add_argument("--amp", type=float, help="Vpp")
    p.add_argument("--frames-per-step", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot", help="also write an SVG chart here")
    p.add_argument("--capture-cmd", help="external capture command with {freq}/{amp}")
    p.add_argument("--capture-dir", help="directory the capture command fills")
    p.add_argument("--capture-glob", help="image name pattern (default im*)")
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
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # domain/config problems from the modules
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
