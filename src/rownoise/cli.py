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
import errno
import functools
import json
import math
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
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
    add(g, "--channels", "sensor.channels", type=int)

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
    """doc with every given flag whose dest path starts at a field or a
    retired key of the dataclass root set at that path; the parser judges
    a retired key's value. A document, or a part of the path, that is not
    an object stays as it is, for the parser to reject."""
    if not isinstance(doc, dict):
        return doc
    names = {f.name for f in fields(root)} | set(getattr(root, "_retired_keys", {}))
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


def _write_frames(out_dir: Path, stemmed_frames, sidecar: dict) -> list[str]:
    """Write each (stem, frame) pair of the generator stemmed_frames as it
    comes into a staging directory on out_dir's file system, named stem
    plus write_image's suffix for its channel count. Once all are staged,
    make out_dir, rename them into it and write the sidecar config.json:
    a frame that fails or a name given twice leaves no file or directory
    behind. Returns the names in order.

    One writer thread writes frame i while the calling thread makes frame
    i + 1 and waits for it before handing over the next, so at most one
    write is in flight and its error surfaces there or at the end. The
    writer runs the untraced imageio._write, so every traced call stays
    on the calling thread. The generator is closed and the writer joined
    before the staging directory goes, whatever fails."""
    anchor = next(p for p in (out_dir, *out_dir.parents) if p.is_dir())
    staging = Path(tempfile.mkdtemp(prefix=".rownoise-", dir=anchor))
    names: list[str] = []

    def stage(frame, name: str) -> None:
        try:
            imageio._write(frame, staging / name, "xb")
        except FileExistsError:
            raise UsageError(f"inputs would overwrite each other in {out_dir}: {name}") from None

    try:
        with ThreadPoolExecutor(max_workers=1) as writer, closing(stemmed_frames):
            # Start the writer before the first frame is made: glibc gives a
            # new thread the malloc arena freed last, so each run in one
            # process then gives iter_stack's helper back its own arena, not
            # a fresh one to grow its float buffers in (a second 1280x800
            # simulate peaked at 77 MB, not 66).
            pending = writer.submit(lambda: None)
            for stem, frame in stemmed_frames:
                name = stem + imageio.image_suffix(frame.channels)
                pending.result()
                pending = writer.submit(stage, frame, name)
                names.append(name)
            pending.result()
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            (staging / name).replace(out_dir / name)
    finally:
        shutil.rmtree(staging)
    _write_sidecar(out_dir / "config.json", sidecar)
    return names


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
    # The im* names that analyze, mitigate and sweep read.
    frames = ((f"im{i}", f) for i, f in enumerate(iter_stack(scenario, n), 1))
    sidecar = {"command": "simulate", "frames": n, "out_dir": str(out_dir),
               "scenario": json.loads(scenario_to_json(scenario))}
    names = _write_frames(out_dir, frames, sidecar)
    print(f"wrote {', '.join(names)} and config.json to {out_dir}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    paths = _expand_inputs(args.inputs)

    def frames():
        for p, frame in zip(paths, imageio.read_stack(paths)):
            if frame.rows < 2:
                raise RuntimeError(f"{p}: row noise needs at least 2 rows, got {frame.rows}")
            yield frame

    result = row_noise(frames())
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
    outputs = {"--out": out, "the sidecar of --out": Path(f"{out}.config.json")}
    if args.plot:
        plot = Path(args.plot)
        outputs |= {"--plot": plot, "the data file of --plot": plot.with_suffix(".dat")}
    # Raise what the writes would raise, before a capture rig runs for hours,
    # and refuse outputs that would overwrite each other.
    written: dict[Path, str] = {}
    for name, path in outputs.items():
        if not path.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        first = written.setdefault(path.resolve(), name)
        if first != name:
            raise UsageError(f"{first} and {name} would both write {path}")
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
    kind = sweepmod.Absolute if args.threshold is not None else sweepmod.BaselineSigma
    given = {"value": args.threshold, "k": args.sigma_k, "window": args.window}
    try:
        mode = kind(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:  # the field checks name the fields, not the flags
        field, rest = str(exc).split(" ", 1)
        flags = {"value": "--threshold", "threshold": "--threshold", "k": "--sigma-k",
                 "window": "--window"}
        raise UsageError(f"{flags.get(field, field)} {rest}") from None
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


# The flags each mitigate method takes, by dest, with their defaults;
# _REQUIRED marks one the method cannot run without. A flag of another
# method is a usage error, so no flag is taken that has no effect.
_REQUIRED = None
MITIGATE_METHODS = {
    "dark-ref": {"inputs": _REQUIRED, "out_dir": _REQUIRED, "dark_cols": 4, "pedestal": 16.0},
    "lowpass": {"inputs": _REQUIRED, "out_dir": _REQUIRED, "kernel_rows": 9},
    "tune": {"noise_freq": _REQUIRED, "fps_min": _REQUIRED, "fps_max": _REQUIRED,
             "frame_length_min": _REQUIRED, "frame_length_max": _REQUIRED,
             "mode": mitigation.TuningMode.MAX_SEPARATION.value},
}


def _mitigate_flag(dest: str) -> str:
    return dest if dest == "inputs" else "--" + dest.replace("_", "-")


def cmd_mitigate(args: argparse.Namespace) -> int:
    method = MITIGATE_METHODS[args.method]
    # The mitigate parser sets only the flags given, and --method.
    given = {dest: value for dest, value in vars(args).items()
             if any(dest in flags for flags in MITIGATE_METHODS.values())}
    foreign = [_mitigate_flag(dest) for dest in given if dest not in method]
    if foreign:
        raise UsageError(f"--method {args.method} does not take {', '.join(foreign)}")
    missing = [_mitigate_flag(dest) for dest, default in method.items()
               if default is _REQUIRED and dest not in given]
    if missing:
        raise UsageError(f"--method {args.method} requires {', '.join(missing)}")
    values = {**method, **given}

    if args.method == "tune":
        rec = mitigation.recommend_tuning(
            values["noise_freq"],
            (values["fps_min"], values["fps_max"]),
            (values["frame_length_min"], values["frame_length_max"]),
            mitigation.TuningMode(values["mode"]),
        )
        print(f"fps {_fmt_num(rec.recommended_fps)}")
        print(f"frame length {rec.recommended_frame_length_rows} rows")
        print(f"alias {_fmt_num(rec.resulting_alias_hz)} Hz")
        print(f"band height {_band_text(rec.predicted_band_height_rows)}")
        return 0

    paths = _expand_inputs(values["inputs"])
    out_dir = Path(values["out_dir"])

    def corrected():
        for p, frame in zip(paths, imageio.read_stack(paths)):
            if args.method == "dark-ref":
                fixed = mitigation.dark_reference_correct(
                    frame, values["dark_cols"], pedestal_dn=values["pedestal"]
                )
            else:
                fixed = mitigation.lowpass_offset_suppress(frame, values["kernel_rows"])
            yield p.stem, fixed

    sidecar = {"command": "mitigate", "method": args.method, **values,
               "inputs": [str(p) for p in paths], "out_dir": str(out_dir)}
    names = _write_frames(out_dir, corrected(), sidecar)
    print(f"wrote {len(names)} corrected frames to {out_dir}")
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


@functools.cache
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
    p.add_argument("--workers", type=int, help="retired: only 1")
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

    # Every flag but --method is in MITIGATE_METHODS, with its default.
    p = sub.add_parser("mitigate", help="correct banding or recommend timing",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("inputs", nargs="*", help="image files or directories")
    p.add_argument("--method", required=True, choices=list(MITIGATE_METHODS))
    p.add_argument("--out-dir")
    p.add_argument("--dark-cols", type=int)
    p.add_argument("--pedestal", type=float)
    p.add_argument("--kernel-rows", type=int)
    p.add_argument("--noise-freq", type=float, help="Hz (tune)")
    p.add_argument("--fps-min", type=float)
    p.add_argument("--fps-max", type=float)
    p.add_argument("--frame-length-min", type=int)
    p.add_argument("--frame-length-max", type=int)
    p.add_argument("--mode", choices=[m.value for m in mitigation.TuningMode])
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
    # Parse errors are ValueErrors that exit 1; any other ValueError exits 2.
    # An interrupt (Ctrl-C) exits 1 once every finally block has run.
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1
    except (imageio.ImageParseError, sweepmod.CsvParseError, OSError, RuntimeError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
