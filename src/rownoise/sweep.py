"""Frequency sweep characterization.

Steps a disturbance frequency across a band, measures row noise at each
point and extracts the landmarks an integration report needs: where row
noise starts, where it peaks and which frequency ranges are of concern.

Points come either from the built-in simulator or from an external
capture command (a bench supply or signal generator wrapper) that drops
image files into a directory. A sweep is its list of (frequency, row
noise) points in ascending frequency. A simulated point is a stack: the
scenario at the point's frequency, amplitude and seed, and its
frames_per_step frames. The sweep streams its stacks through the frame
stream of simulate (sensor._frame_stream), which numbers each stack's
frames and builds its FPN maps, and measures each point's frames in
order.
"""

from __future__ import annotations

import json
import math
import subprocess
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import imageio, physics
from .metric import row_noise
from .sensor import SimScenario, _bounded, _build_section, _Config, _frame_stream
from .sensor import simulate_stack  # noqa: F401  bench/test_bench.py traces sweep.simulate_stack

__all__ = [
    "SimulateSource",
    "CaptureSource",
    "SweepConfig",
    "Absolute",
    "BaselineSigma",
    "CharacterizationReport",
    "CsvParseError",
    "CaptureError",
    "run_sweep",
    "write_csv",
    "read_csv",
    "analyze_report",
    "emit_plot_data",
    "sweep_config_to_json",
    "sweep_config_from_json",
]

CSV_HEADER = "frequency_hz,row_noise"


class CsvParseError(ValueError):
    """Raised for malformed sweep CSV files; message carries the line number."""


class CaptureError(RuntimeError):
    """A capture step failed or was interrupted. Partial results up to it
    are attached."""

    def __init__(self, message: str, partial: list[tuple[float, float]]):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SimulateSource(_Config):
    scenario: SimScenario = field(default_factory=SimScenario)


@dataclass(frozen=True)
class CaptureSource(_Config):
    """External capture command, run once per frequency step.

    command is a shell template with {freq} (integer Hz) and {amp}
    (decimal Vpp) placeholders. After it exits 0, the images in image_dir
    whose names match pattern are ingested as imageio.find_images lists
    them. The command must overwrite its previous output.
    """

    command: str
    image_dir: Path
    pattern: str = "im*"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.image_dir, (str, Path)):
            raise ValueError(f"image_dir must be a path, got {self.image_dir!r}")
        object.__setattr__(self, "image_dir", Path(self.image_dir))
        try:
            self.command.format(freq=0, amp=0.0)
        except (AttributeError, IndexError, KeyError, ValueError) as exc:
            raise ValueError(
                f"capture command {self.command!r} takes only {{freq}} and {{amp}}: {exc!r}"
            ) from exc


@dataclass(frozen=True)
class SweepConfig(_Config):
    start_hz: float = _bounded(50.0, gt=0)
    end_hz: float = 1_000_000.0
    step_hz: float = _bounded(1000.0, gt=0)
    amplitude_vpp: float = _bounded(1.0, ge=0)
    frames_per_step: int = _bounded(3, ge=1)
    source: SimulateSource | CaptureSource = field(default_factory=SimulateSource)
    seed: int = _bounded(0, ge=0)

    _retired_keys = {"workers": (int, 1)}  # as SensorConfig._retired_keys

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.end_hz < self.start_hz:
            raise ValueError(f"end_hz must be >= start_hz ({self.start_hz}), got {self.end_hz}")
        if isinstance(self.source, SimulateSource):
            sc = self.source.scenario
            given = {"supply.frequency_hz": sc.supply.frequency_hz,
                     "supply.amplitude_vpp": sc.supply.amplitude_vpp, "seed": sc.seed}
            named = [key for key, value in given.items() if value != 0]
            if named:
                raise ValueError(f"the scenario's {', '.join(named)} must be 0 in a simulated "
                                 "sweep, which sets frequency, amplitude and seed at each point")
        else:
            named = [f.name for f in fields(self) if f.name in ("frames_per_step", "seed")
                     and getattr(self, f.name) != f.default]
            if named:
                raise ValueError(f"{', '.join(named)} must keep the default in a capture sweep, "
                                 "which reads the images the capture command writes")


def _step_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


def _measure_captured(config: SweepConfig, freq: float) -> float:
    src = config.source
    cmd = src.command.format(freq=int(round(freq)), amp=config.amplitude_vpp)
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    if proc.returncode != 0:
        detail = proc.stderr.strip() or proc.stdout.strip()
        raise RuntimeError(
            f"capture command failed at {freq} Hz (exit {proc.returncode})"
            + (f": {detail}" if detail else "")
        )
    paths = imageio.find_images(src.image_dir, src.pattern)
    if not paths:
        raise RuntimeError(
            f"capture at {freq} Hz produced no images matching "
            f"{src.pattern!r} in {src.image_dir}"
        )
    return row_noise(imageio.read_stack(paths)).average


def run_sweep(config: SweepConfig) -> list[tuple[float, float]]:
    """The (frequency, row noise) points of the sweep, ascending."""
    freqs = physics.frequency_grid(config.start_hz, config.end_hz, config.step_hz)

    if isinstance(config.source, CaptureSource):
        # External command plus shared output directory: inherently serial.
        points: list[tuple[float, float]] = []
        for f in freqs:
            try:
                points.append((f, _measure_captured(config, f)))
            except (RuntimeError, OSError, ValueError) as exc:
                raise CaptureError(str(exc), points) from exc
            except KeyboardInterrupt as exc:
                raise CaptureError("interrupted", points) from exc
        return points

    base, amp, n = config.source.scenario, config.amplitude_vpp, config.frames_per_step
    scenarios = [
        replace(base, supply=replace(base.supply, frequency_hz=f, amplitude_vpp=amp),
                seed=_step_seed(config.seed, index))
        for index, f in enumerate(freqs)
    ]
    # closing() joins the stream's helper thread before the sweep returns or raises.
    with closing(_frame_stream((sc, n) for sc in scenarios)) as stream:
        return [(f, row_noise(islice(stream, n)).average) for f in freqs]


def _format_freq(freq: float) -> str:
    if freq == int(freq):
        return str(int(freq))
    return f"{freq:.10g}"


def write_csv(points: list[tuple[float, float]], path: str | Path) -> None:
    """Two columns, row noise at 4 decimals. Stable byte-for-byte."""
    lines = [CSV_HEADER]
    lines += [f"{_format_freq(f)},{v:.4f}" for f, v in points]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path: str | Path) -> list[tuple[float, float]]:
    """Inverse of write_csv. Header-only files give no points."""
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != CSV_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise CsvParseError(f"{path}:1: expected header {CSV_HEADER!r}, got {got!r}")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvParseError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            point = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise CsvParseError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(x) for x in point):
            raise CsvParseError(f"{path}:{lineno}: non-finite value in {line.strip()!r}")
        points.append(point)
    return points


@dataclass(frozen=True)
class Absolute(_Config):
    """Fixed row-noise threshold in DN."""

    value: float

    def __post_init__(self) -> None:
        super().__post_init__()
        # Not a declared bound, so that the message names --threshold.
        if self.value < 0:
            raise ValueError(f"threshold must be >= 0, got {self.value}")


@dataclass(frozen=True)
class BaselineSigma(_Config):
    """Threshold = mean + k * sample std over the first `window` points."""

    k: float = _bounded(5.0, gt=0)
    window: int = _bounded(10, ge=2)


@dataclass(frozen=True)
class CharacterizationReport:
    row_noise_start_hz: float | None
    peak_hz: float
    peak_row_noise_dn: float
    areas_of_concern_hz: list[tuple[float, float]]
    threshold_dn: float

    def to_text(self) -> str:
        lines = ["Characterization summary", "-" * 24]
        start = _format_freq_human(self.row_noise_start_hz) if (
            self.row_noise_start_hz is not None
        ) else "none"
        lines.append(f"{'Row Noise Start':<18}{start}")
        lines.append(
            f"{'Peak Row Noise':<18}{_format_freq_human(self.peak_hz)} "
            f"({self.peak_row_noise_dn:.4f} DN)"
        )
        if self.areas_of_concern_hz:
            label = "Areas of Concern"
            for lo, hi in self.areas_of_concern_hz:
                span = (
                    _format_freq_human(lo)
                    if lo == hi
                    else f"{_format_freq_human(lo)} - {_format_freq_human(hi)}"
                )
                lines.append(f"{label:<18}{span}")
                label = ""
        else:
            lines.append(f"{'Areas of Concern':<18}no areas of concern")
        lines.append(f"{'Threshold':<18}{self.threshold_dn:.4f} DN")
        return "\n".join(lines) + "\n"


def _format_freq_human(freq: float) -> str:
    if freq >= 1000.0:
        khz = freq / 1000.0
        text = f"{khz:.3f}".rstrip("0").rstrip(".")
        return f"{text} kHz"
    return f"{_format_freq(freq)} Hz"


def analyze_report(
    points: list[tuple[float, float]], threshold: Absolute | BaselineSigma | None = None
) -> CharacterizationReport:
    """Extract start, peak and areas of concern from a sweep curve.

    Areas are maximal contiguous runs of points strictly above the
    threshold (strict, so a flat zero curve with a zero baseline yields
    no areas). Peak ties resolve to the lowest frequency.
    """
    if threshold is None:
        threshold = BaselineSigma()
    if not points:
        raise ValueError("sweep result has no points")
    freqs = [f for f, _ in points]
    values = np.asarray([v for _, v in points], dtype=np.float64)

    if isinstance(threshold, Absolute):
        cut = threshold.value
    else:
        if threshold.window > len(values):
            raise ValueError(
                f"baseline window {threshold.window} exceeds point count {len(values)}"
            )
        base = values[: threshold.window]
        try:
            with np.errstate(over="raise", invalid="raise"):
                mean, std = float(base.mean()), float(base.std(ddof=1))
        except FloatingPointError:
            raise ValueError(
                f"baseline of the first {threshold.window} points overflows float64 arithmetic"
            ) from None
        # Python floats, so a huge k overflows to inf without a warning.
        cut = mean + threshold.k * std
        if not math.isfinite(cut):
            raise ValueError(f"baseline threshold with k = {threshold.k} overflows")

    above = values > cut
    areas: list[tuple[float, float]] = []
    run_start: int | None = None
    for i, flag in enumerate(above):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            areas.append((freqs[run_start], freqs[i - 1]))
            run_start = None
    if run_start is not None:
        areas.append((freqs[run_start], freqs[-1]))

    peak_idx = int(np.argmax(values))  # argmax takes the earliest on ties
    return CharacterizationReport(
        row_noise_start_hz=areas[0][0] if areas else None,
        peak_hz=freqs[peak_idx],
        peak_row_noise_dn=float(values[peak_idx]),
        areas_of_concern_hz=areas,
        threshold_dn=float(cut),
    )


def emit_plot_data(points: list[tuple[float, float]], svg_path: str | Path) -> None:
    """Write a self-contained SVG line chart plus a two-column data file
    of the same name with the suffix .dat."""
    if not points:
        raise ValueError("sweep result has no points")
    svg_path = Path(svg_path)
    data_lines = [f"{_format_freq(f)} {v:.4f}" for f, v in points]
    svg_path.with_suffix(".dat").write_text("\n".join(data_lines) + "\n")
    svg_path.write_text(_render_svg(points))


def _render_svg(points: list[tuple[float, float]]) -> str:
    width, height = 800.0, 500.0
    ml, mr, mt, mb = 70.0, 20.0, 20.0, 50.0
    plot_w, plot_h = width - ml - mr, height - mt - mb

    freqs, values = zip(*points)
    f_lo, f_hi = min(freqs), max(freqs)
    v_hi = max(max(values), 1e-12) * 1.05
    f_span = (f_hi - f_lo) or 1.0

    def sx(f: float) -> float:
        return ml + (f - f_lo) / f_span * plot_w

    def sy(v: float) -> float:
        return mt + plot_h - v / v_hi * plot_h

    pts = " ".join(f"{sx(f):.2f},{sy(v):.2f}" for f, v in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    for i in range(5):
        f = f_lo + f_span * i / 4
        x = sx(f)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{mt + plot_h + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + plot_h + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{_format_freq(round(f, 1))}</text>'
        )
        v = v_hi * i / 4
        y = sy(v)
        parts.append(
            f'<line x1="{ml - 5:.2f}" y1="{y:.2f}" x2="{ml:.2f}" y2="{y:.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 10:.2f}" font-size="14" '
        'text-anchor="middle">frequency (Hz)</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + plot_h / 2:.2f})">row noise (DN)</text>'
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1565c0" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sweep_config_to_json(config: SweepConfig) -> str:
    doc = asdict(config)
    doc["source"]["mode"] = "capture" if isinstance(config.source, CaptureSource) else "simulate"
    return json.dumps(doc, sort_keys=True, indent=2, default=str)  # str: the image_dir Path


def sweep_config_from_json(text: str) -> SweepConfig:
    """Inverse of sweep_config_to_json. Missing fields take their defaults;
    a malformed document raises ValueError."""
    return _sweep_config_from_doc(json.loads(text))


def _sweep_config_from_doc(doc) -> SweepConfig:
    """sweep_config_from_json on the parsed document, left unchanged."""
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    src = doc.get("source", {})
    if not isinstance(src, dict):
        raise ValueError("sweep source must be a JSON object")
    src = dict(src)
    mode = src.pop("mode", "simulate")
    if mode == "capture":
        source = _build_section(CaptureSource, src, "capture source")
    elif mode == "simulate":
        source = _build_section(SimulateSource, src, "source")
    else:
        raise ValueError(f"unknown sweep source mode {mode!r}")
    return _build_section(SweepConfig, doc, "sweep config", source=source)
