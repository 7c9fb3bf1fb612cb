"""The benchmark's three workloads: inputs, CLI steps and output checks.

sweep_ref      the ROADMAP reference sweep (acceptance criterion 11) and a
               report on its CSV: the sensor layer's single-threaded baseline.
simulate_full  `simulate` with every noise source on, writing 16 PGMs: pink
               noise, Poisson draws, nonzero FPN maps and the PGM writer.
captures_correct
               64 banded VGA dark captures made here with numpy (not by
               rownoise), then analyze, two mitigations, analyze and tune:
               image I/O, mitigation and metric, and only the quantizer of
               the sensor layer.

Every workload has a full size, which the benchmark measures, and a tiny
size, which the benchmark's own test runs. Each check returns a list of
(step, problem) pairs; an empty list means the outputs are right.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DN_PER_VOLT = 255 / 3.3  # rownoise's default conversion, used by the oracles


@dataclass(frozen=True)
class Step:
    name: str
    argv: list[str]
    output: Path | None  # file or directory hashed after the call, besides stdout


def read_pgm(path: Path) -> np.ndarray:
    """Decode a P5 file as rownoise writes it: maxval 255, no comments."""
    data = path.read_bytes()
    header = re.match(rb"P5\s(\d+)\s(\d+)\s255\s", data)
    if header is None:
        raise ValueError(f"{path.name}: not an 8-bit P5 file")
    width, rows = int(header[1]), int(header[2])
    payload = data[header.end():]
    if len(payload) != width * rows:
        raise ValueError(f"{path.name}: payload is {len(payload)} bytes, not {width * rows}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(rows, width)


def row_noise_of(image: np.ndarray) -> float:
    """Sample std of the row means, the quantity `rownoise analyze` prints."""
    return float(np.std(image.astype(np.float64).mean(axis=1), ddof=1))


def _parse_per_frame(stdout: str) -> dict[str, float]:
    values = {}
    for line in stdout.splitlines():
        name, _, value = line.partition("\t")
        if value:
            values[name] = float(value)
    return values


class SweepRef:
    """VGA 640x480 plus 320 blanking rows at 30 fps (24 kHz line rate),
    pedestal 128, 2 DN read noise, 50 Hz to 100 kHz in 1 kHz steps,
    3 frames per point at 1 Vpp, one worker; then a report on the CSV."""

    name = "sweep_ref"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.width, self.active, self.blanking, self.end, self.per_point = 64, 48, 32, 12050, 2
        else:
            self.width, self.active, self.blanking, self.end, self.per_point = 640, 480, 320, 100_000, 3
        self.freqs = [50.0 + 1000.0 * i for i in range(int((self.end - 50) // 1000) + 1)]
        self.frames = len(self.freqs) * self.per_point

    def prepare(self, work: Path, seed: int) -> None:
        pass

    def steps(self, work: Path, seed: int) -> list[Step]:
        csv = work / "out" / "sweep.csv"
        sweep = [
            "sweep", "--width", str(self.width), "--active-rows", str(self.active),
            "--blanking-rows", str(self.blanking), "--fps", "30", "--pedestal", "128",
            "--read-noise", "2", "--start", "50", "--end", str(self.end), "--step", "1000",
            "--amp", "1", "--frames-per-step", str(self.per_point), "--workers", "1",
            "--seed", str(seed), "--out", str(csv),
        ]
        return [Step("sweep", sweep, csv), Step("report", ["report", "--csv", str(csv)], None)]

    def expected_row_noise(self, freq: float) -> float:
        """Row noise of the noiseless supply term alone, frame-averaged."""
        f_line = 30.0 * (self.active + self.blanking)
        rows = np.arange(self.active, dtype=np.float64)
        values = []
        for frame in range(self.per_point):
            t = frame / 30.0 + rows / f_line
            offsets = 0.5 * DN_PER_VOLT * np.sin(2.0 * math.pi * freq * t)
            values.append(float(np.std(offsets, ddof=1)))
        return sum(values) / len(values)

    def check(self, work: Path, stdout: dict[str, str]) -> list[tuple[str, str]]:
        lines = (work / "out" / "sweep.csv").read_text().splitlines()
        if lines[0] != "frequency_hz,row_noise" or len(lines) != len(self.freqs) + 1:
            return [("sweep", f"CSV has {len(lines)} lines, expected {len(self.freqs) + 1}")]
        # Read noise adds about 2/sqrt(width) DN of row-mean scatter.
        tol = 5 * 2.0 / math.sqrt(self.width)
        problems = []
        values = []
        for line, freq in zip(lines[1:], self.freqs):
            f_text, v_text = line.split(",")
            value = float(v_text)
            values.append(value)
            model = self.expected_row_noise(freq)
            if float(f_text) != freq:
                problems.append(("sweep", f"frequency {f_text}, expected {freq:g}"))
            elif abs(value - model) > tol:
                problems.append(("sweep", f"{f_text} Hz: {value} DN, model {model:.4f}"))
        peak = max(values)
        if f"({peak:.4f} DN)" not in stdout["report"]:
            problems.append(("report", f"peak {peak:.4f} DN missing from the report"))
        return problems


class SimulateFull:
    """Default 1280x800 sensor with every noise source on, 16 frames."""

    name = "simulate_full"
    supply_hz, supply_vpp, rc_hz = 126_000.0, 0.5, 200_000.0

    def __init__(self, tiny: bool = False):
        # The tiny sensor keeps 126 kHz off the line-rate harmonics (1860 Hz).
        self.width, self.active, self.frames = (64, 50, 2) if tiny else (1280, 800, 16)
        self.rel_tol = 0.25 if tiny else 0.05

    def prepare(self, work: Path, seed: int) -> None:
        pass

    def steps(self, work: Path, seed: int) -> list[Step]:
        out = work / "out" / "sim"
        argv = [
            "simulate", "--width", str(self.width), "--active-rows", str(self.active),
            "--shot", "--dark-signal-e", "4", "--read-noise", "2", "--reset",
            "--flicker", "--flicker-scale", "0.5", "--dsnu", "0.5", "--column-fpn", "0.3",
            "--noise-freq", f"{self.supply_hz:g}", "--noise-amp", f"{self.supply_vpp:g}",
            "--phase-mode", "random_per_frame", "--rc-cutoff", f"{self.rc_hz:g}",
            "--frames", str(self.frames), "--seed", str(seed), "--out-dir", str(out),
        ]
        return [Step("simulate", argv, out)]

    def check(self, work: Path, stdout: dict[str, str]) -> list[tuple[str, str]]:
        out = work / "out" / "sim"
        names = sorted(p.name for p in out.glob("im*.pgm"))
        if len(names) != self.frames:
            return [("simulate", f"{len(names)} PGMs, expected {self.frames}")]
        ratio = self.supply_hz / self.rc_hz
        amplitude = 0.5 * self.supply_vpp * DN_PER_VOLT / math.sqrt(1.0 + ratio * ratio)
        expected = amplitude / math.sqrt(2.0)  # std of a sine sampled over many cycles
        problems = []
        for name in names:
            image = read_pgm(out / name)
            if image.shape != (self.active, self.width):
                problems.append(("simulate", f"{name} is {image.shape}"))
                continue
            mean = float(image.mean())
            if not 18.0 <= mean <= 22.0:  # pedestal 16 DN plus 4 e- dark signal
                problems.append(("simulate", f"{name} mean {mean:.3f} DN, expected ~20"))
            rn = row_noise_of(image)
            if abs(rn / expected - 1.0) > self.rel_tol:
                problems.append(("simulate", f"{name} row noise {rn:.3f} DN, model {expected:.3f}"))
        return problems


class CapturesCorrect:
    """64 VGA dark captures with 1.67-row bands from one supply tone."""

    name = "captures_correct"
    pedestal = 64
    read_noise = 2.0
    amplitude = 6.0  # DN
    cycles_per_row = 0.3  # bands 1.67 rows high
    noise_hz = 103_200.0  # 4.3 line rates at the VGA timing of sweep_ref (24 kHz)

    def __init__(self, tiny: bool = False):
        self.width, self.rows, self.frames = (64, 48, 4) if tiny else (640, 480, 64)
        self.images: dict[str, np.ndarray] = {}

    def prepare(self, work: Path, seed: int) -> None:
        """Write the captures with numpy. The seed draws the per-frame tone
        phase and the read noise; the tone itself is fixed, because the
        lowpass median filter's speed depends on the spread of pixel values
        and a seed must not change how much work a pass is."""
        rng = np.random.default_rng(seed)
        rows = np.arange(self.rows, dtype=np.float64)[:, None]
        in_dir = work / "in"
        in_dir.mkdir(parents=True, exist_ok=True)
        self.images = {}
        for i in range(1, self.frames + 1):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            analog = (
                self.pedestal
                + self.amplitude * np.sin(2.0 * math.pi * self.cycles_per_row * rows + phase)
                + rng.normal(0.0, self.read_noise, (self.rows, self.width))
            )
            image = np.clip(np.floor(analog + 0.5), 0, 255).astype(np.uint8)
            name = f"im{i:02d}.pgm"
            (in_dir / name).write_bytes(b"P5\n%d %d\n255\n" % (self.width, self.rows) + image.tobytes())
            self.images[name] = image

    def steps(self, work: Path, seed: int) -> list[Step]:
        in_dir, out = work / "in", work / "out"
        return [
            Step(
                "analyze_in",
                ["analyze", str(in_dir), "--per-frame", "--csv", str(out / "analyze_in.csv")],
                out / "analyze_in.csv",
            ),
            Step(
                "lowpass",
                ["mitigate", str(in_dir), "--method", "lowpass", "--out-dir", str(out / "lowpass")],
                out / "lowpass",
            ),
            Step(
                "dark_ref",
                [
                    "mitigate", str(in_dir), "--method", "dark-ref", "--pedestal",
                    str(self.pedestal), "--out-dir", str(out / "dark_ref"),
                ],
                out / "dark_ref",
            ),
            Step(
                "analyze_lowpass",
                [
                    "analyze", str(out / "lowpass"), "--per-frame",
                    "--csv", str(out / "analyze_lowpass.csv"),
                ],
                out / "analyze_lowpass.csv",
            ),
            Step(
                "tune",
                [
                    "mitigate", "--method", "tune", "--noise-freq", f"{self.noise_hz:g}",
                    "--fps-min", "15", "--fps-max", "60",
                    "--frame-length-min", "500", "--frame-length-max", "2000",
                ],
                None,
            ),
        ]

    def check(self, work: Path, stdout: dict[str, str]) -> list[tuple[str, str]]:
        out = work / "out"
        problems = []
        before = {name: row_noise_of(img) for name, img in self.images.items()}
        lowpass = {name: row_noise_of(read_pgm(out / "lowpass" / name)) for name in self.images}
        dark_ref = {name: row_noise_of(read_pgm(out / "dark_ref" / name)) for name in self.images}
        for step, expected in (("analyze_in", before), ("analyze_lowpass", lowpass)):
            got = _parse_per_frame(stdout[step])
            if set(got) != set(expected):
                problems.append((step, f"reported frames {sorted(got)[:3]}..."))
                continue
            worst = max(abs(got[n] - expected[n]) for n in expected)
            if worst > 1.5e-4:  # values print at 4 decimals
                problems.append((step, f"row noise off by {worst:.6f} DN"))
        mean_before = sum(before.values()) / len(before)
        for step, after, limit in (("lowpass", lowpass, 0.5), ("dark_ref", dark_ref, 0.6)):
            ratio = sum(after.values()) / len(after) / mean_before
            if ratio > limit:
                problems.append((step, f"row noise kept {ratio:.3f} of its input, limit {limit}"))
        problems += self._check_tune(stdout["tune"])
        return problems

    def _check_tune(self, text: str) -> list[tuple[str, str]]:
        m = re.fullmatch(
            r"fps (\S+)\nframe length (\d+) rows\nalias (\S+) Hz\nband height .+\n", text
        )
        if not m:
            return [("tune", f"unexpected output {text!r}")]
        fps, length, alias = float(m[1]), int(m[2]), float(m[3])
        if not (15.0 <= fps <= 60.0 and 500 <= length <= 2000):
            return [("tune", f"fps {fps} / frame length {length} outside the search range")]
        f_line = fps * length
        r = math.fmod(self.noise_hz, f_line)
        folded = min(r, f_line - r)
        if abs(folded - alias) > 1e-4 * max(alias, 1.0):  # printed to 6 digits
            return [("tune", f"alias {alias} Hz, folding gives {folded}")]
        return []


WORKLOADS = {w.name: w for w in (SweepRef, SimulateFull, CapturesCorrect)}
