"""Sensor timing and alias physics for supply-induced row noise.

Closed-form first-order models only. Each function validates its domain and
raises ValueError outside it; none of them touch global state, so every call
is reproducible by construction.

The alias model at the bottom is the piece everything else leans on: a
column-parallel readout samples one whole row per line period, so a
supply disturbance at f_noise beats against the line rate f_line and
shows up folded into [0, f_line/2]. Band height in rows is half the
folded period, f_line / (2 * alias).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOLTZMANN_K",
    "UNIFORM",
    "MAX_GRID_POINTS",
    "AliasResult",
    "reset_noise_v",
    "line_frequency",
    "frequency_grid",
    "fold_frequency",
    "alias_and_band_height",
]

BOLTZMANN_K = 1.380649e-23  # J/K, CODATA 2018 exact

# Sentinel band height for alias 0: the disturbance locks to the line rate
# and every row sees the same offset, so there is no band to speak of.
UNIFORM = math.inf

# Most points frequency_grid builds: a sweep or tune grid is held whole.
MAX_GRID_POINTS = 10**6


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def reset_noise_v(temp_k: float, cap_f: float) -> float:
    """kTC reset noise, volts RMS on a capacitance cap_f at temp_k."""
    _require(temp_k > 0, f"temperature must be positive, got {temp_k}")
    _require(cap_f > 0, f"capacitance must be positive, got {cap_f}")
    sigma = math.sqrt(BOLTZMANN_K * temp_k / cap_f)
    _require(sigma < math.inf, f"temperature {temp_k} K and capacitance {cap_f} F overflow float64")
    return sigma


def line_frequency(fps: float, frame_length_rows: int) -> float:
    """Row readout rate in Hz: frames per second times rows per frame.

    frame_length_rows counts every row period in the frame timing,
    blanking included, so fps * frame_length_rows is exact.
    """
    _require(0 < fps < math.inf, f"fps must be positive and finite, got {fps}")
    _require(
        isinstance(frame_length_rows, int) and not isinstance(frame_length_rows, bool),
        f"frame length must be an integer row count, got {frame_length_rows!r}",
    )
    _require(frame_length_rows >= 1, f"frame length must be >= 1, got {frame_length_rows}")
    f_line = fps * frame_length_rows
    _require(f_line < math.inf, f"line frequency {fps} x {frame_length_rows} overflows")
    return f_line


def frequency_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop, stop included when it lies on
    the grid, as a list of floats: _grid_points' values."""
    return _grid_points(start, stop, step).tolist()


def _grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """frequency_grid's points as a float64 array.

    The point count allows 1e-9 of a step for float drift, so 0.1 to 0.3
    in steps of 0.1 has 3 points although (0.3 - 0.1) / 0.1 is just
    under 2. Point i is start + i * step, never a running sum. A grid of
    more than MAX_GRID_POINTS points is rejected before any is built.
    """
    _require(step > 0, f"step must be positive, got {step}")
    _require(
        math.isfinite(start) and math.isfinite(stop), f"range {start} to {stop} must be finite"
    )
    _require(stop >= start, f"stop {stop} is below start {start}")
    steps = (stop - start) / step
    _require(steps < math.inf, f"range {start} to {stop} in steps of {step} overflows")
    count = int(math.floor(steps + 1e-9)) + 1
    _require(
        count <= MAX_GRID_POINTS,
        f"range {start} to {stop} in steps of {step} has {count} points, "
        f"more than the cap of {MAX_GRID_POINTS}",
    )
    return start + np.arange(count) * step


@dataclass(frozen=True)
class AliasResult:
    """Folded disturbance frequency and the band geometry it produces."""

    alias_hz: float
    band_height_rows: float  # UNIFORM when alias_hz == 0


def fold_frequency(f_hz, f_line):
    """Distance from f_hz to the nearest multiple of f_line, which lies in
    [0, f_line/2]. Takes non-negative scalars or arrays."""
    r = np.fmod(f_hz, f_line)
    return np.minimum(r, f_line - r)


def alias_and_band_height(f_noise_hz: float, f_line_hz: float) -> AliasResult:
    """Fold a supply disturbance against the row sampling rate.

    The alias is fold_frequency(f_noise, f_line), in [0, f_line/2].
    alias 0 means the disturbance is a line-rate harmonic: every row
    samples it at the same phase and the frame is uniform. Otherwise the
    pattern repeats every f_line/alias rows and a single band (half a
    period) spans f_line / (2 * alias) rows.
    """
    _require(
        0 <= f_noise_hz < math.inf,
        f"noise frequency must be finite and >= 0, got {f_noise_hz}",
    )
    _require(f_line_hz > 0, f"line frequency must be positive, got {f_line_hz}")
    alias = float(fold_frequency(f_noise_hz, f_line_hz))
    if alias == 0.0:
        return AliasResult(alias_hz=0.0, band_height_rows=UNIFORM)
    return AliasResult(alias_hz=alias, band_height_rows=f_line_hz / (2.0 * alias))
