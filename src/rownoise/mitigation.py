"""Row noise countermeasures.

Four attack angles, from cheapest to most invasive:

* dark_reference_correct: estimate each row's supply offset from pixels
  that carry no signal and subtract it. Residual scales with the
  temporal noise of the reference pixels, sigma_t / sqrt(m).
* lowpass_offset_suppress: image-only correction when no reference
  pixels exist. A vertical running median separates slow scene content
  from row-rate disturbances; each row's high-pass median is treated as
  its offset and removed.
* recommend_tuning: move the problem instead of fixing it. Pick sensor
  timing so the disturbance aliases to DC (SYNC locks it to the line
  rate, making it a uniform shift) or as far from DC as possible
  (MAX_SEPARATION pushes it to 1-row bands that look like white rows
  and average away).
* predict_filter_effect: expected attenuation from an RC filter on the
  rail, for sizing hardware fixes before building them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.ndimage import median_filter

from . import physics
from .sensor import MAX_DN, Frame, quantize_dn, rc_attenuation

__all__ = [
    "TuningMode",
    "TuningRecommendation",
    "dark_reference_correct",
    "lowpass_offset_suppress",
    "recommend_tuning",
    "predict_filter_effect",
    "TUNE_FPS_STEP",
    "MAX_TUNE_CANDIDATES",
]

TUNE_FPS_STEP = 0.01  # fps spacing of the tune grid
MAX_TUNE_CANDIDATES = 10**8  # most (fps, frame length) pairs one search may try


class TuningMode(str, Enum):
    SYNC = "sync"
    MAX_SEPARATION = "max_separation"


@dataclass(frozen=True)
class TuningRecommendation:
    recommended_fps: float
    recommended_frame_length_rows: int
    resulting_alias_hz: float
    predicted_band_height_rows: float  # physics.UNIFORM when alias is 0


def dark_reference_correct(frame: Frame, m_dark_cols: int, pedestal_dn: float = 16.0) -> Frame:
    """Subtract each row's offset as seen by m signal-free reference pixels.

    The frame's leftmost m_dark_cols columns are the reference, which is
    valid for dark captures where every pixel is signal-free. The
    per-row, per-channel offset is the dark mean minus the pedestal; the
    whole row is shifted by it, then re-quantized.
    """
    if m_dark_cols < 1:
        raise ValueError(f"m_dark_cols must be >= 1, got {m_dark_cols}")
    if not 0 <= pedestal_dn <= MAX_DN:
        raise ValueError(f"pedestal_dn must be in [0, {MAX_DN}], got {pedestal_dn}")
    if m_dark_cols > frame.width:
        raise ValueError(f"m_dark_cols {m_dark_cols} exceeds frame width {frame.width}")
    offsets = frame.pixels[:, :, :m_dark_cols].astype(np.float64).mean(axis=2) - pedestal_dn
    corrected = frame.pixels.astype(np.float64) - offsets[:, :, None]
    return Frame(pixels=quantize_dn(corrected))


def lowpass_offset_suppress(frame: Frame, kernel_rows: int) -> Frame:
    """Remove row-rate offsets using only the image itself.

    Each column is low-passed vertically with a running median of
    kernel_rows (edge values replicated), which tracks scene structure
    but steps over disturbances narrower than half the kernel. The
    median over each row of the high-pass residue is that row's offset
    estimate; subtracting it flattens the banding while leaving
    vertical ramps and uniform regions untouched.

    The columns are laid end to end, each padded with kernel_rows // 2
    copies of its edge rows, so no window crosses into a neighbouring
    column, and filtered in one 1-D pass: SciPy's 1-D rank filter costs
    O(log k) per pixel where its N-d one costs O(k), so a large kernel
    costs little more than a small one. The residue is exact in int16,
    and so is its row median in float64.
    """
    if kernel_rows < 3 or kernel_rows % 2 == 0:
        raise ValueError(f"kernel_rows must be odd and >= 3, got {kernel_rows}")
    if kernel_rows > frame.rows:
        raise ValueError(
            f"kernel_rows {kernel_rows} exceeds frame rows {frame.rows}"
        )
    pad = kernel_rows // 2
    columns = np.pad(frame.pixels.transpose(0, 2, 1), ((0, 0), (0, 0), (pad, pad)), mode="edge")
    lowpass = median_filter(columns.ravel(), size=kernel_rows, mode="nearest")
    lowpass = lowpass.reshape(columns.shape)[:, :, pad:-pad].transpose(0, 2, 1)
    offsets = np.median(frame.pixels.astype(np.int16) - lowpass, axis=2)
    corrected = frame.pixels - offsets[:, :, None]
    return Frame(pixels=quantize_dn(corrected))


def recommend_tuning(
    f_noise_hz: float,
    fps_range: tuple[float, float],
    frame_length_range: tuple[int, int],
    mode: TuningMode = TuningMode.MAX_SEPARATION,
) -> TuningRecommendation:
    """Search sensor timing for the best alias placement.

    The grid covers fps in TUNE_FPS_STEP increments and every integer
    frame length in range. SYNC minimizes the alias (0 means the
    disturbance becomes a uniform frame shift); MAX_SEPARATION maximizes
    it. Ties resolve to the lower fps, then the lower frame length. More
    than physics.MAX_GRID_POINTS frame lengths or MAX_TUNE_CANDIDATES
    pairs is rejected before the search starts.
    """
    if not 0 < f_noise_hz < math.inf:
        raise ValueError(f"f_noise_hz must be positive and finite, got {f_noise_hz}")
    fps_lo, fps_hi = fps_range
    if fps_lo <= 0 or fps_hi < fps_lo:
        raise ValueError(f"bad fps range {fps_range}")
    fl_lo, fl_hi = frame_length_range
    if fl_lo < 1 or fl_hi < fl_lo:
        raise ValueError(f"bad frame length range {frame_length_range}")
    n_lengths = fl_hi - fl_lo + 1
    if n_lengths > physics.MAX_GRID_POINTS:
        raise ValueError(
            f"frame lengths {fl_lo} to {fl_hi} are {n_lengths} values, "
            f"more than the cap of {physics.MAX_GRID_POINTS}"
        )
    physics.line_frequency(fps_hi, fl_hi)  # the highest line rate on the grid is finite

    fps_grid = np.array(physics.frequency_grid(fps_lo, fps_hi, TUNE_FPS_STEP))
    n_candidates = len(fps_grid) * n_lengths
    if n_candidates > MAX_TUNE_CANDIDATES:
        raise ValueError(
            f"{len(fps_grid)} fps points x {n_lengths} frame lengths are {n_candidates} "
            f"tune candidates, more than the cap of {MAX_TUNE_CANDIDATES}"
        )
    # min picks the lowest signed alias, then the lowest fps and frame length.
    sign = 1.0 if TuningMode(mode) is TuningMode.SYNC else -1.0

    def best_fps(frame_length: int) -> tuple[float, float, int]:
        score = sign * physics.fold_frequency(f_noise_hz, fps_grid * frame_length)
        idx = int(np.argmin(score))
        return float(score[idx]), float(fps_grid[idx]), frame_length

    _, fps, frame_length = min(best_fps(fl) for fl in range(fl_lo, fl_hi + 1))
    f_line = physics.line_frequency(fps, frame_length)
    band = physics.alias_and_band_height(f_noise_hz, f_line)
    return TuningRecommendation(
        recommended_fps=fps,
        recommended_frame_length_rows=frame_length,
        resulting_alias_hz=band.alias_hz,
        predicted_band_height_rows=band.band_height_rows,
    )


def predict_filter_effect(freq_hz: float, cutoff_hz: float) -> float:
    """Amplitude ratio through a first-order RC low-pass at freq_hz."""
    if not freq_hz > 0:
        raise ValueError(f"freq_hz must be positive, got {freq_hz}")
    if not cutoff_hz > 0:
        raise ValueError(f"cutoff_hz must be positive, got {cutoff_hz}")
    return rc_attenuation(freq_hz, cutoff_hz)[0]
