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

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.ndimage import median_filter

from . import physics
from .sensor import MAX_DN, Frame, _quantize_in_place, rc_attenuation
from .sensor import quantize_dn  # noqa: F401  bench/test_bench.py traces mitigation.quantize_dn

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
# Largest lowpass kernel the median network runs; above it SciPy's rank
# filter is faster. Measured on 1- and 3-channel 640x480 and 1280x800
# frames on a 2-core x86_64 host: the network is faster or level up to
# k = 55 and slower at 57.
NETWORK_MAX_KERNEL = 55
# Pixels per row-block the network and the row median work on, so the
# network's k live views and the median's counts stay in cache and the
# crossover does not move with frame size.
NETWORK_BLOCK_PIXELS = 1 << 16


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
    return Frame(pixels=_quantize_in_place(frame.pixels - offsets[:, :, None]))


def _merge_exchange(n: int) -> list[tuple[int, int]]:
    """Batcher's merge exchange network for n inputs (Knuth, TAOCP vol. 3,
    5.2.2 Algorithm M): comparators (i, j), i < j, that sort when each
    puts the smaller value at i, in the order they run."""
    pairs: list[tuple[int, int]] = []
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return pairs


@functools.cache
def median_network(k: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The merge exchange network for k inputs pruned to its middle output.

    Each step (i, j, keep_min, keep_max) sets input i to min(i, j) when
    keep_min and input j to max(i, j) when keep_max; a comparator whose
    outputs the middle one does not depend on is dropped, and so is each
    half of one whose other output alone is needed. After the steps, input
    k // 2 holds the median.
    """
    needed = {k // 2}
    steps = []
    for i, j in reversed(_merge_exchange(k)):
        keep_min, keep_max = i in needed, j in needed
        if keep_min or keep_max:
            steps.append((i, j, keep_min, keep_max))
            needed |= {i, j}
    return tuple(reversed(steps))


def _network_median(pixels: np.ndarray, kernel_rows: int) -> np.ndarray:
    """Running median of kernel_rows rows down each column, edge rows
    repeated: one comparator network over the k row-shifted views of
    each block of rows."""
    channels, rows, width = pixels.shape
    pad = kernel_rows // 2
    padded = np.pad(pixels, ((0, 0), (pad, pad), (0, 0)), mode="edge")
    block = max(1, NETWORK_BLOCK_PIXELS // width)
    lowpass = np.empty((channels, rows, width), dtype=np.uint8)
    for c in range(channels):
        for start in range(0, rows, block):
            stop = min(start + block, rows)
            views = [padded[c, start + t:stop + t] for t in range(kernel_rows)]
            for i, j, keep_min, keep_max in median_network(kernel_rows):
                a, b = views[i], views[j]
                if keep_min:
                    views[i] = np.minimum(a, b)
                if keep_max:
                    views[j] = np.maximum(a, b)
            lowpass[c, start:stop] = views[kernel_rows // 2]
    return lowpass


def _twice_row_medians(residue: np.ndarray) -> np.ndarray:
    """Twice the median of each row of an integer (channels, rows, width)
    array, exact, as int16 (channels, rows): the sum of the row's two
    middle values, which are one value when the width is odd.

    Each block of whole rows, about NETWORK_BLOCK_PIXELS values, is
    counted with one bincount over (row, value - lo), lo..hi being the
    block's own range. In the running count, the i-th smallest value of
    row r is the first bin whose count exceeds r * width + i.
    """
    channels, rows, width = residue.shape
    flat = residue.reshape(-1, width)
    twice = np.empty(len(flat), dtype=np.int16)
    block = max(1, NETWORK_BLOCK_PIXELS // width)
    for start in range(0, len(flat), block):
        part = flat[start:start + block]
        lo = int(part.min())
        row_bins = np.arange(len(part)) * (int(part.max()) - lo + 1)  # first bin of each row
        counts = np.bincount((part + (row_bins - lo)[:, None]).ravel()).cumsum()
        ahead = np.arange(len(part)) * width  # values in the block's rows above
        middle = np.searchsorted(counts, ahead + (width - 1) // 2, side="right")
        middle += np.searchsorted(counts, ahead + width // 2, side="right")
        twice[start:start + block] = middle - 2 * (row_bins - lo)
    return twice.reshape(channels, rows)


def lowpass_offset_suppress(frame: Frame, kernel_rows: int) -> Frame:
    """Remove row-rate offsets using only the image itself.

    Each column is low-passed vertically with a running median of
    kernel_rows (edge values replicated), which tracks scene structure
    but steps over disturbances narrower than half the kernel. The
    median over each row of the high-pass residue is that row's offset
    estimate; subtracting it flattens the banding while leaving
    vertical ramps and uniform regions untouched.

    Up to NETWORK_MAX_KERNEL rows the running median is a comparator
    network (median_network) over the kernel_rows row-shifted uint8
    views, whose cost grows with the comparators, about k log^2 k per
    pixel. Above it SciPy's 1-D rank filter runs down the columns, whose
    cost grows with log k, so a large kernel costs little more than one
    at the crossover. Both give the same bits. The residue is exact in
    int16, and each row's median is read off counts of its values
    (_twice_row_medians) as twice the median, an integer, so the offset
    is subtracted and rounded half up with no float step.
    """
    if kernel_rows < 3 or kernel_rows % 2 == 0:
        raise ValueError(f"kernel_rows must be odd and >= 3, got {kernel_rows}")
    if kernel_rows > frame.rows:
        raise ValueError(
            f"kernel_rows {kernel_rows} exceeds frame rows {frame.rows}"
        )
    pad = kernel_rows // 2
    if kernel_rows <= NETWORK_MAX_KERNEL:
        lowpass = _network_median(frame.pixels, kernel_rows)
    else:  # the padded columns laid end to end, so no window crosses into the next
        columns = np.pad(frame.pixels.transpose(0, 2, 1), ((0, 0), (0, 0), (pad, pad)), mode="edge")
        lowpass = median_filter(columns.ravel(), size=kernel_rows, mode="nearest")
        lowpass = lowpass.reshape(columns.shape)[:, :, pad:-pad].transpose(0, 2, 1)
    pixels = frame.pixels.astype(np.int16)
    # floor(p - m + 0.5) == p - floor(m) for a median m that is a multiple of 0.5.
    pixels -= (_twice_row_medians(pixels - lowpass) >> 1)[:, :, None]
    return Frame(pixels=np.clip(pixels, 0, MAX_DN).astype(np.uint8))


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
