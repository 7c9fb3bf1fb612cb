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
from numpy.lib.stride_tricks import sliding_window_view

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
_SEARCH_CHUNK = 1 << 12  # about how many candidates the tune search folds at once
MAX_KERNEL_ROWS = 4095  # tallest lowpass kernel: any odd one a 4096-row frame takes
# Pixels per row-block view the network works on, so its views stay in cache.
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

    Re-quantizing p - o rounds half up to floor(p - o + 0.5), which is
    p - ceil(o - 0.5) for an integer p, so a row is an integer shift
    (_shift_rows) with no float frame. In float64, with |o| <= MAX_DN,
    p - o and the 0.5 added to it each round by at most 2**-45, half an
    ulp below 512, and o - 0.5 rounds by less. So the float formula and
    the shift both give the exact value when o is more than 2**-44 from
    a half-integer, and when o is a half-integer every step is exact.
    Only a row with 0 < |o mod 1 - 0.5| < 2**-40 takes the float formula
    itself; that distance is taken exactly, from |o| mod 1.
    """
    if m_dark_cols < 1:
        raise ValueError(f"m_dark_cols must be >= 1, got {m_dark_cols}")
    if not 0 <= pedestal_dn <= MAX_DN:
        raise ValueError(f"pedestal_dn must be in [0, {MAX_DN}], got {pedestal_dn}")
    if m_dark_cols > frame.width:
        raise ValueError(f"m_dark_cols {m_dark_cols} exceeds frame width {frame.width}")
    offsets = frame.pixels[:, :, :m_dark_cols].astype(np.float64).mean(axis=2) - pedestal_dn
    pixels = _shift_rows(frame.pixels, np.ceil(offsets - 0.5))
    near_half = np.abs(np.abs(offsets) % 1 - 0.5)
    fork = (near_half > 0) & (near_half < 2**-40)
    if fork.any():
        pixels[fork] = quantize_dn(frame.pixels[fork] - offsets[fork][:, None])
    return Frame(pixels=pixels)


def _shift_rows(pixels: np.ndarray, row_offsets: np.ndarray) -> np.ndarray:
    """clip(p - o, 0, MAX_DN) for each uint8 pixel p of a (channels, rows,
    width) array and the integer offset o in [-MAX_DN, MAX_DN] of its row,
    (channels, rows), in uint8: p clamped to [max(0, o), min(MAX_DN,
    MAX_DN + o)], less o modulo 256.
    """
    o = row_offsets.astype(np.int16)[:, :, None]
    out = np.maximum(pixels, np.maximum(o, 0).astype(np.uint8))
    np.minimum(out, np.minimum(MAX_DN + o, MAX_DN).astype(np.uint8), out=out)
    return np.subtract(out, o.astype(np.uint8), out=out)


def _merge_exchange(n: int) -> list[tuple[int, int]]:
    """Batcher's merge exchange network for n inputs (Knuth, TAOCP vol. 3,
    5.2.2 Algorithm M): comparators (i, j), i < j, that sort when each
    puts the smaller value at i, in the order they run."""
    pairs: list[tuple[int, int]] = []
    t = (n - 1).bit_length()
    p = (1 << t) >> 1  # 0 for one input: no comparators
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
def selection_network(n: int, lo: int, hi: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The merge exchange network for n inputs pruned to outputs lo..hi.

    Each step (i, j, keep_min, keep_max) sets input i to min(i, j) when
    keep_min and input j to max(i, j) when keep_max; a comparator whose
    outputs none of lo..hi depends on is dropped, and so is each half of
    one whose other output alone is needed. After the steps, inputs
    lo..hi hold the lo-th to hi-th smallest values, in order.
    """
    needed = set(range(lo, hi + 1))
    steps = []
    for i, j in reversed(_merge_exchange(n)):
        keep_min, keep_max = i in needed, j in needed
        if keep_min or keep_max:
            steps.append((i, j, keep_min, keep_max))
            needed |= {i, j}
    return tuple(reversed(steps))


def _select(rows: list[np.ndarray], lo: int, hi: int) -> list[np.ndarray]:
    """The lo-th to hi-th smallest of rows, elementwise, selected in place."""
    spare = np.empty_like(rows[0])
    for i, j, keep_min, keep_max in selection_network(len(rows), lo, hi):
        a, b = rows[i], rows[j]
        if keep_min and keep_max:
            np.minimum(a, b, out=spare)
            np.maximum(a, b, out=b)
            rows[i], spare = spare, a
        elif keep_min:
            np.minimum(a, b, out=a)
        else:
            np.maximum(a, b, out=b)
    return rows[lo:hi + 1]


def _network_median(pixels: np.ndarray, k: int) -> np.ndarray:
    """Running median of k rows down each column, edge rows repeated.

    Output rows go in blocks of b = isqrt(k), whose windows share a core
    of k - e rows, e = b - 1. With h = k // 2, the core's h - e smallest
    and h - e largest values lie below and above each of those windows'
    medians, so a window's median is that of the core's order statistics
    h - e .. h, selected once per block, and the window's own e rows. Each
    comparator is one np.minimum or np.maximum over uint8 views of every
    block and channel at once, in passes of whole blocks whose views hold
    at most NETWORK_BLOCK_PIXELS pixels each and 512 times that together.
    """
    channels, rows, width = pixels.shape
    block = math.isqrt(k)
    e, h = block - 1, k // 2
    blocks = -(-rows // block)
    padded = np.pad(pixels, ((0, 0), (h, h + blocks * block - rows), (0, 0)), mode="edge")
    # windows[c, n, :, t] is row t of the k + e rows block n's windows cover.
    windows = sliding_window_view(padded, k + e, axis=1)[:, ::block]
    lowpass = np.empty((channels, blocks, block, width), dtype=np.uint8)
    view = min(NETWORK_BLOCK_PIXELS, (NETWORK_BLOCK_PIXELS << 9) // (k - e))
    passes = max(1, -(-blocks * channels * width // view))  # 1 for a frame of no channels
    per_pass = -(-blocks // passes)
    for start in range(0, blocks, per_pass):
        part = windows[:, start:start + per_pass]
        middle = _select([part[..., t].copy() for t in range(e, k)], h - e, h)
        for t in range(block):
            own = [part[..., u].copy() for u in (*range(t, e), *range(k, k + t))]
            window = [m.copy() for m in middle] + own
            lowpass[:, start:start + per_pass, t] = _select(window, e, e)[0]
    return lowpass.reshape(channels, blocks * block, width)[:, :rows]


def _twice_row_medians(residue: np.ndarray) -> np.ndarray:
    """Twice the median of each row of an int16 (channels, rows, width)
    array, exact, as int16 (channels, rows): the sum of the row's two
    middle values, which are one value when the width is odd. Sorts the
    rows of residue in place.
    """
    width = residue.shape[-1]
    residue.sort(axis=-1)
    return residue[..., (width - 1) // 2] + residue[..., width // 2]


def lowpass_offset_suppress(frame: Frame, kernel_rows: int) -> Frame:
    """Remove row-rate offsets using only the image itself.

    Each column is low-passed vertically with a running median of
    kernel_rows (edge values replicated), which tracks scene structure
    but steps over disturbances narrower than half the kernel. The
    median over each row of the high-pass residue is that row's offset
    estimate; subtracting it flattens the banding while leaving
    vertical ramps and uniform regions untouched.

    The running median is one comparator network route for every kernel
    (_network_median), whose cost grows about as sqrt(k) log^2 k per
    pixel; kernels above MAX_KERNEL_ROWS are rejected before any network
    is built. The residue is exact in int16, and each row's median comes
    from the row sorted in place (_twice_row_medians) as twice the
    median, an integer, so the offset is subtracted and rounded half up
    in uint8 (_shift_rows) with no float step.
    """
    if kernel_rows < 3 or kernel_rows % 2 == 0:
        raise ValueError(f"kernel_rows must be odd and >= 3, got {kernel_rows}")
    if kernel_rows > MAX_KERNEL_ROWS:
        raise ValueError(f"kernel_rows {kernel_rows} is above the cap of {MAX_KERNEL_ROWS}")
    if kernel_rows > frame.rows:
        raise ValueError(
            f"kernel_rows {kernel_rows} exceeds frame rows {frame.rows}"
        )
    lowpass = _network_median(frame.pixels, kernel_rows)
    residue = np.subtract(frame.pixels, lowpass, dtype=np.int16)
    # floor(p - m + 0.5) == p - floor(m) for a median m that is a multiple of 0.5.
    return Frame(pixels=_shift_rows(frame.pixels, _twice_row_medians(residue) >> 1))


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

    fps_grid = physics._grid_points(fps_lo, fps_hi, TUNE_FPS_STEP)
    n_candidates = len(fps_grid) * n_lengths
    if n_candidates > MAX_TUNE_CANDIDATES:
        raise ValueError(
            f"{len(fps_grid)} fps points x {n_lengths} frame lengths are {n_candidates} "
            f"tune candidates, more than the cap of {MAX_TUNE_CANDIDATES}"
        )
    maximize = TuningMode(mode) is TuningMode.MAX_SEPARATION
    fps, frame_length = _search(f_noise_hz, fps_grid, range(fl_lo, fl_hi + 1), maximize)
    f_line = physics.line_frequency(fps, frame_length)
    band = physics.alias_and_band_height(f_noise_hz, f_line)
    return TuningRecommendation(
        recommended_fps=fps,
        recommended_frame_length_rows=frame_length,
        resulting_alias_hz=band.alias_hz,
        predicted_band_height_rows=band.band_height_rows,
    )


def _search(f: float, fps_grid: np.ndarray, lengths: range, maximize: bool) -> tuple[float, int]:
    """The (fps, frame length) of the grid with the largest alias when
    maximize, else the smallest, ties to the lower fps, then the lower
    frame length: the exhaustive search's answer.

    At a fixed length L the fold of f against fps * L is linear between
    the breakpoints 2f/j, a peak f/j at odd j and a zero at even j, and
    weakly monotone there in float too (fmod is exact, line - r rounds
    monotonically). So only the grid points within two places of a peak
    (a zero, for the smallest) and the grid ends are folded, skipping
    peaks below the best alias so far, in chunks of about _SEARCH_CHUNK
    candidates. Such a candidate costs about four whole-grid folds, so a
    chunk whose first length has over n/4 of them folds its whole grid.
    """
    fps_grid = fps_grid[np.diff(fps_grid, prepend=-math.inf) > 0]  # equal fps, equal candidates
    n, lo, hi = len(fps_grid), float(fps_grid[0]), float(fps_grid[-1])
    rows = np.array(lengths, dtype=np.float64)  # each length as numpy rounds it, past 2**63 too
    sign, parity = (-1.0, 1) if maximize else (1.0, 2)  # parity: the mode's lowest j
    best, start = (math.inf, math.inf, 0), 0  # (sign * alias, fps, place in lengths)
    while start < len(rows):
        # The largest j of a peak that can still win, and of the chunk: inf or nan when huge.
        cap = f / -best[0] * (1 + 1e-9) + 1 if best[0] < 0 else math.inf
        top = min(2 * f / (lo * float(rows[start])), cap)
        if not (top < 2.0**52 and 4 * (2 * (top - 2 * f / (hi * float(rows[start]))) + 10) < n):
            chunk = np.arange(start, min(len(rows), start + max(1, _SEARCH_CHUNK // n)))
            index, place = np.tile(np.arange(n), len(chunk)), np.repeat(chunk, n)
        else:
            chunk = np.arange(start, min(len(rows), start + _SEARCH_CHUNK))
            first = np.maximum(parity, np.floor(2 * f / (hi * rows[chunk])))
            first -= (first - parity) % 2
            last = np.minimum(np.ceil(2 * f / (lo * rows[chunk])), cap)
            count = np.maximum(0, (last - first) // 2 + 1).astype(np.int64)
            take = max(1, int(np.searchsorted(np.cumsum(4 * count + 2), _SEARCH_CHUNK, "right")))
            chunk, first, count = chunk[:take], first[:take], count[:take]
            place = np.repeat(chunk, count)
            j = np.repeat(first - 2 * (np.cumsum(count) - count), count)
            j += 2 * np.arange(len(j))
            near = np.searchsorted(fps_grid, 2 * f / j / rows[place])[:, None] + np.arange(-2, 2)
            index = np.concatenate([near.ravel(), 0 * chunk, 0 * chunk + n - 1]).clip(0, n - 1)
            place = np.concatenate([np.repeat(place, 4), chunk, chunk])
        fps = fps_grid[index]
        score = sign * physics.fold_frequency(f, fps * rows[place])
        tied = np.flatnonzero(score == score.min())
        tied = tied[fps[tied] == fps[tied].min()]
        best = min(best, (float(score[tied[0]]), float(fps[tied[0]]), int(place[tied].min())))
        start = int(chunk[-1]) + 1
    return best[1], lengths[best[2]]


def predict_filter_effect(freq_hz: float, cutoff_hz: float) -> float:
    """Amplitude ratio through a first-order RC low-pass at freq_hz."""
    if not freq_hz > 0:
        raise ValueError(f"freq_hz must be positive, got {freq_hz}")
    if not cutoff_hz > 0:
        raise ValueError(f"cutoff_hz must be positive, got {cutoff_hz}")
    return rc_attenuation(freq_hz, cutoff_hz)[0]
