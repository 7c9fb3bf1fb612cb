"""Row noise measurement.

The metric collapses each row to its mean, takes the sample standard
deviation (N-1 divisor) of those row means per channel, averages the
channel values with equal weight, and finally averages over the frames
of a stack. Averaging over frames rejects temporal noise; a genuinely
row-correlated disturbance survives because it shifts whole rows
coherently while per-pixel noise shrinks as 1/sqrt(width).

band_height_measure recovers the spatial period of a periodic row
disturbance from the spectrum of the row-mean sequence. It is the
measurement-side counterpart of the alias prediction in
physics.alias_and_band_height and stays deliberately independent of it
so the two can check each other.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .physics import UNIFORM
from .sensor import MAX_DN, Frame

__all__ = [
    "RowNoiseResult",
    "EPS_BAND_DN",
    "row_means",
    "row_noise_single",
    "row_noise",
    "band_height_measure",
]

# Spectral amplitude (DN) below which a profile counts as uniform.
EPS_BAND_DN = 1e-6


@dataclass(frozen=True)
class RowNoiseResult:
    per_frame: list[float]
    average: float


def row_means(frame: Frame) -> np.ndarray:
    """Per-channel row means, shape (channels, rows)."""
    # Exact integer sums in the narrowest type for MAX_DN * width: the float64 mean, bit for bit.
    return frame.pixels.sum(axis=2, dtype=np.min_scalar_type(MAX_DN * frame.width)) / frame.width


def _frame_noise(means: np.ndarray) -> float:
    """row_noise_single from the frame's row_means, calling no function that
    bench/spans.py traces, so a sweep point may run it on a helper thread."""
    if means.shape[1] < 2:
        raise ValueError(f"need at least 2 rows, got {means.shape[1]}")
    return float(np.std(means, axis=1, ddof=1).mean())


def _stack_noise(per_frame: list[float]) -> RowNoiseResult:
    """row_noise from each frame's _frame_noise."""
    if not per_frame:
        raise ValueError("stack needs at least one frame")
    return RowNoiseResult(per_frame=per_frame, average=sum(per_frame) / len(per_frame))


def row_noise_single(frame: Frame) -> float:
    """Row noise of one frame in DN."""
    return _frame_noise(row_means(frame))


def row_noise(frames: Iterable[Frame]) -> RowNoiseResult:
    """Stack row noise: per-frame values and their average. Each frame is
    measured on its own as the iterable gives it, so the frames need not
    share a geometry and a lazy source such as imageio.read_stack is never
    held whole."""
    return _stack_noise([row_noise_single(f) for f in frames])


def band_height_measure(means: np.ndarray) -> float:
    """Band height in rows of the dominant periodic row disturbance.

    Works on the channel-averaged, mean-removed sequence of the
    (channels, rows) row means. The strongest Fourier bin k gives a
    period of rows/k and a band (half a period) of rows/(2k). Returns
    UNIFORM when no bin reaches EPS_BAND_DN of amplitude, i.e. the
    profile is flat.
    """
    rows = means.shape[1]
    if rows < 8:
        raise ValueError(f"need at least 8 rows for a spectrum, got {rows}")
    seq = means.mean(axis=0)
    seq = seq - seq.mean()
    spectrum = np.fft.rfft(seq)
    # Amplitude per bin; bin 0 is the removed mean.
    amplitude = 2.0 * np.abs(spectrum) / rows
    amplitude[0] = 0.0
    k = int(np.argmax(amplitude))
    if amplitude[k] < EPS_BAND_DN:
        return UNIFORM
    return rows / (2.0 * k)
