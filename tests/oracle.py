"""Slow, plain references that the fast paths are checked against.

oracle_row_noise is brute-force row noise: plain nested loops, free of
numpy and of any helper shared with rownoise.metric, so a fault in the
vectorized path cannot hide in both. oracle_simulate_frame_analog draws
each noise substream whole and adds the terms one at a time.
oracle_max_separation and oracle_sync fold every candidate of the tune
grid, where rownoise.mitigation folds only those near a fold breakpoint.
oracle_dark_reference_correct and oracle_lowpass_tail shift each row in
float64 and quantize, where rownoise.mitigation shifts uint8 rows by an
integer.
"""

import math

import numpy as np

from rownoise import physics
from rownoise.mitigation import TUNE_FPS_STEP
from rownoise.sensor import generate_fpn_maps, quantize_dn, row_supply_offsets_dn


def oracle_row_noise(frame) -> float:
    """Same quantity as rownoise.metric.row_noise_single."""
    if frame.rows < 2:
        raise ValueError(f"need at least 2 rows, got {frame.rows}")
    channel_sigmas = []
    for c in range(frame.channels):
        means = []
        for r in range(frame.rows):
            total = 0.0
            for x in range(frame.width):
                total += float(frame.pixels[c][r][x])
            means.append(total / frame.width)
        grand = sum(means) / len(means)
        ss = 0.0
        for m in means:
            ss += (m - grand) ** 2
        channel_sigmas.append(math.sqrt(ss / (len(means) - 1)))
    return sum(channel_sigmas) / len(channel_sigmas)


def oracle_simulate_frame_analog(scenario, frame_index):
    """Same values as rownoise.sensor.simulate_frame_analog, on one
    thread: every substream drawn whole, and the terms added one at a
    time in the contract's summation order."""

    def stream(tag):
        ss = np.random.SeedSequence(scenario.seed, spawn_key=(frame_index, tag))
        return np.random.Generator(np.random.Philox(ss))

    def pink(n, rng):
        total = np.zeros(n)
        for k in range(16):
            step = 1 << k
            total += np.repeat(rng.standard_normal((n + step - 1) // step), step)[:n]
        return total / math.sqrt(16)

    sensor, temporal = scenario.sensor, scenario.temporal
    fpn = generate_fpn_maps(scenario.seed, sensor, scenario.spatial)
    shape = (sensor.channels, sensor.readout_rows, sensor.width)
    analog = np.empty(shape)
    analog[...] = (sensor.pedestal_dn + row_supply_offsets_dn(scenario, frame_index))[:, None]
    if temporal.shot_enabled and temporal.dark_signal_e > 0:
        analog += stream(2).poisson(temporal.dark_signal_e, shape)
    if temporal.read_noise_dn > 0:
        analog += stream(3).standard_normal(shape) * temporal.read_noise_dn
    if temporal.reset_enabled and not temporal.cds_enabled:
        sigma = physics.reset_noise_v(temporal.reset_temp_k, temporal.reset_cap_f)
        analog += stream(4).standard_normal(shape) * (sigma * sensor.dn_per_volt)
    if temporal.flicker_enabled and temporal.flicker_scale_dn > 0:
        series = pink(analog.size, stream(5)) * temporal.flicker_scale_dn
        analog += series.reshape(shape)
    if fpn.pixel_offset_dn is not None:
        analog += fpn.pixel_offset_dn
    if fpn.column_offset_dn is not None:
        analog += fpn.column_offset_dn[:, None, :]
    return analog


def _oracle_tune(f_noise_hz, fps_range, frame_length_range, sign):
    """The (fps, frame length) of the tune grid whose sign * alias is
    smallest, ties to the lower fps, then the lower frame length."""
    fps_grid = np.array(physics.frequency_grid(*fps_range, TUNE_FPS_STEP))
    best = None
    for frame_length in range(frame_length_range[0], frame_length_range[1] + 1):
        score = sign * physics.fold_frequency(f_noise_hz, fps_grid * frame_length)
        idx = int(np.argmin(score))
        candidate = (float(score[idx]), float(fps_grid[idx]), frame_length)
        best = candidate if best is None else min(best, candidate)
    return best[1], best[2]


def oracle_max_separation(f_noise_hz, fps_range, frame_length_range):
    """(fps, frame length) that rownoise.mitigation.recommend_tuning picks
    in MAX_SEPARATION mode, by folding every grid candidate: the largest
    alias, ties to the lower fps, then the lower frame length."""
    return _oracle_tune(f_noise_hz, fps_range, frame_length_range, -1.0)


def oracle_sync(f_noise_hz, fps_range, frame_length_range):
    """(fps, frame length) that rownoise.mitigation.recommend_tuning picks
    in SYNC mode, by folding every grid candidate: the smallest alias,
    ties to the lower fps, then the lower frame length."""
    return _oracle_tune(f_noise_hz, fps_range, frame_length_range, 1.0)


def oracle_dark_reference_correct(pixels, m_dark_cols, pedestal_dn):
    """Same pixels as rownoise.mitigation.dark_reference_correct: each
    row's float64 dark mean less the pedestal, subtracted from the row in
    float64, then quantized."""
    offsets = pixels[:, :, :m_dark_cols].astype(np.float64).mean(axis=2) - pedestal_dn
    return quantize_dn(pixels - offsets[:, :, None])


def oracle_lowpass_tail(pixels, lowpass):
    """Same pixels as rownoise.mitigation.lowpass_offset_suppress given the
    running median lowpass: the float median of each row of the residue,
    subtracted from the row in float64, then quantized."""
    as_float = pixels.astype(np.float64)
    offsets = np.median(as_float - lowpass, axis=2)
    return quantize_dn(as_float - offsets[:, :, None])
