"""Slow, plain references that the fast paths are checked against.

oracle_row_noise is brute-force row noise: plain nested loops, free of
numpy and of any helper shared with rownoise.metric, so a fault in the
vectorized path cannot hide in both. oracle_simulate_frame_analog draws
each noise substream whole and adds the terms one at a time.
oracle_max_separation and oracle_sync fold every candidate of the tune
grid, where rownoise.mitigation folds only those near a fold breakpoint.
oracle_dark_reference_correct and oracle_lowpass_tail shift each row in
float64 and quantize, where rownoise.mitigation shifts uint8 rows by an
integer. oracle_expected_row_noise is the physics in closed form: the
row noise a dark stack should measure and its standard error, from the
normal CDF and Poisson weights, with no frame simulated.
"""

import math

import numpy as np

from rownoise import physics
from rownoise.mitigation import TUNE_FPS_STEP
from rownoise.sensor import PhaseMode, generate_fpn_maps, quantize_dn, row_supply_offsets_dn


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


def _row_levels(scenario, frame_index):
    """Pedestal plus supply offset of each readout row of one frame, by the
    model in the rownoise.sensor docstring."""
    sensor, supply = scenario.sensor, scenario.supply
    t = np.arange(sensor.readout_rows) / (sensor.fps * sensor.frame_length_rows)
    phase = supply.phase_rad
    if supply.phase_mode is PhaseMode.RANDOM_PER_FRAME:
        ss = np.random.SeedSequence(scenario.seed, spawn_key=(frame_index, 1))
        phase += np.random.Generator(np.random.Philox(ss)).uniform(0.0, 2.0 * math.pi)
    else:
        t = t + frame_index / sensor.fps
    gain = 1.0
    if supply.rc_cutoff_hz is not None and supply.frequency_hz != 0:
        ratio = supply.frequency_hz / supply.rc_cutoff_hz
        gain, phase = 1.0 / math.hypot(1.0, ratio), phase - math.atan(ratio)
    arg = 2.0 * math.pi * supply.frequency_hz * t + phase
    volts = 0.5 * supply.amplitude_vpp * gain * np.sin(arg)
    return sensor.pedestal_dn + supply.coupling_gain * sensor.dn_per_volt * volts


def _quantized_moments(levels, sigma, dark_e=0.0):
    """Mean and variance of clip(floor(c + shot + noise + 0.5), 0, 255) at
    each level c, shot Poisson with mean dark_e and noise normal with
    deviation sigma. The value counts the boundaries k - 0.5 (k = 1..255)
    that c + shot + noise reaches, so its mean is sum P_k and its second
    moment sum (2k - 1) P_k, P_k the tail probability of boundary k: the
    Poisson(dark_e)-weighted sum of the normal tails of k - j - 0.5 about
    c, j = 0, 1, ... Boundaries more than 8 sigma below c have P_k 1 to
    double precision, and shot counts past dark_e + 12 sqrt(dark_e) + 12
    weigh nothing."""
    span = math.ceil(8.0 * sigma)
    shots = np.arange(math.ceil(dark_e + 12.0 * math.sqrt(dark_e) + 12.0) if dark_e else 1)
    weight = np.exp([j * math.log(dark_e) - dark_e - math.lgamma(j + 1.0) if dark_e else 0.0
                     for j in shots])
    # Normal tails at boundary offsets -span - max(shots) .. span + max(shots) + 1.
    offsets = np.arange(-span - shots[-1], span + shots[-1] + 2)
    b = np.floor(levels)[:, None] + offsets
    z = ((b - 0.5 - levels[:, None]) / (sigma * math.sqrt(2.0))).ravel().tolist()
    normal = 0.5 * np.fromiter(map(math.erfc, z), float, len(z)).reshape(b.shape)
    # The mixture's tails at offsets -span .. span + max(shots) + 1.
    width = 2 * span + shots[-1] + 2
    tail = sum(p * normal[:, shots[-1] - j:shots[-1] - j + width] for j, p in zip(shots, weight))
    k = b[:, shots[-1]:shots[-1] + width]
    tail[(k < 1) | (k > 255)] = 0.0
    below = np.clip(k[:, 0] - 1, 0, 255)  # boundaries under the window: P_k = 1
    mean = below + tail.sum(axis=1)
    return mean, below**2 + ((2.0 * k - 1.0) * tail).sum(axis=1) - mean**2


def oracle_expected_row_noise(scenario, n_frames):
    """(expected row noise, standard error) of scenario's n_frames stack,
    in closed form, for a dark capture whose temporal noise is read and
    reset noise (Gaussian, sigma their hypot) and dark-signal shot noise
    (Poisson, 1 DN per electron). Flicker, DSNU, column FPN or no read or
    reset noise raise ValueError.

    Row r of a frame sits at c_r = pedestal + supply offset, and its
    pixels have mean m_r and variance v_r (_quantized_moments). The R row
    means of W pixels each are independent, with variances w_r = v_r / W,
    so with d_r = m_r - mean(m) a channel's sample variance s^2 has

        E[s^2]   = sum d_r^2 / (R - 1) + mean(v_r) / W
        Var[s^2] = (2 tr(CDCD) + 4 sum d_r^2 w_r) / (R - 1)^2

    where C is the centring matrix and D = diag(w), taking the row means
    as normal: tr(CDCD) = (1 - 2/R) sum w^2 + (sum w)^2 / R^2. A channel's
    s is taken to second order about sqrt(E[s^2]), which gives its mean
    (less the Jensen gap) and variance; the channels and frames of the
    stack are independent, and row noise averages them."""
    sensor, temporal, spatial = scenario.sensor, scenario.temporal, scenario.spatial
    if (temporal.flicker_enabled and temporal.flicker_scale_dn > 0
            ) or spatial.dsnu_dn or spatial.column_fpn_dn:
        raise ValueError("only read, reset and shot noise have a closed form here")
    dark_e = temporal.dark_signal_e if temporal.shot_enabled else 0.0
    reset = 0.0
    if temporal.reset_enabled and not temporal.cds_enabled:
        reset = physics.reset_noise_v(temporal.reset_temp_k, temporal.reset_cap_f)
        reset *= sensor.dn_per_volt
    sigma = math.hypot(temporal.read_noise_dn, reset)
    if sigma == 0:
        raise ValueError("the standard error needs read or reset noise")
    rows, width = sensor.readout_rows, sensor.width
    levels = np.stack([_row_levels(scenario, f) for f in range(n_frames)])
    m, v = _quantized_moments(levels.ravel(), sigma, dark_e)
    m, w = m.reshape(levels.shape), v.reshape(levels.shape) / width
    d2 = (m - m.mean(axis=1, keepdims=True)) ** 2
    mu = d2.sum(axis=1) / (rows - 1) + w.mean(axis=1)
    trace = (1.0 - 2.0 / rows) * (w**2).sum(axis=1) + w.sum(axis=1) ** 2 / rows**2
    tau2 = (2.0 * trace + 4.0 * (d2 * w).sum(axis=1)) / (rows - 1) ** 2
    mean_s = np.sqrt(mu) - tau2 / (8.0 * mu**1.5)
    var_s = tau2 / (4.0 * mu)
    return float(mean_s.mean()), math.sqrt(var_s.sum() / sensor.channels) / n_frames
