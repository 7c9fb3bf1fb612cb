"""Simulated sweeps against the row noise expected in closed form
(oracle.oracle_expected_row_noise): a check of the physics, rounding and
clipping included, that holds whatever bits the random streams give."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracle import oracle_expected_row_noise

from rownoise import sweep
from rownoise.sensor import (
    PhaseMode,
    SensorConfig,
    SimScenario,
    SupplyNoiseConfig,
    TemporalNoiseConfig,
)
from rownoise.sweep import SimulateSource, SweepConfig, run_sweep

# A point may lie at most K standard errors from its expected row noise.
# Over seeds 0-59 of the TINY sweeps below (6,840 points: both phase
# modes, pedestals 128, 2 and 0) the z-scores had a standard deviation
# of 0.97 to 1.02 and a largest |z| of 3.53, as normal scores should, so
# a stream that draws other bits fails one point in about two million.
# With shot noise in place of reset noise (6,840 more points, same seeds,
# modes and pedestals) they had 0.97 to 1.00 and 3.71.
K = 5.0

VGA = SensorConfig(width=640, active_rows=480, blanking_rows=320, pedestal_dn=128.0)
# Reset noise on 50 aF is 0.70 DN, beside 1.5 DN of read noise.
TINY_RESET = TemporalNoiseConfig(read_noise_dn=1.5, reset_enabled=True, reset_cap_f=5e-17)
# Shot noise of a 4 e- dark signal, 2 DN rms at 1 DN per electron, beside
# 1.5 DN of read noise: the low-light case.
TINY_SHOT = TemporalNoiseConfig(read_noise_dn=1.5, shot_enabled=True, dark_signal_e=4.0)


def z_scores(config: SweepConfig) -> np.ndarray:
    """(row noise - expected) / standard error at each point of a sweep."""
    base = config.source.scenario
    z = []
    for index, (freq, measured) in enumerate(run_sweep(config)):
        point = replace(
            base,
            supply=replace(base.supply, frequency_hz=freq, amplitude_vpp=config.amplitude_vpp),
            seed=sweep._step_seed(config.seed, index),
        )
        expected, error = oracle_expected_row_noise(point, config.frames_per_step)
        z.append((measured - expected) / error)
    return np.array(z)


def tiny_sweep(phase_mode, pedestal, seed, channels=3, temporal=TINY_RESET) -> SweepConfig:
    """500 Hz to 9.5 kHz at 0.05 Vpp (1.9 DN peak) on a 64x64 sensor with a
    3 kHz line rate, two frames a point."""
    sensor = SensorConfig(width=64, active_rows=64, blanking_rows=36, channels=channels,
                          pedestal_dn=pedestal)
    supply = SupplyNoiseConfig(phase_rad=0.3, rc_cutoff_hz=20_000.0, phase_mode=phase_mode)
    scenario = SimScenario(sensor=sensor, supply=supply, temporal=temporal)
    return SweepConfig(start_hz=500.0, end_hz=9500.0, step_hz=500.0, amplitude_vpp=0.05,
                       frames_per_step=2, seed=seed, source=SimulateSource(scenario=scenario))


def assert_within_k(z: np.ndarray) -> None:
    assert np.abs(z).max() < K
    # The points are independent, so their mean z has standard error
    # 1 / sqrt(n): a bias that every point shares shows here.
    assert abs(z.mean()) < K / math.sqrt(z.size)


def test_criterion_11_sweep():
    scenario = SimScenario(sensor=VGA, temporal=TemporalNoiseConfig(read_noise_dn=2.0))
    config = SweepConfig(source=SimulateSource(scenario=scenario), start_hz=50.0,
                         end_hz=100_000.0, step_hz=1000.0, amplitude_vpp=1.0,
                         frames_per_step=3, seed=12345)
    assert_within_k(z_scores(config))


@pytest.mark.parametrize("phase_mode", list(PhaseMode))
@pytest.mark.parametrize("pedestal", [128.0, 2.0])  # 2 DN: the 0 clamp takes part
def test_three_channel_sweep_with_reset_noise(phase_mode, pedestal):
    assert_within_k(z_scores(tiny_sweep(phase_mode, pedestal, seed=7)))


@pytest.mark.parametrize("phase_mode", list(PhaseMode))
@pytest.mark.parametrize("pedestal", [128.0, 2.0])
def test_three_channel_sweep_with_shot_noise(phase_mode, pedestal):
    assert_within_k(z_scores(tiny_sweep(phase_mode, pedestal, seed=7, temporal=TINY_SHOT)))


def test_standard_error_is_the_spread_over_seeds():
    # Pooled over 50 seeds the z-scores must spread as normal scores do
    # (the standard deviation of 950 of them has a standard error of
    # 0.023), so K counts true standard errors.
    z = np.concatenate([
        z_scores(tiny_sweep(PhaseMode.RANDOM_PER_FRAME, 2.0, seed, channels=1))
        for seed in range(50)
    ])
    assert 0.85 < z.std(ddof=1) < 1.15
    assert_within_k(z)


def test_shot_noise_standard_error_is_the_spread_over_seeds():
    z = np.concatenate([
        z_scores(tiny_sweep(PhaseMode.RANDOM_PER_FRAME, 2.0, seed, channels=1,
                            temporal=TINY_SHOT))
        for seed in range(50)
    ])
    assert 0.85 < z.std(ddof=1) < 1.15
    assert_within_k(z)
