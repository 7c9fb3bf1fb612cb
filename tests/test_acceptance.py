"""Release checklist. Each test exercises one acceptance criterion end to
end and prints a single [PASS]/[FAIL] line; run with
`pytest -s tests/test_acceptance.py` to see the lines for passing
criteria too."""

import dataclasses
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy import signal

from oracle import oracle_row_noise

from rownoise.metric import (
    band_height_measure,
    row_means,
    row_noise,
    row_noise_single,
)
from rownoise.mitigation import dark_reference_correct, lowpass_offset_suppress
from rownoise.physics import alias_and_band_height
from rownoise.sensor import (
    Frame,
    SensorConfig,
    SimScenario,
    SupplyNoiseConfig,
    TemporalNoiseConfig,
    pink_noise,
    quantize_dn,
    simulate_stack,
)
from rownoise.sweep import (
    Absolute,
    SimulateSource,
    SweepConfig,
    SweepResult,
    analyze_report,
    read_csv,
    run_sweep,
    write_csv,
)

# 480 active + 320 blanking rows at 30 fps: line rate 24 kHz. The high
# pedestal keeps full-amplitude banding away from both clamp rails.
VGA = SensorConfig(width=640, active_rows=480, blanking_rows=320, pedestal_dn=128.0)
F_LINE = VGA.line_frequency_hz
DN_PER_VOLT = VGA.dn_per_volt
# 64x64 active area with the same 30 fps timing, line rate 3 kHz.
TINY = SensorConfig(width=64, active_rows=64, blanking_rows=36, pedestal_dn=128.0)


def banded(freq_hz, amp=1.0, phase=0.0, sensor=VGA, seed=0, rc=None, temporal=None):
    return SimScenario(
        sensor=sensor,
        supply=SupplyNoiseConfig(
            frequency_hz=freq_hz, amplitude_vpp=amp, phase_rad=phase, rc_cutoff_hz=rc
        ),
        temporal=temporal or TemporalNoiseConfig(),
        seed=seed,
    )


def average_row_noise(scenario, n_frames):
    return row_noise(simulate_stack(scenario, n_frames)).average


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {summary}")
        raise
    print(f"[PASS] criterion {num}: {summary}")


def test_criterion_01_harmonic_lock_null():
    t0 = time.monotonic()
    with criterion(1, "noise at line-rate harmonics leaves no row noise"):
        for k in (1, 2, 5):
            value = average_row_noise(banded(k * F_LINE), 3)
            assert value <= 0.51, f"k={k}: row noise {value}"
        assert time.monotonic() - t0 < 5.0


def test_criterion_02_midpoint_single_row_bands():
    with criterion(2, "noise at 1.5x line rate gives one-row bands of period 2"):
        frame = simulate_stack(banded(1.5 * F_LINE, phase=math.pi / 2), 1)[0]
        means = row_means(frame)
        assert band_height_measure(means) == 1.0
        seq = means[0]
        assert seq[0] != seq[1]
        assert np.array_equal(seq[:-2], seq[2:])


def test_criterion_03_alias_model_matches_fft():
    rng = np.random.default_rng(20260817)
    rows = VGA.active_rows
    picks = []
    while len(picks) < 10:
        freq = float(rng.uniform(50.0, 5 * F_LINE))
        alias = alias_and_band_height(freq, F_LINE)
        bin_pred = rows * alias.alias_hz / F_LINE
        if 3.0 <= bin_pred <= rows / 2 - 3:  # peak must be resolvable
            picks.append((freq, bin_pred))
    t0 = time.monotonic()
    with criterion(3, "predicted band height matches FFT within one bin"):
        for freq, bin_pred in picks:
            frame = simulate_stack(banded(freq, phase=0.378), 1)[0]
            band = band_height_measure(row_means(frame))
            bin_meas = rows / (2.0 * band)
            assert abs(bin_meas - bin_pred) <= 1.0, f"{freq} Hz: {bin_meas} vs {bin_pred}"
        assert time.monotonic() - t0 < 30.0


def test_criterion_04_metric_matches_oracle():
    rng = np.random.default_rng(7)
    with criterion(4, "vectorized metric equals brute-force oracle under 1e-9"):
        worst = 0.0
        for _ in range(100):
            pixels = rng.integers(0, 256, size=(3, 32, 32), dtype=np.uint8)
            frame = Frame(pixels=pixels)
            worst = max(worst, abs(row_noise_single(frame) - oracle_row_noise(frame)))
        assert worst < 1e-9, f"max |delta| {worst}"


def test_criterion_05_closed_form_value():
    with criterion(5, "alternating 10/20 rows measure 5.7735 DN"):
        grid = np.repeat(np.array([10, 20, 10, 20], dtype=np.uint8)[:, None], 6, axis=1)
        assert abs(row_noise_single(Frame(pixels=grid[None])) - 5.7735) <= 1e-4


def test_criterion_06_amplitude_linearity():
    with criterion(6, "plateau scales linearly with supply amplitude"):
        values = {}
        for vpp in (0.25, 0.5, 1.0):
            frame = simulate_stack(
                banded(1.5 * F_LINE, amp=vpp, phase=math.pi / 4), 1
            )[0]
            values[vpp] = row_noise_single(frame)
        assert values[0.25] < values[0.5] < values[1.0]
        assert abs(values[0.5] / values[0.25] - 2.0) <= 0.2
        assert abs(values[1.0] / values[0.5] - 2.0) <= 0.2
        for vpp, measured in values.items():
            plateau = vpp * DN_PER_VOLT / (2.0 * math.sqrt(2.0))
            assert abs(measured - plateau) <= 0.10 * plateau, f"{vpp} Vpp"


def test_criterion_07_nulls_at_every_harmonic():
    f_line = TINY.line_frequency_hz
    config = SweepConfig(
        source=SimulateSource(scenario=banded(0.0, phase=math.pi / 4, sensor=TINY)),
        start_hz=50.0,
        end_hz=5 * f_line,
        step_hz=50.0,
        amplitude_vpp=1.0,
        frames_per_step=1,
        seed=3,
        workers=4,
    )
    with criterion(7, "sweep shows a null at every line-rate harmonic"):
        result = run_sweep(config)
        by_freq = dict(result.points)
        plateau = statistics.median(result.values)
        assert plateau > 1.0  # the sweep did couple noise in
        for k in range(1, 6):
            null = by_freq[k * f_line]
            assert null < 0.05 * plateau, f"harmonic {k}: {null} vs plateau {plateau}"


def test_criterion_08_temporal_noise_statistics():
    with criterion(8, "temporal noise sources match their statistics"):
        # Shot noise: Poisson variance equals its mean.
        shot = SimScenario(
            sensor=SensorConfig(width=640, active_rows=480, blanking_rows=320),
            temporal=TemporalNoiseConfig(shot_enabled=True, dark_signal_e=100.0),
            seed=21,
        )
        samples = np.concatenate(
            [f.pixels.ravel() for f in simulate_stack(shot, 4)]
        ).astype(np.float64)
        assert samples.size >= 1_000_000
        assert abs(samples.var() - 100.0) <= 3.0

        # Quantizer: uniform rounding error, std = LSB/sqrt(12).
        rng = np.random.default_rng(22)
        analog = rng.uniform(20.0, 220.0, size=1_000_000)
        err = quantize_dn(analog).astype(np.float64) - analog
        target = 1.0 / math.sqrt(12.0)
        assert abs(err.std() - target) <= 0.02 * target

        # Flicker generator: power density falls as 1/f.
        series = pink_noise(2**20, np.random.default_rng(23))
        freqs, psd = signal.welch(series, nperseg=2**14)
        band = (freqs >= 1e-3) & (freqs <= 5e-2)
        slope = np.polyfit(np.log10(freqs[band]), np.log10(psd[band]), 1)[0]
        assert abs(slope + 1.0) <= 0.2, f"PSD slope {slope}"

        # White noise: row means average it down by sqrt(width).
        white = SimScenario(
            sensor=VGA,
            temporal=TemporalNoiseConfig(read_noise_dn=4.0),
            seed=24,
        )
        measured = average_row_noise(white, 6)
        expected = 4.0 / math.sqrt(VGA.width)
        assert abs(measured - expected) <= 0.10 * expected


def test_criterion_09_multi_frame_standard_error_slope():
    reps = 48
    counts = (1, 4, 16, 64)
    with criterion(9, "estimate precision improves as one over sqrt(frames)"):
        spreads = []
        for n in counts:
            estimates = []
            for rep in range(reps):
                scenario = SimScenario(
                    sensor=TINY,
                    temporal=TemporalNoiseConfig(read_noise_dn=2.0),
                    seed=10_000 * n + rep,
                )
                estimates.append(average_row_noise(scenario, n))
            spreads.append(statistics.stdev(estimates))
        slope = np.polyfit(np.log10(counts), np.log10(spreads), 1)[0]
        assert abs(slope + 0.5) <= 0.15, f"log-log slope {slope}"


def test_criterion_10_mitigation_efficacy():
    with criterion(10, "dark reference, RC filter and lowpass all suppress banding"):
        # Dark-reference correction cancels row-uniform offsets exactly.
        frame = simulate_stack(banded(1.5 * F_LINE, phase=math.pi / 4), 1)[0]
        assert row_noise_single(frame) > 20.0
        corrected = dark_reference_correct(frame, 4, pedestal_dn=VGA.pedestal_dn)
        assert row_noise_single(corrected) <= 0.51

        # Residual from dark-column estimation drops ~2x for 4x the columns.
        white = SimScenario(
            sensor=VGA,
            temporal=TemporalNoiseConfig(read_noise_dn=4.0),
            seed=31,
        )
        frames = simulate_stack(white, 8)
        residual = {
            m: statistics.fmean(
                row_noise_single(
                    dark_reference_correct(f, m, pedestal_dn=VGA.pedestal_dn)
                )
                for f in frames
            )
            for m in (4, 16)
        }
        ratio = residual[4] / residual[16]
        assert abs(ratio - 2.0) <= 0.3, f"residual ratio {ratio}"

        # Supply RC filter: a pole a decade below the noise leaves ~10%.
        freq = 1.37 * F_LINE
        loud = average_row_noise(banded(freq, phase=0.3), 2)
        quiet = average_row_noise(banded(freq, phase=0.3, rc=freq / 10.0), 2)
        attenuation = quiet / loud
        assert abs(attenuation - 0.0995) <= 0.05 * 0.0995, f"got {attenuation}"

        # Vertical-median lowpass wipes a single-row band.
        pixels = np.full((1, 64, 64), 128, dtype=np.uint8)
        pixels[0, 30, :] += 20
        banded_frame = Frame(pixels=pixels)
        assert row_noise_single(banded_frame) > 2.0
        smoothed = lowpass_offset_suppress(banded_frame, 9)
        assert row_noise_single(smoothed) < 2.0


def test_criterion_11_sweep_determinism_and_throughput(tmp_path):
    scenario = SimScenario(
        sensor=VGA,
        temporal=TemporalNoiseConfig(read_noise_dn=2.0),
    )
    config = SweepConfig(
        source=SimulateSource(scenario=scenario),
        start_hz=50.0,
        end_hz=100_000.0,
        step_hz=1000.0,
        amplitude_vpp=1.0,
        frames_per_step=3,
        seed=12345,
        workers=1,
    )
    with criterion(11, "full sweep is byte-identical across runs and workers"):
        t0 = time.monotonic()
        first = run_sweep(config)
        elapsed = time.monotonic() - t0
        again = run_sweep(config)
        parallel = run_sweep(dataclasses.replace(config, workers=4))
        assert len(first.points) == 100
        blobs = []
        for name, result in (("a", first), ("b", again), ("c", parallel)):
            path = tmp_path / f"{name}.csv"
            write_csv(result, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_12_report_landmarks_and_lossless_csv(tmp_path):
    points = []
    for freq in range(50_000, 151_000, 1000):
        if 60_000 <= freq <= 140_000:
            raw = 0.5 + 9.5 * (1.0 - abs(freq - 100_000) / 40_000.0)
        else:
            raw = 0.2
        points.append((float(freq), float(f"{raw:.4f}")))
    with criterion(12, "report recovers the constructed bump exactly"):
        path = tmp_path / "bump.csv"
        write_csv(SweepResult(points=points), path)
        back = read_csv(path)
        assert back.points == points  # lossless at 4 decimals
        report = analyze_report(back, Absolute(0.3))
        assert report.row_noise_start_hz == 60_000.0
        assert report.peak_hz == 100_000.0
        assert report.peak_row_noise_dn == 10.0
        assert report.areas_of_concern_hz == [(60_000.0, 140_000.0)]
