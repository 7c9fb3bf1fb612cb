"""Golden digests: the exact bits the simulator and the reference sweep give.

The determinism tests elsewhere compare one run with another, so a change
that shifts every run the same way passes them. These pins do not: each
is the sha256 of the analog values and the quantized pixels of a small
scenario, one per noise source, of the criterion-11 sweep CSV and its
report JSON, or of the two image corrections on banded captures, the
lowpass at kernels whose running median takes blocks of 1 to 10 rows. They
were taken before the simulator's hot path, later the lowpass median and
then the report's JSON writer, was rewritten and must not be edited to
follow a change in output bits; a deliberate change of the Philox
substream contract is the only reason to re-pin them.

The bits depend on numpy's Philox, normal and Poisson code, so the pins
hold for the numpy feature release they were taken with.
"""

import hashlib

import numpy as np
import pytest

from rownoise.cli import main
from rownoise.mitigation import dark_reference_correct, lowpass_offset_suppress
from rownoise.sensor import (
    Frame,
    PhaseMode,
    SensorConfig,
    SimScenario,
    SpatialNoiseConfig,
    SupplyNoiseConfig,
    TemporalNoiseConfig,
    generate_fpn_maps,
    simulate_frame,
    simulate_frame_analog,
)
from rownoise.sweep import SimulateSource, SweepConfig, run_sweep, write_csv

PINNED_NUMPY = "2.4"

pytestmark = pytest.mark.skipif(
    not np.__version__.startswith(PINNED_NUMPY + "."),
    reason=f"digests are pinned for numpy {PINNED_NUMPY}.x, found {np.__version__}",
)

# 40 wide, 24 active + 4 optical black rows, 12 blanking rows: 1200 Hz lines.
SMALL = SensorConfig(
    width=40, active_rows=24, optical_black_rows=4, blanking_rows=12, pedestal_dn=32.0
)
SUPPLY = SupplyNoiseConfig(frequency_hz=1730.0, amplitude_vpp=0.3, rc_cutoff_hz=5000.0)

SCENARIOS = {
    "supply_only": SimScenario(sensor=SMALL, supply=SUPPLY, seed=11),
    "shot": SimScenario(
        sensor=SMALL,
        supply=SUPPLY,
        temporal=TemporalNoiseConfig(shot_enabled=True, dark_signal_e=3.5),
        seed=12,
    ),
    "read": SimScenario(
        sensor=SMALL, supply=SUPPLY, temporal=TemporalNoiseConfig(read_noise_dn=2.0), seed=13
    ),
    "reset": SimScenario(
        sensor=SMALL, supply=SUPPLY, temporal=TemporalNoiseConfig(reset_enabled=True), seed=14
    ),
    "flicker": SimScenario(
        sensor=SMALL,
        supply=SUPPLY,
        temporal=TemporalNoiseConfig(flicker_enabled=True, flicker_scale_dn=1.5),
        seed=15,
    ),
    "dsnu_column_fpn": SimScenario(
        sensor=SMALL,
        supply=SUPPLY,
        spatial=SpatialNoiseConfig(dsnu_dn=1.2, column_fpn_dn=0.7),
        seed=16,
    ),
    "random_phase": SimScenario(
        sensor=SMALL,
        supply=SupplyNoiseConfig(
            frequency_hz=1730.0, amplitude_vpp=0.3, phase_mode=PhaseMode.RANDOM_PER_FRAME
        ),
        seed=17,
    ),
    # Start phase, RC lag and random frame phase all nonzero: the order of
    # the phase sum.
    "phase_rc_random": SimScenario(
        sensor=SMALL,
        supply=SupplyNoiseConfig(
            frequency_hz=1730.0, amplitude_vpp=0.3, phase_rad=0.9, rc_cutoff_hz=5000.0,
            phase_mode=PhaseMode.RANDOM_PER_FRAME,
        ),
        seed=19,
    ),
    # Three channels with every source on: the broadcasts over channels.
    "rgb_all_sources": SimScenario(
        sensor=SensorConfig(
            width=24, active_rows=16, optical_black_rows=2, blanking_rows=6,
            pedestal_dn=8.0, channels=3,
        ),
        supply=SUPPLY,
        temporal=TemporalNoiseConfig(
            shot_enabled=True, dark_signal_e=1.5, read_noise_dn=1.0,
            flicker_enabled=True, flicker_scale_dn=0.5, reset_enabled=True,
        ),
        spatial=SpatialNoiseConfig(dsnu_dn=0.5, column_fpn_dn=0.3),
        seed=18,
    ),
}

FRAME_PINS = {
    "supply_only": "76e95eb25a6989c65cf8d9f2ac65bdb94530028a4492fa1b514e36fd05cfdf0a",
    "shot": "4309f2e290e14c3f8f82937f2d7e8c6c0f84696f21123264b62b7ece9e5d2931",
    "read": "e2c148242199e63f9d1fcd246e9303703dae768c7181720edfe383715736b1a4",
    "reset": "5206b95ab7b46d520bf7b753fe66f17fde9da537d9c4360d513d545838499ee1",
    "flicker": "160cc5644b585940a1382f3192cc75abc1d9bb99eac2588c2efc9fd4d2e19b9d",
    "dsnu_column_fpn": "a18c5a28c9773627af453220214fe8d523572ab2e59ffea2f4a2a2e4bec887de",
    "random_phase": "07041f7d405f91d613889cda057cead50130b0389e2c0b275992de895040c425",
    "phase_rc_random": "6d04b98068e5311a0f191f1654fde6e12486d752b62120b37279516978c1aa55",
    "rgb_all_sources": "bd0a25eca409a780d0e1d59b4035b1dfac5e926fdd6e6d25d54a54418cea830d",
}

MITIGATION_PINS = {
    "lowpass_9": "cb97b117ab4306d319a3d946bd2db31e66a11488e734583605a94f5eaeb848ef",
    "dark_ref_4": "1e81defb150f53229b7c5d7e686dbe6c01a1499922c46e8ab7dbf979530ed65a",
    "lowpass_3": "bdf647231deaf48ce28bb65a5ad1501c398c4ef4afbb84296c056dc9cb8cb1f7",
    "lowpass_39": "f2c3324e63cfda0bdb72978ffbfbe3a9ef6a351661e6941e8a33be3c95611d16",
    "lowpass_101_tall": "ae27b0976a64693c8c4865a018ebc7e53b05586f75712a8f5efa9fa687aa6a17",
}

SWEEP_CSV_PIN = "4d7902af46939d0eca2992042a6040d3fa922d532f66e626d1e2e6d3bc3b4293"


def frames_digest(scenario: SimScenario, n_frames: int = 3) -> str:
    """sha256 over the analog float64 values and the uint8 pixels of
    frames 0..n_frames-1, with one set of FPN maps."""
    h = hashlib.sha256()
    fpn = generate_fpn_maps(scenario.seed, scenario.sensor, scenario.spatial)
    for i in range(n_frames):
        analog = simulate_frame_analog(scenario, i, fpn)
        h.update(np.ascontiguousarray(analog, dtype="<f8").tobytes())
        h.update(simulate_frame(scenario, i, fpn).pixels.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_frames_match_golden_digest(name):
    assert frames_digest(SCENARIOS[name]) == FRAME_PINS[name]


def test_criterion_11_sweep_csv_matches_golden_digest(tmp_path):
    config = SweepConfig(
        source=SimulateSource(
            scenario=SimScenario(
                sensor=SensorConfig(
                    width=640, active_rows=480, blanking_rows=320, pedestal_dn=128.0
                ),
                temporal=TemporalNoiseConfig(read_noise_dn=2.0),
            )
        ),
        start_hz=50.0,
        end_hz=100_000.0,
        step_hz=1000.0,
        amplitude_vpp=1.0,
        frames_per_step=3,
        seed=12345,
        workers=1,
    )
    path = tmp_path / "sweep.csv"
    write_csv(run_sweep(config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_CSV_PIN


def banded_capture(rows: int = 40) -> Frame:
    """A 3-channel capture, rows x 24: pedestal 64, a 6 DN row tone with
    1.67-row bands, 2 DN read noise and a 20 DN brighter block in the
    last 6 columns, clear of the 4 dark reference columns."""
    rng = np.random.default_rng(2024)
    row = np.arange(rows, dtype=np.float64)[None, :, None]
    tone = 6.0 * np.sin(2.0 * np.pi * 0.3 * row + 0.7)
    analog = 64.0 + tone + rng.normal(0.0, 2.0, (3, rows, 24))
    analog[:, :, 18:] += 20.0
    return Frame(pixels=np.clip(np.floor(analog + 0.5), 0, 255).astype(np.uint8))


@pytest.mark.parametrize(
    "name, correct",
    [
        ("lowpass_9", lambda: lowpass_offset_suppress(banded_capture(), 9)),
        ("dark_ref_4", lambda: dark_reference_correct(banded_capture(), 4, pedestal_dn=64)),
        ("lowpass_3", lambda: lowpass_offset_suppress(banded_capture(), 3)),
        # The largest odd kernel 40 rows take.
        ("lowpass_39", lambda: lowpass_offset_suppress(banded_capture(), 39)),
        # Blocks of 10 rows; pinned when kernels this tall ran on a rank filter.
        ("lowpass_101_tall", lambda: lowpass_offset_suppress(banded_capture(120), 101)),
    ],
)
def test_mitigation_matches_golden_digest(name, correct):
    pixels = correct().pixels
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == MITIGATION_PINS[name]


# The default baseline threshold finds no area on this curve; 20 DN gives one.
REPORT_JSON_PINS = {
    (): "f327766db781bb543088d82cb089b04a8969835d7824a7a9d3a65afeb0c820ac",
    ("--threshold", "20"): "cc6f26cf8a9920001a4a0cc9f4df341f72d28edd0058e03d25d0179f07edef3b",
}


def test_criterion_11_report_json_matches_golden_digest(tmp_path):
    """`report --json` on the criterion-11 sweep CSV, made by the CLI."""
    csv, report = tmp_path / "sweep.csv", tmp_path / "report.json"
    sweep = [
        "sweep", "--width", "640", "--active-rows", "480", "--blanking-rows", "320",
        "--pedestal", "128", "--read-noise", "2", "--start", "50", "--end", "100000",
        "--step", "1000", "--amp", "1", "--frames-per-step", "3", "--seed", "12345",
        "--out", str(csv),
    ]
    assert main(sweep) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SWEEP_CSV_PIN
    for threshold, pin in REPORT_JSON_PINS.items():
        assert main(["report", "--csv", str(csv), *threshold, "--json", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == pin, threshold
