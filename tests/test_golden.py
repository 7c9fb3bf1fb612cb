"""Golden digests: the exact bits the simulator and the reference sweep give.

The determinism tests elsewhere compare one run with another, so a change
that shifts every run the same way passes them. These pins do not: each
is the sha256 of the analog values and the quantized pixels of a small
scenario, one per noise source, of the criterion-11 sweep CSV, or of the
two image corrections on one banded capture. They were taken before the
simulator's hot path, and later the lowpass median, was rewritten and
must not be edited to follow a change in output bits; a deliberate
change of the Philox substream contract is the only reason to re-pin
them.

The bits depend on numpy's Philox, normal and Poisson code, so the pins
hold for the numpy feature release they were taken with.
"""

import hashlib

import numpy as np
import pytest

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
    "rgb_all_sources": "bd0a25eca409a780d0e1d59b4035b1dfac5e926fdd6e6d25d54a54418cea830d",
}

MITIGATION_PINS = {
    "lowpass_9": "cb97b117ab4306d319a3d946bd2db31e66a11488e734583605a94f5eaeb848ef",
    "dark_ref_4": "1e81defb150f53229b7c5d7e686dbe6c01a1499922c46e8ab7dbf979530ed65a",
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


def banded_capture() -> Frame:
    """A 3-channel 40x24 capture: pedestal 64, a 6 DN row tone with
    1.67-row bands, 2 DN read noise and a 20 DN brighter block in the
    last 6 columns, clear of the 4 dark reference columns."""
    rng = np.random.default_rng(2024)
    rows = np.arange(40, dtype=np.float64)[None, :, None]
    tone = 6.0 * np.sin(2.0 * np.pi * 0.3 * rows + 0.7)
    analog = 64.0 + tone + rng.normal(0.0, 2.0, (3, 40, 24))
    analog[:, :, 18:] += 20.0
    return Frame(pixels=np.clip(np.floor(analog + 0.5), 0, 255).astype(np.uint8))


@pytest.mark.parametrize(
    "name, correct",
    [
        ("lowpass_9", lambda f: lowpass_offset_suppress(f, 9)),
        ("dark_ref_4", lambda f: dark_reference_correct(f, 4, pedestal_dn=64)),
    ],
)
def test_mitigation_matches_golden_digest(name, correct):
    pixels = correct(banded_capture()).pixels
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == MITIGATION_PINS[name]
