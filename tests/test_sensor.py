"""Simulator behavior: supply coupling, timing, noise sources, determinism."""

import dataclasses
import importlib
import json
import math
import re
import sys
import threading
import tracemalloc
import typing

import numpy as np
import pytest

from oracle import oracle_simulate_frame_analog
import rownoise.sensor as sensormod
from rownoise.physics import reset_noise_v
from rownoise.sensor import (
    _CHUNK,
    MAX_POISSON_MEAN,
    Frame,
    PhaseMode,
    SensorConfig,
    SimScenario,
    SpatialNoiseConfig,
    SupplyNoiseConfig,
    TemporalNoiseConfig,
    generate_fpn_maps,
    iter_stack,
    pink_noise,
    quantize_dn,
    rc_attenuation,
    row_supply_offsets_dn,
    scenario_from_json,
    scenario_to_json,
    simulate_frame,
    simulate_frame_analog,
    simulate_stack,
)
from rownoise import sweep as sweepmod
from rownoise.sweep import sweep_config_from_json, sweep_config_to_json

# The config classes the sensor and sweep modules export: those whose
# fields the shared base checks.
EXPORTED = [getattr(mod, name) for mod in (sensormod, sweepmod) for name in mod.__all__]
CONFIGS = [c for c in EXPORTED if isinstance(c, type) and issubclass(c, sensormod._Config)]
SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
OUT = {"ge": -1, "gt": -1, "le": 1, "lt": 1}  # the direction out of each bound's range


def declared_rules():
    """(class, field name, annotation, rule key, bound or choices) of each
    rule a config field declares."""
    for cls in CONFIGS:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            for key, bound in f.metadata.items():
                yield pytest.param(cls, f.name, hints[f.name], key, bound,
                                   id=f"{cls.__name__}.{f.name}.{key}")


def step(value, kind, direction):
    """The next value of type kind (int or float) from value, up for
    direction 1 and down for -1."""
    return value + direction if kind is int else math.nextafter(value, direction * math.inf)


# Small, fast geometry: frame length 100 rows at 30 fps -> 3 kHz line rate.
SMALL = SensorConfig(width=16, active_rows=64, blanking_rows=36, pedestal_dn=128.0)


def scenario(freq_hz, amplitude_vpp=1.0, phase_rad=0.0, sensor=SMALL, **kwargs):
    supply = SupplyNoiseConfig(
        frequency_hz=freq_hz, amplitude_vpp=amplitude_vpp, phase_rad=phase_rad, **kwargs
    )
    return SimScenario(sensor=sensor, supply=supply)


class TestConfigs:
    def test_default_geometry(self):
        cfg = SensorConfig()
        assert cfg.frame_length_rows == 812
        assert cfg.readout_rows == 800
        assert cfg.line_frequency_hz == 24360.0

    def test_small_geometry(self):
        assert SMALL.frame_length_rows == 100
        assert SMALL.line_frequency_hz == 3000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 64.5},
            {"active_rows": 4.0},
            {"optical_black_rows": "2"},
            {"blanking_rows": True},
            {"channels": 1.0},
            {"fps": math.inf},
            {"fps": math.nan},
            {"pedestal_dn": "16"},
            {"fps": 10**400},
        ],
    )
    def test_sensor_validation(self, kwargs):
        with pytest.raises(ValueError):
            SensorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frequency_hz": math.nan},
            {"amplitude_vpp": math.inf},
            {"phase_rad": math.nan},
            {"coupling_gain": -math.inf},
            {"rc_cutoff_hz": math.inf},
        ],
    )
    def test_supply_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupplyNoiseConfig(**kwargs)

    def test_phase_mode_accepts_string(self):
        cfg = SupplyNoiseConfig(phase_mode="random_per_frame")
        assert cfg.phase_mode is PhaseMode.RANDOM_PER_FRAME

    @pytest.mark.parametrize("value", ["sideways", 3, None, ["x"]])
    def test_phase_mode_outside_its_choices_names_the_field(self, value):
        doc = {"supply": {"phase_mode": value}}
        message = "^phase_mode must be one of 'continuous', 'random_per_frame', got "
        with pytest.raises(ValueError, match=message + re.escape(repr(value)) + "$"):
            scenario_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_noise_dn": math.nan},
            {"reset_temp_k": math.inf},
            {"shot_enabled": "false"},
        ],
    )
    def test_temporal_validation(self, kwargs):
        with pytest.raises(ValueError):
            TemporalNoiseConfig(**kwargs)

    def test_dark_signal_is_capped_at_numpys_poisson_limit(self):
        # The cap is the largest mean numpy draws from: the frame saturates.
        temporal = TemporalNoiseConfig(shot_enabled=True, dark_signal_e=MAX_POISSON_MEAN)
        frame = simulate_frame(SimScenario(sensor=SMALL, temporal=temporal), 0)
        assert np.all(frame.pixels == 255)
        above = float(np.nextafter(MAX_POISSON_MEAN, math.inf))
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(above)
        with pytest.raises(ValueError, match=r"dark_signal_e must be in \[0, 9\.2"):
            TemporalNoiseConfig(dark_signal_e=above)

    def test_integers_fit_float_fields_and_null_cutoff_stays_valid(self):
        sc = scenario_from_json(
            '{"sensor": {"fps": 30, "pedestal_dn": 16},'
            ' "supply": {"frequency_hz": 1000, "rc_cutoff_hz": null}}'
        )
        assert sc.sensor.fps == 30.0
        assert sc.supply.rc_cutoff_hz is None

    @pytest.mark.parametrize(
        "seed, want", [(1.5, "an integer"), *[(s, f"in [0, {2**64})") for s in (-1, 2**64)]]
    )
    def test_seed_range(self, seed, want):
        with pytest.raises(ValueError, match=f"^seed must be {re.escape(want)}, got {seed}$"):
            SimScenario(seed=seed)

    @pytest.mark.parametrize("cls, name, kind, key, bound", declared_rules())
    def test_declared_rule_holds_at_its_bound(self, cls, name, kind, key, bound):
        # The bound is accepted where the rule allows it, else the nearest
        # value inside; the value just outside raises with the one message
        # form, "{name} must be {rule}, got {value!r}".
        rule = cls.__dataclass_fields__[name].metadata
        if key == "choices":
            inside, outside = bound, max(bound) + 1 if kind is int else "x"
        elif key in ("ge", "le"):
            inside, outside = [bound], step(bound, kind, OUT[key])
        else:
            inside, outside = [step(bound, kind, -OUT[key])], bound
        for value in inside:
            assert getattr(cls(**{name: value}), name) == value
        with pytest.raises(ValueError) as err:
            cls(**{name: outside})
        said = re.fullmatch(rf"{name} must be (.+), got {re.escape(repr(outside))}", str(err.value))
        assert said, str(err.value)
        if key == "choices":
            assert said[1] == "one of " + ", ".join(map(repr, bound))
        elif len(rule) == 1:
            assert said[1] == f"{SYMBOLS[key]} {bound}"
        else:  # a lower and an upper bound
            assert said[1].startswith("in ") and all(str(b) in said[1] for b in rule.values())

    @pytest.mark.parametrize(
        "cls, name, value, want",
        [
            (SimScenario, "sensor", "x", "a SensorConfig"),
            (SimScenario, "supply", SensorConfig(), "a SupplyNoiseConfig"),
            (SimScenario, "temporal", None, "a TemporalNoiseConfig"),
            (SimScenario, "spatial", {}, "a SpatialNoiseConfig"),
            (sweepmod.SimulateSource, "scenario", "x", "a SimScenario"),
            *[(sweepmod.SweepConfig, "source", value, "a SimulateSource or CaptureSource")
              for value in ("x", None, SimScenario())],
        ],
    )
    def test_section_of_another_type_is_rejected(self, cls, name, value, want):
        # Caught here, not as an AttributeError once the section is read.
        message = f"^{name} must be {want}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            cls(**{name: value})

    def test_every_exported_config_class_checks_its_fields(self):
        # Every dataclass the two modules export is a config, whose fields
        # the shared base checks, or one of these results.
        results = {Frame, sensormod.FpnMaps, sweepmod.CharacterizationReport}
        exported = [c for c in EXPORTED if dataclasses.is_dataclass(c)]
        assert set(CONFIGS) == set(exported) - results

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            Frame(pixels=np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            Frame(pixels=np.zeros((1, 2, 2), dtype=np.float64))


class TestSupplySample:
    # 40 fps x 100 rows: row r of frame 0 is read at r / 4000 s. With 1 DN
    # per volt the offsets are the rail voltage.
    UNIT = SensorConfig(width=4, active_rows=8, blanking_rows=92, fps=40.0, dn_per_volt=1.0)

    def offsets(self, **supply):
        sc = SimScenario(sensor=self.UNIT, supply=SupplyNoiseConfig(amplitude_vpp=1.0, **supply))
        return row_supply_offsets_dn(sc, 0)

    def test_zero_crossing_at_t0(self):
        assert self.offsets(frequency_hz=1000.0)[0] == 0.0

    def test_quarter_period_peak(self):
        # Row 1 is read a quarter period of 1 kHz after row 0.
        assert self.offsets(frequency_hz=1000.0)[1] == pytest.approx(0.5, abs=1e-12)

    def test_rc_filtered_peak_at_ten_times_cutoff(self):
        gain, lag = rc_attenuation(1000.0, 100.0)
        assert gain == pytest.approx(1.0 / math.sqrt(101.0))
        assert lag == pytest.approx(-math.atan(10.0))
        # A phase of pi/2 - lag puts the filtered peak on row 0.
        peak = self.offsets(frequency_hz=1000.0, rc_cutoff_hz=100.0, phase_rad=math.pi / 2 - lag)
        assert peak[0] == pytest.approx(0.04975, abs=1e-5)

    def test_no_filter_passthrough(self):
        assert rc_attenuation(5000.0, None) == (1.0, 0.0)
        assert rc_attenuation(0.0, 100.0) == (1.0, 0.0)


class TestQuantize:
    def test_rounds_half_away_from_zero(self):
        vals = np.array([0.4, 0.5, 1.5, 2.5, -0.4, -0.6, 254.49, 254.5])
        out = quantize_dn(vals)
        assert out.dtype == np.uint8
        assert list(out) == [0, 1, 2, 3, 0, 0, 254, 255]

    def test_clamps_to_output_range(self):
        assert list(quantize_dn(np.array([-50.0, 300.0]))) == [0, 255]

    def test_matches_half_away_from_zero_reference(self):
        rng = np.random.default_rng(5)
        vals = np.concatenate([
            rng.uniform(-300.0, 600.0, 5000),
            np.arange(-3.0, 258.0, 0.5),
            [np.nextafter(0.5, 0.0), np.nextafter(254.5, 0.0), -np.inf, np.inf],
        ])
        reference = np.clip(np.sign(vals) * np.floor(np.abs(vals) + 0.5), 0, 255)
        assert np.array_equal(quantize_dn(vals), reference.astype(np.uint8))

    def test_leaves_input_unchanged(self):
        vals = np.array([[0.4, 2.5], [-1.0, 300.0]])
        before = vals.copy()
        quantize_dn(vals)
        assert np.array_equal(vals, before)


class TestSupplyCoupling:
    @pytest.mark.parametrize(
        "parts",
        [
            {"supply": SupplyNoiseConfig(frequency_hz=1e308, amplitude_vpp=1.0)},
            {"supply": SupplyNoiseConfig(frequency_hz=4117.0, amplitude_vpp=1e308)},
            {"temporal": TemporalNoiseConfig(read_noise_dn=1e308)},
            # The kTC sigma itself is inf, and inf * noise sets no flag.
            {"temporal": TemporalNoiseConfig(
                reset_enabled=True, reset_temp_k=1e308, reset_cap_f=1e-308)},
            # Scaled in the frame body, whose overflow check holds on
            # the stack's helper thread too.
            {"temporal": TemporalNoiseConfig(flicker_enabled=True, flicker_scale_dn=1e308)},
            {"spatial": SpatialNoiseConfig(column_fpn_dn=1e308)},
        ],
        ids=["supply_phase", "supply_amplitude", "read_noise", "reset", "flicker_scale",
             "column_fpn"],
    )
    def test_values_that_overflow_together_are_rejected(self, parts):
        # Each value is finite, so the config takes it; the arithmetic
        # overflows, which is a ValueError and not a RuntimeWarning and NaN.
        with pytest.raises(ValueError, match="overflow float64"):
            simulate_stack(SimScenario(sensor=SMALL, **parts), 2)

    def test_reset_sigma_that_overflows_in_dn_is_rejected(self):
        # The kTC sigma is finite in volts and inf in DN.
        sensor = SensorConfig(width=16, active_rows=4, dn_per_volt=1e200)
        temporal = TemporalNoiseConfig(reset_enabled=True, reset_temp_k=1e200, reset_cap_f=1e-100)
        with pytest.raises(ValueError, match="overflow float64"):
            simulate_frame(SimScenario(sensor=sensor, temporal=temporal), 0)

    def test_quiet_supply_gives_exact_pedestal(self):
        sc = SimScenario(sensor=SMALL)
        frame = simulate_frame(sc, 0)
        assert np.all(frame.pixels == 128)

    def test_harmonic_offsets_are_numerically_null(self):
        # Noise at 3x the line rate samples the same sinusoid phase on
        # every row; the per-row spread collapses to rounding error.
        sc = scenario(3.0 * SMALL.line_frequency_hz)
        offsets = row_supply_offsets_dn(sc, 0)
        assert float(np.std(offsets)) < 1e-9

    def test_harmonic_frame_rows_identical(self):
        sc = scenario(3.0 * SMALL.line_frequency_hz, phase_rad=math.pi / 2.0)
        frame = simulate_frame(sc, 0)
        assert np.all(frame.pixels == frame.pixels[:, :1, :])
        assert frame.pixels[0, 0, 0] != 128  # carries a real offset, uniformly

    def test_midpoint_frequency_alternates_with_period_two(self):
        sc = scenario(1.5 * SMALL.line_frequency_hz, phase_rad=math.pi / 2.0)
        frame = simulate_frame(sc, 0)
        profile = frame.pixels[0, :, 0]
        assert np.all(frame.pixels == profile[None, :, None])  # rows uniform
        assert np.array_equal(profile[:-2], profile[2:])  # period 2
        assert len(np.unique(profile)) == 2

    def test_optical_black_rows_carry_the_same_offsets(self):
        sensor = SensorConfig(
            width=8, active_rows=64, optical_black_rows=16, blanking_rows=20,
            pedestal_dn=128.0,
        )
        sc = scenario(1.5 * sensor.line_frequency_hz, phase_rad=math.pi / 2.0,
                      sensor=sensor)
        frame = simulate_frame(sc, 0)
        assert frame.rows == 80  # optical black rows are part of the output
        ob, active = frame.pixels[0, :16, 0], frame.pixels[0, 16:, 0]
        assert set(np.unique(ob)) == set(np.unique(active))

    def test_continuous_phase_advances_between_frames(self):
        # 4117 Hz is not a multiple of the 30 Hz frame rate, so the band
        # pattern must crawl from frame to frame.
        sc = scenario(4117.0)
        f0 = simulate_frame(sc, 0)
        f1 = simulate_frame(sc, 1)
        assert not np.array_equal(f0.pixels, f1.pixels)

    def test_frame_rate_multiple_gives_standing_bands(self):
        # 4110 Hz = 137 x 30 fps: whole cycles elapse per frame, so the
        # same banding reappears in every frame even off-harmonic.
        sc = scenario(4110.0)
        f0 = simulate_frame(sc, 0)
        f1 = simulate_frame(sc, 1)
        assert np.array_equal(f0.pixels, f1.pixels)


class TestPhaseModes:
    def test_harmonic_stack_is_frame_identical(self):
        sc = scenario(3.0 * SMALL.line_frequency_hz, phase_rad=math.pi / 2.0)
        frames = simulate_stack(sc, 3)
        assert len(frames) == 3
        assert np.array_equal(frames[0].pixels, frames[1].pixels)
        assert np.array_equal(frames[0].pixels, frames[2].pixels)

    def test_random_per_frame_differs_but_rows_stay_uniform(self):
        sc = scenario(
            1.37 * SMALL.line_frequency_hz,
            phase_mode=PhaseMode.RANDOM_PER_FRAME,
        )
        frames = simulate_stack(sc, 3)
        assert not np.array_equal(frames[0].pixels, frames[1].pixels)
        for f in frames:
            assert np.all(f.pixels == f.pixels[:, :, :1])  # constant along width

    def test_random_per_frame_is_seeded(self):
        sc = scenario(
            1.37 * SMALL.line_frequency_hz,
            phase_mode=PhaseMode.RANDOM_PER_FRAME,
        )
        again = scenario(
            1.37 * SMALL.line_frequency_hz,
            phase_mode=PhaseMode.RANDOM_PER_FRAME,
        )
        assert np.array_equal(simulate_frame(sc, 2).pixels, simulate_frame(again, 2).pixels)


class TestDeterminism:
    def test_same_scenario_reproduces_exactly(self):
        sc = SimScenario(
            sensor=SMALL,
            supply=SupplyNoiseConfig(frequency_hz=4110.0, amplitude_vpp=0.5),
            temporal=TemporalNoiseConfig(
                shot_enabled=True, dark_signal_e=40.0, read_noise_dn=2.0
            ),
            spatial=SpatialNoiseConfig(dsnu_dn=1.5, column_fpn_dn=0.5),
            seed=123,
        )
        a = simulate_stack(sc, 3)
        b = simulate_stack(sc, 3)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.pixels, fb.pixels)

    def test_stack_of_one_matches_single_frame(self):
        sc = SimScenario(
            sensor=SMALL,
            temporal=TemporalNoiseConfig(read_noise_dn=2.0),
            seed=7,
        )
        assert np.array_equal(simulate_stack(sc, 1)[0].pixels, simulate_frame(sc, 0).pixels)

    def test_different_seeds_differ(self):
        base = dict(sensor=SMALL, temporal=TemporalNoiseConfig(read_noise_dn=2.0))
        f0 = simulate_frame(SimScenario(seed=1, **base), 0)
        f1 = simulate_frame(SimScenario(seed=2, **base), 0)
        assert not np.array_equal(f0.pixels, f1.pixels)

    def test_frames_have_independent_noise(self):
        sc = SimScenario(
            sensor=SMALL, temporal=TemporalNoiseConfig(read_noise_dn=2.0), seed=5
        )
        f0, f1 = simulate_stack(sc, 2)
        assert not np.array_equal(f0.pixels, f1.pixels)


class TestTemporalNoise:
    def test_dark_shot_noise_variance(self):
        sensor = SensorConfig(width=640, active_rows=480, pedestal_dn=16.0)
        sc = SimScenario(
            sensor=sensor,
            temporal=TemporalNoiseConfig(shot_enabled=True, dark_signal_e=100.0),
            seed=31,
        )
        signal = simulate_frame(sc, 0).pixels.astype(np.float64) - 16.0
        assert float(np.var(signal, ddof=1)) == pytest.approx(100.0, rel=0.03)

    def test_reset_noise_variance_and_cds_suppression(self):
        sensor = SensorConfig(width=512, active_rows=256, pedestal_dn=128.0)
        sigma = reset_noise_v(300.0, 5e-15) * sensor.dn_per_volt
        noisy = SimScenario(
            sensor=sensor,
            temporal=TemporalNoiseConfig(reset_enabled=True),
            seed=41,
        )
        clean = SimScenario(
            sensor=sensor,
            temporal=TemporalNoiseConfig(reset_enabled=True, cds_enabled=True),
            seed=41,
        )
        var_noisy = float(np.var(simulate_frame_analog(noisy, 0), ddof=1))
        var_clean = float(np.var(simulate_frame_analog(clean, 0), ddof=1))
        assert var_noisy == pytest.approx(sigma**2, rel=0.05)
        assert var_clean == 0.0
        # The variance removed by correlated double sampling is the reset term.
        assert var_noisy - var_clean == pytest.approx(sigma**2, rel=0.05)

    def test_pink_noise_shape_and_determinism(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        a = pink_noise(4096, rng1)
        b = pink_noise(4096, rng2)
        assert a.shape == (4096,)
        assert np.array_equal(a, b)
        assert 0.2 < float(np.var(a)) < 5.0

    # Sizes above one piece: at 2 * _CHUNK + 1 octave 1 takes two pieces
    # of draws, the last one draw long; at 2**20 + 3 octaves 1-4 take
    # several, each ending in a short block.
    @pytest.mark.parametrize("n", [1, 7, 1024, 1500, _CHUNK + 1, 2 * _CHUNK + 1, 2**20 + 3])
    def test_pink_noise_matches_repeat_reference(self, n):
        # The octave sum written out with full-length repeats.
        rng = np.random.default_rng(11)
        total = np.zeros(n)
        for k in range(16):
            step = 1 << k
            total += np.repeat(rng.standard_normal((n + step - 1) // step), step)[:n]
        expected = total / math.sqrt(16)
        assert np.array_equal(pink_noise(n, np.random.default_rng(11)), expected)

    def test_pink_noise_validation(self):
        with pytest.raises(ValueError):
            pink_noise(0, np.random.default_rng(0))


# Temporal source subsets: every source, reset alone, flicker alone, and
# shot and read together.
SOURCE_SUBSETS = pytest.mark.parametrize(
    "temporal",
    [
        TemporalNoiseConfig(
            shot_enabled=True, dark_signal_e=4.0, read_noise_dn=2.0, reset_enabled=True,
            flicker_enabled=True, flicker_scale_dn=0.5,
        ),
        TemporalNoiseConfig(reset_enabled=True),
        TemporalNoiseConfig(flicker_enabled=True, flicker_scale_dn=1.5),
        TemporalNoiseConfig(shot_enabled=True, dark_signal_e=4.0, read_noise_dn=2.0),
    ],
    ids=["all", "reset", "flicker", "shot_read"],
)


def lane_scenario(temporal, channels, width, active_rows) -> SimScenario:
    return SimScenario(
        sensor=SensorConfig(
            width=width, active_rows=active_rows, optical_black_rows=2, channels=channels
        ),
        supply=SupplyNoiseConfig(
            frequency_hz=4117.0, amplitude_vpp=0.5, phase_mode=PhaseMode.RANDOM_PER_FRAME
        ),
        temporal=temporal,
        spatial=SpatialNoiseConfig(dsnu_dn=0.5, column_fpn_dn=0.3),
        seed=58,
    )


class TestNoiseLanes:
    """Every frame is made on one thread in pieces of at most _CHUNK
    elements, the flicker series drawn whole first. The analog bytes must
    equal whole-substream draws summed in order."""

    @SOURCE_SUBSETS
    @pytest.mark.parametrize(
        "channels, width, active_rows",
        [(1, 333, 401), (3, 257, 171), (1, 7, 7), (3, 7, 7)],
    )
    def test_lanes_match_whole_draws(self, temporal, channels, width, active_rows):
        sc = lane_scenario(temporal, channels, width, active_rows)
        size = channels * sc.sensor.readout_rows * width
        # Either more than two pieces with a short last one, or one short piece.
        assert (size > 2 * _CHUNK and size % _CHUNK) or size < _CHUNK
        for frame_index in (0, 2):
            got = simulate_frame_analog(sc, frame_index)
            assert got.tobytes() == oracle_simulate_frame_analog(sc, frame_index).tobytes()

    @pytest.mark.parametrize(
        "temporal",
        [
            # Raises in the first piece's read noise, after the flicker draw.
            TemporalNoiseConfig(read_noise_dn=1e308, flicker_enabled=True, flicker_scale_dn=1.0),
            # Raises where the first piece's flicker is scaled.
            TemporalNoiseConfig(reset_enabled=True, flicker_enabled=True, flicker_scale_dn=1e308),
        ],
        ids=["during_helper", "after_helper"],
    )
    def test_failing_frame_leaves_no_thread(self, temporal):
        before = threading.active_count()
        with pytest.raises(ValueError, match="overflow float64"):
            simulate_frame_analog(SimScenario(sensor=SMALL, temporal=temporal), 0)
        assert threading.active_count() == before

    def test_lone_frames_make_no_executor(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("executor made")

        monkeypatch.setattr("rownoise.sensor.ThreadPoolExecutor", fail)
        temporal = TemporalNoiseConfig(
            shot_enabled=True, dark_signal_e=4.0, read_noise_dn=2.0, reset_enabled=True,
            flicker_enabled=True, flicker_scale_dn=0.5,
        )
        sc = lane_scenario(temporal, 3, 64, 48)
        simulate_frame(sc, 0)
        simulate_frame_analog(sc, 0)

    @pytest.mark.peak_memory
    def test_lone_frame_holds_no_float_frame(self):
        # Shot, read and reset noise with no flicker series and no DSNU
        # map: the frame's own bytes are its uint8 pixels and a few
        # piece buffers, far below one float64 frame.
        sensor = SensorConfig(width=640, active_rows=480, channels=3)
        temporal = TemporalNoiseConfig(
            shot_enabled=True, dark_signal_e=4.0, read_noise_dn=2.0, reset_enabled=True
        )
        sc = SimScenario(sensor=sensor, temporal=temporal, seed=3)
        simulate_frame(sc, 0)  # imports and caches
        tracemalloc.start()
        try:
            simulate_frame(sc, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 480 * 640 * 8

    @pytest.mark.peak_memory
    def test_flicker_frame_peak_memory_holds_one_series(self):
        # Flicker alone: the frame's uint8 pixels, its 8-byte series and
        # a few piece-sized buffers, with no octave drawn whole beside
        # the series.
        sensor = SensorConfig(width=1280, active_rows=800, channels=1)
        temporal = TemporalNoiseConfig(flicker_enabled=True, flicker_scale_dn=0.5)
        sc = SimScenario(sensor=sensor, temporal=temporal, seed=3)
        n = sensor.channels * sensor.readout_rows * sensor.width
        simulate_frame(sc, 0)  # imports and caches
        tracemalloc.start()
        try:
            simulate_frame(sc, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * n + 4 * _CHUNK * 8


class TestPairedStack:
    """Stacks are made two frames at a time: the calling thread makes frame
    i while the stack's helper thread makes frame i + 1, each in pieces
    written straight into its uint8 pixels; the last frame of an odd
    stack has no partner. Every frame must equal the quantized whole-draw
    oracle."""

    @SOURCE_SUBSETS
    @pytest.mark.parametrize(
        "channels, width, active_rows",
        [
            (1, 333, 401),  # pieces of 196 rows: one ends mid-channel
            (3, 300, 250),  # pieces of 218 of 252 rows in each channel
            (1, _CHUNK + 7, 1),  # rows longer than a piece
            (3, 7, 7),  # one short piece per channel
        ],
    )
    def test_stacks_match_oracle_frames(self, temporal, channels, width, active_rows):
        sc = lane_scenario(temporal, channels, width, active_rows)
        expected = [quantize_dn(oracle_simulate_frame_analog(sc, i)).tobytes() for i in range(5)]
        for n in range(1, 6):
            assert [f.pixels.tobytes() for f in simulate_stack(sc, n)] == expected[:n], n

    def test_closing_after_one_frame_leaves_no_thread(self):
        before = threading.active_count()
        frames = iter_stack(lane_scenario(TemporalNoiseConfig(read_noise_dn=2.0), 1, 64, 48), 4)
        next(frames)
        frames.close()
        assert threading.active_count() == before

    def test_frame_failing_on_the_helper_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(
            sensormod, "_frame_in_pieces", fail_off_main_thread(sensormod._frame_in_pieces)
        )
        before = threading.active_count()
        sc = lane_scenario(TemporalNoiseConfig(reset_enabled=True), 1, 64, 48)
        with pytest.raises(ValueError, match="made on a helper thread"):
            simulate_stack(sc, 4)
        assert threading.active_count() == before


def fail_off_main_thread(fn):
    """fn, raising ValueError when called on any thread but the main one."""

    def wrapper(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("a frame made on a helper thread failed")
        return fn(*args, **kwargs)

    return wrapper


# The functions bench/spans.py wraps in spans (TRACED) or counts
# (COUNTED), as (module, function). Its tracer keeps one span stack for
# all threads, so each must run on the thread that called into rownoise.
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("sweep", "run_sweep"),
    ("sweep", "write_csv"),
    ("sensor", "simulate_stack"),
    ("sensor", "generate_fpn_maps"),
    ("sensor", "simulate_frame"),
    ("sensor", "simulate_frame_analog"),
    ("sensor", "row_supply_offsets_dn"),
    ("sensor", "pink_noise"),
    ("sensor", "quantize_dn"),
    ("metric", "row_noise"),
    ("metric", "row_noise_single"),
    ("imageio", "read_image"),
    ("imageio", "write_image"),
    ("mitigation", "lowpass_offset_suppress"),
    ("mitigation", "dark_reference_correct"),
    ("mitigation", "recommend_tuning"),
    ("physics", "line_frequency"),
    ("physics", "alias_and_band_height"),
]


class TestThreadDiscipline:
    def test_traced_functions_run_on_the_calling_thread(self, monkeypatch, tmp_path):
        import rownoise.cli
        import rownoise.imageio

        calls = []  # (function, thread ident)

        def recorder(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapper

        # Rebind each function wherever a rownoise module imported it by
        # name, as the tracer does.
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("rownoise")]
        for module, name in SPAN_FUNCTIONS:
            original = getattr(importlib.import_module(f"rownoise.{module}"), name)
            wrapper = recorder(f"{module}.{name}", original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)

        every_source = TemporalNoiseConfig(
            shot_enabled=True, dark_signal_e=4.0, read_noise_dn=2.0, reset_enabled=True,
            flicker_enabled=True, flicker_scale_dn=0.5,
        )
        reset_flicker = TemporalNoiseConfig(
            reset_enabled=True, flicker_enabled=True, flicker_scale_dn=0.5
        )
        sensormod.simulate_stack(lane_scenario(every_source, 3, 64, 48), 4)
        sensormod.simulate_stack(lane_scenario(reset_flicker, 1, 64, 48), 3)
        sensormod.simulate_frame(lane_scenario(every_source, 1, 64, 48), 0)  # no stack calls it
        assert rownoise.cli.main([
            "sweep", "--width", "32", "--active-rows", "24", "--read-noise", "2",
            "--start", "100", "--end", "200", "--step", "100", "--frames-per-step", "3",
            "--reset", "--flicker", "--flicker-scale", "0.5",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        # Three points, so the last has no partner.
        assert rownoise.cli.main([
            "sweep", "--width", "32", "--active-rows", "24", "--read-noise", "2",
            "--start", "100", "--end", "300", "--step", "100", "--frames-per-step", "3",
            "--dsnu", "0.5", "--flicker", "--flicker-scale", "0.5",
            "--out", str(tmp_path / "pairs.csv"),
        ]) == 0
        # simulate and mitigate write their frames on a writer thread,
        # which runs no traced function.
        frames = tmp_path / "frames"
        assert rownoise.cli.main([
            "simulate", "--width", "32", "--active-rows", "24", "--read-noise", "2",
            "--frames", "3", "--out-dir", str(frames),
        ]) == 0
        rownoise.imageio.write_image(rownoise.imageio.read_image(frames / "im1.pgm"),
                                     frames / "im4.pgm")
        for method in ("lowpass", "dark-ref"):
            assert rownoise.cli.main([
                "mitigate", str(frames), "--method", method,
                "--out-dir", str(tmp_path / method),
            ]) == 0
        names = {name for name, _ in calls}
        assert {"sensor.generate_fpn_maps", "sensor.row_supply_offsets_dn",
                "sensor.simulate_frame", "cli.main", "imageio.write_image",
                "imageio.read_image", "mitigation.lowpass_offset_suppress",
                "mitigation.dark_reference_correct"} <= names
        assert {ident for _, ident in calls} == {threading.get_ident()}


class TestFixedPattern:
    def test_zero_sigmas_give_zero_maps(self):
        # A zero-sigma map is not drawn at all; None stands for all zeros.
        maps = generate_fpn_maps(0, SMALL, SpatialNoiseConfig())
        assert maps.pixel_offset_dn is None
        assert maps.column_offset_dn is None

    def test_same_seed_same_maps(self):
        spatial = SpatialNoiseConfig(dsnu_dn=2.0, column_fpn_dn=1.0)
        a = generate_fpn_maps(9, SMALL, spatial)
        b = generate_fpn_maps(9, SMALL, spatial)
        assert np.array_equal(a.pixel_offset_dn, b.pixel_offset_dn)
        assert np.array_equal(a.column_offset_dn, b.column_offset_dn)

    def test_one_zero_sigma_leaves_the_other_map_unchanged(self):
        both = generate_fpn_maps(4, SMALL, SpatialNoiseConfig(dsnu_dn=2.0, column_fpn_dn=1.0))
        column_only = generate_fpn_maps(4, SMALL, SpatialNoiseConfig(column_fpn_dn=1.0))
        assert column_only.pixel_offset_dn is None
        assert np.array_equal(column_only.column_offset_dn, both.column_offset_dn)

    @pytest.mark.parametrize("fraction", [0.01, -0.01, float("nan")])
    def test_nonzero_prnu_rejected(self, fraction):
        with pytest.raises(ValueError, match="illumination is not modelled"):
            SpatialNoiseConfig(prnu_fraction=fraction)

    @pytest.mark.parametrize("value", ["a", None, True])
    def test_prnu_of_another_type_gets_the_type_message(self, value):
        message = f"^prnu_fraction must be a finite number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SpatialNoiseConfig(prnu_fraction=value)

    def test_dsnu_sigma_realized(self):
        sensor = SensorConfig(width=1280, active_rows=800)
        maps = generate_fpn_maps(17, sensor, SpatialNoiseConfig(dsnu_dn=2.0))
        realized = float(np.std(maps.pixel_offset_dn, ddof=1))
        assert abs(realized - 2.0) / 2.0 < 0.05

    def test_column_pattern_is_constant_down_columns(self):
        sc = SimScenario(
            sensor=SMALL,
            spatial=SpatialNoiseConfig(column_fpn_dn=3.0),
            seed=2,
        )
        frame = simulate_frame(sc, 0)
        assert np.all(frame.pixels == frame.pixels[:, :1, :])
        assert len(np.unique(frame.pixels)) > 1

    def test_pattern_frozen_across_stack(self):
        sc = SimScenario(
            sensor=SMALL, spatial=SpatialNoiseConfig(dsnu_dn=2.0), seed=6
        )
        frames = simulate_stack(sc, 2)
        assert np.array_equal(frames[0].pixels, frames[1].pixels)


# Each retired key: its one legal value, the parser and the writer of its
# document, and a document with %s where the key may stand.
RETIRED = {
    "bit_depth": (8, scenario_from_json, scenario_to_json, '{"sensor": {"width": 64%s}}'),
    "workers": (1, sweep_config_from_json, sweep_config_to_json, '{"start_hz": 64.0%s}'),
}


class TestScenarioJson:
    def test_round_trip(self):
        sc = SimScenario(
            sensor=SensorConfig(width=64, active_rows=48, channels=3),
            supply=SupplyNoiseConfig(
                frequency_hz=126000.0,
                amplitude_vpp=1.0,
                phase_mode=PhaseMode.RANDOM_PER_FRAME,
                rc_cutoff_hz=50000.0,
            ),
            temporal=TemporalNoiseConfig(shot_enabled=True, dark_signal_e=25.0),
            spatial=SpatialNoiseConfig(dsnu_dn=0.5),
            seed=99,
        )
        assert scenario_from_json(scenario_to_json(sc)) == sc

    def test_missing_sections_take_defaults(self):
        assert scenario_from_json("{}") == SimScenario()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_json('{"sensr": {}}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_json('{"sensor": {"wdth": 64}}')

    def test_non_object_section_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_json('{"sensor": 3}')

    @pytest.mark.parametrize("key", RETIRED)
    def test_retired_key_at_its_value_is_dropped(self, key):
        # Documents written before the key was retired carry its one value.
        legal, parse, dump, doc = RETIRED[key]
        old = parse(doc % f', "{key}": {legal}')
        assert old == parse(doc % "")
        assert key not in dump(old)

    @pytest.mark.parametrize(
        "key, value",
        [
            *[("bit_depth", value) for value in ("12", "8.0", "true", '"8"', "null")],
            *[("workers", value) for value in ("2", "0", "1.0", "true", '"1"', "null")],
        ],
    )
    def test_retired_key_at_another_value_rejected(self, key, value):
        _, parse, _, doc = RETIRED[key]
        with pytest.raises(ValueError, match=rf"^{key} is retired"):
            parse(doc % f', "{key}": {value}')

    @pytest.mark.parametrize(
        "key, doc",
        [
            *[("bit_depth", f'{{"{section}": {{%s}}}}')
              for section in ("supply", "temporal", "spatial")],
            ("workers", '{"source": {%s}}'),
            ("workers", '{"source": {"scenario": {%s}}}'),
        ],
    )
    def test_retired_key_only_where_it_was_a_field(self, key, doc):
        legal, parse, _, _ = RETIRED[key]
        with pytest.raises(ValueError, match="unknown"):
            parse(doc % f'"{key}": {legal}')
