"""Sweep engine, CSV round trips, report landmarks and plot emission."""

import json
import math
import re
import shlex
import sys
import threading
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rownoise import sensor, sweep
from rownoise.metric import row_noise
from rownoise.sensor import (
    PhaseMode,
    SensorConfig,
    SimScenario,
    SpatialNoiseConfig,
    SupplyNoiseConfig,
    TemporalNoiseConfig,
    simulate_stack,
)
from rownoise.sweep import (
    Absolute,
    BaselineSigma,
    CaptureError,
    CaptureSource,
    CsvParseError,
    SimulateSource,
    SweepConfig,
    analyze_report,
    emit_plot_data,
    read_csv,
    run_sweep,
    sweep_config_from_json,
    sweep_config_to_json,
    write_csv,
)
from rownoise.sweep import _sweep_config_from_doc

SENSOR = SensorConfig(width=16, active_rows=64, blanking_rows=36, pedestal_dn=128.0)
F_LINE = SENSOR.line_frequency_hz  # 3000 Hz
PLATEAU = 1.0 * SENSOR.dn_per_volt / (2.0 * math.sqrt(2.0))


def quiet_scenario(phase_rad=0.0):
    return SimScenario(
        sensor=SENSOR, supply=SupplyNoiseConfig(phase_rad=phase_rad)
    )


class TestGrid:
    """SweepConfig checks beyond the declared field bounds, which
    tests/test_sensor.py walks: the grid, the run parameters and the scenario
    fields a sweep sets itself. The grid points are physics.frequency_grid's
    and are tested with it."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_hz": 100.0, "end_hz": 50.0},
            {"frames_per_step": 1.5},
            {"end_hz": math.inf},
            {"step_hz": math.nan},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    def test_end_below_start_names_both_values(self):
        message = r"^end_hz must be >= start_hz \(100\.0\), got 50\.0$"
        with pytest.raises(ValueError, match=message):
            SweepConfig(start_hz=100.0, end_hz=50.0)

    @pytest.mark.parametrize(
        "scenario, named",
        [
            (SimScenario(supply=SupplyNoiseConfig(frequency_hz=5000.0)), "supply.frequency_hz"),
            (SimScenario(supply=SupplyNoiseConfig(amplitude_vpp=3.0)), "supply.amplitude_vpp"),
            (SimScenario(seed=7), "seed"),
        ],
    )
    def test_scenario_fields_the_sweep_sets_are_rejected(self, scenario, named):
        # Each point sets its own frequency, amplitude and seed, so a value
        # here would be silently replaced.
        with pytest.raises(ValueError, match=rf"scenario's {re.escape(named)} must be 0"):
            SweepConfig(source=SimulateSource(scenario=scenario))

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"seed": 7}, "seed"),
            ({"frames_per_step": 9}, "frames_per_step"),
            ({"seed": 7, "frames_per_step": 1}, "frames_per_step, seed"),
        ],
    )
    def test_simulation_fields_on_a_capture_sweep_are_rejected(self, tmp_path, kwargs, named):
        # A capture sweep reads the rig's images and draws nothing, so a
        # value here would be recorded in the sidecar yet have no effect.
        source = CaptureSource(command="true", image_dir=tmp_path)
        with pytest.raises(ValueError, match=rf"^{named} must keep the default in a capture"):
            SweepConfig(source=source, **kwargs)


class TestRunSweep:
    def test_single_point_matches_direct_simulation(self):
        freq = 1.37 * F_LINE
        cfg = SweepConfig(
            start_hz=freq,
            end_hz=freq,
            step_hz=1000.0,
            frames_per_step=1,
            source=SimulateSource(scenario=quiet_scenario()),
        )
        points = run_sweep(cfg)
        sc = quiet_scenario()
        direct = replace(
            sc, supply=replace(sc.supply, frequency_hz=freq, amplitude_vpp=1.0)
        )
        expected = row_noise(simulate_stack(direct, 1)).average
        assert points == [(freq, expected)]

    def test_harmonic_null_and_off_harmonic_plateau(self):
        # Phase pi/4 keeps the half-line-rate point sampling at +/- peak/sqrt(2),
        # the same level a phase-scrambled sinusoid averages to.
        values = {}
        for mult in (1.0, 1.37, 1.5):
            cfg = SweepConfig(
                start_hz=mult * F_LINE,
                end_hz=mult * F_LINE,
                step_hz=1.0,
                frames_per_step=1,
                source=SimulateSource(scenario=quiet_scenario(phase_rad=math.pi / 4.0)),
            )
            [(_, values[mult])] = run_sweep(cfg)
        assert values[1.0] < 0.05 * PLATEAU
        for mult in (1.37, 1.5):
            assert abs(values[mult] - PLATEAU) / PLATEAU < 0.10

    def test_half_amplitude_halves_the_plateau(self):
        def median_plateau(amp):
            cfg = SweepConfig(
                start_hz=3550.0,
                end_hz=8550.0,
                step_hz=1000.0,
                amplitude_vpp=amp,
                frames_per_step=1,
                source=SimulateSource(scenario=quiet_scenario()),
            )
            return float(np.median([v for _, v in run_sweep(cfg)]))

        ratio = median_plateau(0.5) / median_plateau(1.0)
        assert abs(ratio - 0.5) / 0.5 < 0.10

    def test_sweep_makes_its_frames_on_exactly_two_threads(self, monkeypatch):
        cfg = SweepConfig(start_hz=3550.0, end_hz=7550.0, step_hz=1000.0, frames_per_step=1,
                          source=SimulateSource(scenario=quiet_scenario()))
        expected = run_sweep(cfg)
        real = sensor._frame_in_pieces
        seen = []  # (thread ident, threads alive) at each frame

        def record(*args):
            seen.append((threading.get_ident(), threading.active_count()))
            time.sleep(0.01)  # so the frames of a group overlap
            return real(*args)

        monkeypatch.setattr(sensor, "_frame_in_pieces", record)
        before = threading.active_count()
        assert run_sweep(cfg) == expected
        # One frame per point, yet two threads: frames pair across points.
        assert len({ident for ident, _ in seen}) == 2
        assert max(alive for _, alive in seen) <= before + 1
        assert threading.active_count() == before

    def test_failed_frame_stops_the_sweep_and_leaves_no_thread(self, monkeypatch):
        real = sensor._frame_in_pieces
        started = []

        def frame(scenario, frame_index, *args):
            started.append(frame_index)
            if scenario.supply.frequency_hz == 100.0 and frame_index == 0:
                raise ValueError("scenario values overflow float64 arithmetic")
            time.sleep(0.01)
            return real(scenario, frame_index, *args)

        monkeypatch.setattr(sensor, "_frame_in_pieces", frame)
        cfg = SweepConfig(start_hz=100.0, end_hz=5000.0, step_hz=100.0,
                          source=SimulateSource(scenario=quiet_scenario()))
        before = threading.active_count()
        with pytest.raises(ValueError, match="overflow"):
            run_sweep(cfg)
        assert 0 < len(started) < 10  # of 50 points x 3 frames
        assert threading.active_count() == before

    def test_rerun_is_identical(self, tmp_path):
        scenario = SimScenario(
            sensor=SENSOR, temporal=TemporalNoiseConfig(read_noise_dn=2.0)
        )
        cfg = SweepConfig(
            start_hz=3550.0,
            end_hz=5550.0,
            step_hz=1000.0,
            frames_per_step=2,
            source=SimulateSource(scenario=scenario),
            seed=9,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(cfg), a)
        write_csv(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()


EVERY_SOURCE = TemporalNoiseConfig(
    shot_enabled=True, dark_signal_e=4.0, read_noise_dn=2.0, reset_enabled=True,
    flicker_enabled=True, flicker_scale_dn=0.5,
)


class TestSweepStream:
    """A simulated sweep runs the frames of all its points through one
    frame stream in pairs, so pairs straddle points. Every point must
    still equal its own stack, measured alone."""

    @staticmethod
    def scenario(channels, phase_mode):
        return SimScenario(
            sensor=SensorConfig(width=24, active_rows=16, optical_black_rows=2,
                                blanking_rows=14, channels=channels),
            supply=SupplyNoiseConfig(phase_rad=0.3, rc_cutoff_hz=20_000.0,
                                     phase_mode=phase_mode),
            temporal=EVERY_SOURCE,
            spatial=SpatialNoiseConfig(dsnu_dn=0.5, column_fpn_dn=0.3),
        )

    @pytest.mark.parametrize("phase_mode", list(PhaseMode))
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_point_equals_its_own_stack(self, n, channels, phase_mode):
        cfg = SweepConfig(start_hz=1000.0, end_hz=5000.0, step_hz=1000.0, amplitude_vpp=0.5,
                          frames_per_step=n, seed=3,
                          source=SimulateSource(scenario=self.scenario(channels, phase_mode)))
        base = cfg.source.scenario
        expected = []
        for index, freq in enumerate([1000.0, 2000.0, 3000.0, 4000.0, 5000.0]):
            point = replace(
                base,
                supply=replace(base.supply, frequency_hz=freq, amplitude_vpp=0.5),
                seed=sweep._step_seed(3, index),
            )
            expected.append((freq, row_noise(simulate_stack(point, n)).average))
        before = threading.active_count()
        assert run_sweep(cfg) == expected
        assert threading.active_count() == before

    @staticmethod
    def record_maps(monkeypatch) -> list[int]:
        """The seed of each sensor.generate_fpn_maps call from now on."""
        seeds, real = [], sensor.generate_fpn_maps

        def record(seed, *args):
            seeds.append(seed)
            return real(seed, *args)

        monkeypatch.setattr(sensor, "generate_fpn_maps", record)
        return seeds

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_point_builds_its_maps_once(self, monkeypatch, n):
        source = SimulateSource(scenario=self.scenario(1, PhaseMode.CONTINUOUS))
        cfg = SweepConfig(start_hz=1000.0, end_hz=5000.0, step_hz=1000.0, frames_per_step=n,
                          seed=3, source=source)
        seeds = self.record_maps(monkeypatch)
        run_sweep(cfg)
        assert seeds == [sweep._step_seed(3, index) for index in range(5)]

    @pytest.mark.parametrize("n", [2, 4])
    def test_closing_after_the_first_point_builds_only_its_maps(self, monkeypatch, n):
        # An even frame count ends the first point with a whole pair, so no
        # frame of the second point has been asked for when the stream closes.
        class Stop(Exception):
            pass

        def measure_first_point(frames):
            assert len(list(frames)) == n
            raise Stop

        source = SimulateSource(scenario=self.scenario(3, PhaseMode.CONTINUOUS))
        cfg = SweepConfig(start_hz=1000.0, end_hz=5000.0, step_hz=1000.0, frames_per_step=n,
                          seed=3, source=source)
        seeds = self.record_maps(monkeypatch)
        monkeypatch.setattr(sweep, "row_noise", measure_first_point)
        before = threading.active_count()
        with pytest.raises(Stop):
            run_sweep(cfg)
        assert seeds == [sweep._step_seed(3, 0)]
        assert threading.active_count() == before


def capture_setup(tmp_path, fail_above=None):
    """A stand-in bench rig: writes two flat PGM frames per call."""
    out = tmp_path / "rig"
    out.mkdir()
    script = tmp_path / "rig.py"
    fail = f"{fail_above}" if fail_above is not None else "None"
    script.write_text(
        "import sys, pathlib\n"
        "out = pathlib.Path(sys.argv[1]); freq = int(sys.argv[2])\n"
        f"if {fail} is not None and freq > {fail}:\n"
        "    sys.stderr.write('rig fault\\n'); sys.exit(3)\n"
        "val = freq % 200\n"
        "data = b'P5\\n4 6\\n255\\n' + bytes([val]) * 24\n"
        "for name in ('im1.pgm', 'im2.pgm'):\n"
        "    (out / name).write_bytes(data)\n"
    )
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {shlex.quote(str(out))} {{freq}}"
    return command, out


class TestCaptureSource:
    def test_ingests_generated_frames(self, tmp_path):
        command, out = capture_setup(tmp_path)
        cfg = SweepConfig(
            start_hz=100.0,
            end_hz=300.0,
            step_hz=100.0,
            source=CaptureSource(command=command, image_dir=out),
        )
        # Flat frames have no row noise.
        assert run_sweep(cfg) == [(100.0, 0.0), (200.0, 0.0), (300.0, 0.0)]

    def test_failure_keeps_partial_results(self, tmp_path):
        command, out = capture_setup(tmp_path, fail_above=150)
        cfg = SweepConfig(
            start_hz=100.0,
            end_hz=300.0,
            step_hz=100.0,
            source=CaptureSource(command=command, image_dir=out),
        )
        with pytest.raises(CaptureError) as err:
            run_sweep(cfg)
        assert "200" in str(err.value)
        assert err.value.partial == [(100.0, 0.0)]

    @pytest.mark.parametrize("command", ["rig --hz {hz}", "rig {0}", "rig {freq", 5])
    def test_bad_command_template_rejected(self, tmp_path, command):
        with pytest.raises(ValueError):
            CaptureSource(command=command, image_dir=tmp_path)

    def test_no_images_is_an_error(self, tmp_path):
        command, out = capture_setup(tmp_path)
        cfg = SweepConfig(
            start_hz=100.0,
            end_hz=100.0,
            step_hz=100.0,
            source=CaptureSource(command=command, image_dir=out, pattern="zz*"),
        )
        with pytest.raises(CaptureError):
            run_sweep(cfg)


# A CSV cell: free text, or a number spelled in one of the ways float()
# takes or nearly takes.
CELL = st.one_of(
    st.text(max_size=6),
    st.floats().map(repr),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "1_000", " 5 ", "0x10", ""]),
)
CSV_BYTES = st.one_of(
    st.text(max_size=80).map(str.encode),
    st.lists(st.lists(CELL, max_size=3).map(",".join), max_size=5).map(
        lambda rows: "\n".join(["frequency_hz,row_noise", *rows]).encode()
    ),
    st.binary(max_size=80),  # not necessarily UTF-8
)


class TestCsv:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=CSV_BYTES)
    def test_any_text_gives_a_result_or_a_parse_error(self, tmp_path, data):
        path = tmp_path / "any.csv"
        path.write_bytes(data)
        try:
            points = read_csv(path)
        except CsvParseError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert all(math.isfinite(x) for point in points for x in point)

    def test_golden_line(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv([(25000.0, 8.80694)], path)
        assert path.read_text() == "frequency_hz,row_noise\n25000,8.8069\n"

    def test_fractional_frequency_kept(self, tmp_path):
        path = tmp_path / "frac.csv"
        write_csv([(50.5, 1.0)], path)
        assert "50.5,1.0000" in path.read_text()

    def test_round_trip(self, tmp_path):
        points = [(50.0, 0.1234), (1050.0, 27.32), (2050.0, 0.0)]
        path = tmp_path / "rt.csv"
        write_csv(points, path)
        assert read_csv(path) == points

    def test_header_only_is_valid_and_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frequency_hz,row_noise\n")
        assert read_csv(path) == []

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("freq,noise\n100,1\n")
        with pytest.raises(CsvParseError, match=":1:"):
            read_csv(path)

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,row_noise\n100,1.0\nbogus\n")
        with pytest.raises(CsvParseError, match=":3:"):
            read_csv(path)

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("frequency_hz,row_noise\n100,1.0,9\n")
        with pytest.raises(CsvParseError, match=":2:"):
            read_csv(path)

    @pytest.mark.parametrize("line", ["200,nan", "200,inf", "-inf,1.0", "NaN,NaN"])
    def test_non_finite_value_rejected_with_line_number(self, tmp_path, line):
        path = tmp_path / "nan.csv"
        path.write_text(f"frequency_hz,row_noise\n100,1.0\n{line}\n")
        with pytest.raises(CsvParseError, match=r"nan\.csv:3: non-finite"):
            read_csv(path)


def bump_curve() -> list[tuple[float, float]]:
    """Flat 0.2 DN curve with a triangular bump on [60 kHz, 140 kHz], apex 10 DN
    at 100 kHz. All values are exact at 4 decimals so CSV trips are lossless."""
    points = []
    for f in range(50_000, 151_000, 1000):
        if 60_000 <= f <= 140_000:
            v = 0.5 + 9.5 * (1.0 - abs(f - 100_000) / 40_000.0)
        else:
            v = 0.2
        points.append((float(f), v))
    return points


class TestReport:
    def test_flat_zero_curve_has_no_areas(self):
        points = [(float(f), 0.0) for f in range(100, 2100, 100)]
        report = analyze_report(points)  # default baseline threshold
        assert report.areas_of_concern_hz == []
        assert report.row_noise_start_hz is None
        assert report.peak_row_noise_dn == 0.0
        assert report.peak_hz == 100.0  # earliest point wins the tie

    def test_bump_landmarks(self):
        report = analyze_report(bump_curve(), Absolute(0.3))
        assert report.row_noise_start_hz == 60_000.0
        assert report.peak_hz == 100_000.0
        assert report.peak_row_noise_dn == 10.0
        assert report.areas_of_concern_hz == [(60_000.0, 140_000.0)]
        assert report.threshold_dn == 0.3

    def test_round_trip_is_idempotent(self, tmp_path):
        path = tmp_path / "bump.csv"
        original = analyze_report(bump_curve(), Absolute(0.3))
        write_csv(bump_curve(), path)
        reloaded = analyze_report(read_csv(path), Absolute(0.3))
        assert reloaded == original

    def test_baseline_sigma_threshold(self):
        values = [0.10, 0.12, 0.11, 0.09, 0.10, 0.10, 5.0, 0.10]
        points = [(float(100 * (i + 1)), v) for i, v in enumerate(values)]
        report = analyze_report(points, BaselineSigma(k=5.0, window=5))
        assert report.areas_of_concern_hz == [(700.0, 700.0)]
        assert report.row_noise_start_hz == 700.0

    def test_window_larger_than_curve_rejected(self):
        points = [(100.0, 0.1), (200.0, 0.1)]
        with pytest.raises(ValueError):
            analyze_report(points, BaselineSigma(k=5.0, window=10))

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            analyze_report([])

    def test_negative_absolute_threshold_names_the_threshold(self):
        with pytest.raises(ValueError, match=r"^threshold must be >= 0, got -0\.1$"):
            Absolute(-0.1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Absolute(math.nan),
            lambda: Absolute(math.inf),
            lambda: BaselineSigma(k=math.nan),
            lambda: BaselineSigma(k=math.inf),
            lambda: BaselineSigma(window=2.5),
            lambda: BaselineSigma(k="5"),
        ],
        ids=["abs_nan", "abs_inf", "k_nan", "k_inf", "float_window", "str_k"],
    )
    def test_threshold_fields_are_type_checked(self, make):
        with pytest.raises(ValueError):
            make()

    def test_overflowing_baseline_threshold_rejected(self):
        points = [(100.0, 0.2), (200.0, 20.2), (300.0, 0.2)]
        with pytest.raises(ValueError, match="overflows"):
            analyze_report(points, BaselineSigma(k=1e308, window=2))

    def test_overflowing_baseline_values_blame_the_baseline(self):
        # The mean of two 1e308 points overflows, whatever k is.
        points = [(100.0, 1e308), (200.0, 1e308), (300.0, 0.2)]
        with pytest.raises(ValueError, match="baseline of the first 2 points"):
            analyze_report(points, BaselineSigma(k=1.0, window=2))

    def test_text_fields(self):
        text = analyze_report(bump_curve(), Absolute(0.3)).to_text()
        assert "Row Noise Start" in text
        assert "Peak Row Noise" in text
        assert "Areas of Concern" in text
        assert "100 kHz" in text

    def test_text_no_areas_wording(self):
        points = [(float(f), 0.0) for f in range(100, 1200, 100)]
        text = analyze_report(points).to_text()
        assert "no areas of concern" in text

    def test_json_dict_keys(self):
        doc = asdict(analyze_report(bump_curve(), Absolute(0.3)))
        assert set(doc) == {
            "row_noise_start_hz",
            "peak_hz",
            "peak_row_noise_dn",
            "areas_of_concern_hz",
            "threshold_dn",
        }


class TestPlot:
    def test_svg_and_data_file(self, tmp_path):
        points = [(100.0, 1.0), (200.0, 2.0), (300.0, 0.5)]
        svg = tmp_path / "curve.svg"
        emit_plot_data(points, svg)
        text = svg.read_text()
        assert text.count("<polyline") == 1
        poly = text.split("<polyline points=\"")[1].split("\"")[0]
        assert len(poly.split()) == 3  # one vertex per sweep point
        assert "frequency (Hz)" in text
        assert "row noise (DN)" in text
        dat = (tmp_path / "curve.dat").read_text().splitlines()
        assert len(dat) == 3
        assert all(len(line.split()) == 2 for line in dat)

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data([], tmp_path / "x.svg")


class TestSweepConfigJson:
    def test_simulate_round_trip(self):
        cfg = SweepConfig(
            start_hz=100.0,
            end_hz=5000.0,
            step_hz=100.0,
            amplitude_vpp=0.5,
            frames_per_step=2,
            source=SimulateSource(scenario=quiet_scenario()),
            seed=3,
        )
        assert sweep_config_from_json(sweep_config_to_json(cfg)) == cfg

    def test_capture_round_trip(self, tmp_path):
        cfg = SweepConfig(
            start_hz=100.0,
            end_hz=200.0,
            step_hz=100.0,
            source=CaptureSource(
                command="rig --freq {freq}", image_dir=tmp_path, pattern="cap*"
            ),
        )
        back = sweep_config_from_json(sweep_config_to_json(cfg))
        assert back == cfg

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sweep_config_from_json('{"source": {"mode": "telepathy"}}')

    def test_parsed_document_is_left_unchanged(self, tmp_path):
        # The CLI hands its merged flag document to the parser as a dict.
        doc = json.loads(sweep_config_to_json(SweepConfig(
            source=CaptureSource(command="rig --freq {freq}", image_dir=tmp_path),
        )))
        before = json.dumps(doc, sort_keys=True)
        assert _sweep_config_from_doc(doc).source.command == "rig --freq {freq}"
        assert json.dumps(doc, sort_keys=True) == before

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            sweep_config_from_json('{"start_hzz": 100}')

    @pytest.mark.parametrize(
        "doc",
        [
            '[]',
            '{"source": "simulate"}',
            '{"source": {"mode": "capture"}}',
            '{"source": {"mode": "capture", "command": "rig"}}',
            '{"source": {"mode": "capture", "command": "rig", "image_dir": 3}}',
            '{"source": {"mode": "simulate", "scenario": "x"}}',
            '{"source": {"mode": "simulate", "scenario": {}, "pattern": "im*"}}',
            '{"source": {"mode": ["capture"]}}',
            '{"frames_per_step": 2.5}',
        ],
    )
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(ValueError):
            sweep_config_from_json(doc)
