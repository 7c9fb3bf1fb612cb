"""Sweep engine, CSV round trips, report landmarks and plot emission."""

import math
import shlex
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rownoise.metric import row_noise
from rownoise.physics import frequency_grid
from rownoise.sensor import (
    SensorConfig,
    SimScenario,
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
    SweepResult,
    analyze_report,
    emit_plot_data,
    read_csv,
    run_sweep,
    sweep_config_from_json,
    sweep_config_to_json,
    write_csv,
)

SENSOR = SensorConfig(width=16, active_rows=64, blanking_rows=36, pedestal_dn=128.0)
F_LINE = SENSOR.line_frequency_hz  # 3000 Hz
PLATEAU = 1.0 * SENSOR.dn_per_volt / (2.0 * math.sqrt(2.0))


def quiet_scenario(phase_rad=0.0):
    return SimScenario(
        sensor=SENSOR, supply=SupplyNoiseConfig(phase_rad=phase_rad)
    )


class TestGrid:
    def test_hundred_points(self):
        freqs = frequency_grid(50.0, 100_000.0, 1000.0)
        assert len(freqs) == 100
        assert freqs[0] == 50.0
        assert freqs[-1] == 99_050.0

    def test_single_point_when_start_equals_end(self):
        assert frequency_grid(4110.0, 4110.0, 1000.0) == [4110.0]

    def test_end_on_grid_is_included(self):
        assert frequency_grid(100.0, 500.0, 100.0) == [100.0, 200.0, 300.0, 400.0, 500.0]

    def test_end_survives_float_drift(self):
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998 in float64.
        freqs = frequency_grid(0.1, 0.3, 0.1)
        assert len(freqs) == 3
        assert freqs[-1] == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_hz": 0.0},
            {"start_hz": 100.0, "end_hz": 50.0},
            {"step_hz": 0.0},
            {"frames_per_step": 0},
            {"workers": 0},
            {"amplitude_vpp": -1.0},
            {"frames_per_step": 1.5},
            {"workers": 2.0},
            {"end_hz": math.inf},
            {"step_hz": math.nan},
            {"seed": -1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


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
        result = run_sweep(cfg)
        assert len(result.points) == 1
        assert result.frames_per_point == [1]
        sc = quiet_scenario()
        direct = replace(
            sc, supply=replace(sc.supply, frequency_hz=freq, amplitude_vpp=1.0)
        )
        expected = row_noise(simulate_stack(direct, 1)).average
        assert result.points[0] == (freq, expected)

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
            values[mult] = run_sweep(cfg).points[0][1]
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
            return float(np.median(run_sweep(cfg).values))

        ratio = median_plateau(0.5) / median_plateau(1.0)
        assert abs(ratio - 0.5) / 0.5 < 0.10

    def test_worker_count_does_not_change_results(self):
        scenario = SimScenario(
            sensor=SENSOR, temporal=TemporalNoiseConfig(read_noise_dn=2.0)
        )
        base = dict(
            start_hz=3550.0,
            end_hz=7550.0,
            step_hz=1000.0,
            frames_per_step=2,
            source=SimulateSource(scenario=scenario),
            seed=5,
        )
        serial = run_sweep(SweepConfig(**base, workers=1))
        pooled = run_sweep(SweepConfig(**base, workers=4))
        assert serial.points == pooled.points

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
        result = run_sweep(cfg)
        assert result.frames_per_point == [2, 2, 2]
        assert result.values == [0.0, 0.0, 0.0]  # flat frames have no row noise

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
        assert err.value.partial.points == [(100.0, 0.0)]

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
            result = read_csv(path)
        except CsvParseError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert all(math.isfinite(x) for point in result.points for x in point)

    def test_golden_line(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(SweepResult(points=[(25000.0, 8.80694)]), path)
        assert path.read_text() == "frequency_hz,row_noise\n25000,8.8069\n"

    def test_fractional_frequency_kept(self, tmp_path):
        path = tmp_path / "frac.csv"
        write_csv(SweepResult(points=[(50.5, 1.0)]), path)
        assert "50.5,1.0000" in path.read_text()

    def test_round_trip(self, tmp_path):
        points = [(50.0, 0.1234), (1050.0, 27.32), (2050.0, 0.0)]
        path = tmp_path / "rt.csv"
        write_csv(SweepResult(points=points), path)
        back = read_csv(path)
        assert back.frequencies == [50.0, 1050.0, 2050.0]
        assert back.values == [0.1234, 27.32, 0.0]

    def test_header_only_is_valid_and_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frequency_hz,row_noise\n")
        assert read_csv(path).points == []

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


def bump_result() -> SweepResult:
    """Flat 0.2 DN curve with a triangular bump on [60 kHz, 140 kHz], apex 10 DN
    at 100 kHz. All values are exact at 4 decimals so CSV trips are lossless."""
    points = []
    for f in range(50_000, 151_000, 1000):
        if 60_000 <= f <= 140_000:
            v = 0.5 + 9.5 * (1.0 - abs(f - 100_000) / 40_000.0)
        else:
            v = 0.2
        points.append((float(f), v))
    return SweepResult(points=points)


class TestReport:
    def test_flat_zero_curve_has_no_areas(self):
        result = SweepResult(points=[(float(f), 0.0) for f in range(100, 2100, 100)])
        report = analyze_report(result)  # default baseline threshold
        assert report.areas_of_concern_hz == []
        assert report.row_noise_start_hz is None
        assert report.peak_row_noise_dn == 0.0
        assert report.peak_hz == 100.0  # earliest point wins the tie

    def test_bump_landmarks(self):
        report = analyze_report(bump_result(), Absolute(0.3))
        assert report.row_noise_start_hz == 60_000.0
        assert report.peak_hz == 100_000.0
        assert report.peak_row_noise_dn == 10.0
        assert report.areas_of_concern_hz == [(60_000.0, 140_000.0)]
        assert report.threshold_dn == 0.3

    def test_round_trip_is_idempotent(self, tmp_path):
        path = tmp_path / "bump.csv"
        original = analyze_report(bump_result(), Absolute(0.3))
        write_csv(bump_result(), path)
        reloaded = analyze_report(read_csv(path), Absolute(0.3))
        assert reloaded == original

    def test_baseline_sigma_threshold(self):
        values = [0.10, 0.12, 0.11, 0.09, 0.10, 0.10, 5.0, 0.10]
        result = SweepResult(
            points=[(float(100 * (i + 1)), v) for i, v in enumerate(values)]
        )
        report = analyze_report(result, BaselineSigma(k=5.0, window=5))
        assert report.areas_of_concern_hz == [(700.0, 700.0)]
        assert report.row_noise_start_hz == 700.0

    def test_window_larger_than_curve_rejected(self):
        result = SweepResult(points=[(100.0, 0.1), (200.0, 0.1)])
        with pytest.raises(ValueError):
            analyze_report(result, BaselineSigma(k=5.0, window=10))

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            analyze_report(SweepResult(points=[]))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Absolute(-0.1)
        with pytest.raises(ValueError):
            BaselineSigma(k=0.0)
        with pytest.raises(ValueError):
            BaselineSigma(window=1)

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
        result = SweepResult(points=[(100.0, 0.2), (200.0, 20.2), (300.0, 0.2)])
        with pytest.raises(ValueError, match="overflows"):
            analyze_report(result, BaselineSigma(k=1e308, window=2))

    def test_overflowing_baseline_values_blame_the_baseline(self):
        # The mean of two 1e308 points overflows, whatever k is.
        result = SweepResult(points=[(100.0, 1e308), (200.0, 1e308), (300.0, 0.2)])
        with pytest.raises(ValueError, match="baseline of the first 2 points"):
            analyze_report(result, BaselineSigma(k=1.0, window=2))

    def test_text_fields(self):
        text = analyze_report(bump_result(), Absolute(0.3)).to_text()
        assert "Row Noise Start" in text
        assert "Peak Row Noise" in text
        assert "Areas of Concern" in text
        assert "100 kHz" in text

    def test_text_no_areas_wording(self):
        result = SweepResult(points=[(float(f), 0.0) for f in range(100, 1200, 100)])
        text = analyze_report(result).to_text()
        assert "no areas of concern" in text

    def test_json_dict_keys(self):
        doc = asdict(analyze_report(bump_result(), Absolute(0.3)))
        assert set(doc) == {
            "row_noise_start_hz",
            "peak_hz",
            "peak_row_noise_dn",
            "areas_of_concern_hz",
            "threshold_dn",
        }


class TestPlot:
    def test_svg_and_data_file(self, tmp_path):
        result = SweepResult(points=[(100.0, 1.0), (200.0, 2.0), (300.0, 0.5)])
        svg = tmp_path / "curve.svg"
        emit_plot_data(result, svg)
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
            emit_plot_data(SweepResult(points=[]), tmp_path / "x.svg")


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
            workers=2,
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
