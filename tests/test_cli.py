"""End-to-end command line tests, driven through main() for speed, with
subprocess checks of the module entry point and of SIGTERM."""

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import resource
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rownoise import cli, imageio, mitigation, sensor, sweep
from rownoise.cli import MITIGATE_METHODS, UsageError, build_parser, main
from rownoise.imageio import write_image
from rownoise.sensor import Frame, SimScenario, scenario_from_json, simulate_stack
from rownoise.sweep import CsvParseError, SweepConfig

PHASE = str(math.pi / 4.0)
SMALL_FLAGS = [
    "--width", "16", "--active-rows", "64", "--blanking-rows", "36",
    "--pedestal", "128",
]
# 1.5x the 3 kHz line rate of the small geometry: strong 1-row banding.
BANDED_FLAGS = SMALL_FLAGS + [
    "--noise-freq", "4500", "--noise-amp", "1.0", "--noise-phase", PHASE,
]


def write_pgm(path, rows):
    grid = np.repeat(np.asarray(rows, dtype=np.uint8)[:, None], 4, axis=1)
    write_image(Frame(pixels=grid[None]), path)


def write_bmp(path, rgb):
    """Write a (rows, width, 3) uint8 array as a bottom-up 24-bit BMP."""
    rows, width, _ = rgb.shape
    pad = b"\x00" * (-(width * 3) % 4)
    payload = b"".join(row[:, ::-1].tobytes() + pad for row in rgb[::-1])
    header = struct.pack("<2sIHHI", b"BM", 54 + len(payload), 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, width, rows, 1, 24, 0, len(payload), 0, 0, 0, 0)
    path.write_bytes(header + info + payload)


def write_noise_stack(directory, frames, width, rows):
    """frames PGMs of uniform noise, im1.pgm on, in a new directory."""
    directory.mkdir()
    rng = np.random.default_rng(frames)
    for i in range(1, frames + 1):
        pixels = rng.integers(0, 256, (1, rows, width), dtype=np.uint8)
        write_image(Frame(pixels=pixels), directory / f"im{i}.pgm")
    return directory


def traced_peak(argv) -> int:
    """Peak bytes tracemalloc sees while main(argv) runs to exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSimulate:
    def test_writes_numbered_frames_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["simulate", "--noise-freq", "126000", "--noise-amp", "1.0",
             "--frames", "3", "--out-dir", str(out)]
        )
        assert code == 0
        for name in ("im1.pgm", "im2.pgm", "im3.pgm"):
            assert (out / name).exists()
        sidecar = json.loads((out / "config.json").read_text())
        assert sidecar["command"] == "simulate"
        assert sidecar["frames"] == 3
        assert sidecar["scenario"]["supply"]["frequency_hz"] == 126000.0
        assert "prefix" not in sidecar  # frames are always named im<n>

    def test_channels_outside_the_sensor_rule_is_usage_error(self, tmp_path, capsys):
        # The library parser, not argparse, judges the value.
        assert main(["simulate", *SMALL_FLAGS, "--channels", "2", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: channels must be one of 1, 3, got 2\n"
        assert not list(tmp_path.iterdir())

    def test_nonzero_prnu_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--prnu", "0.01", "--out-dir", str(tmp_path)]) == 2
        assert "illumination is not modelled" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_zero_frames_is_usage_error(self, tmp_path):
        assert main(["simulate", "--frames", "0", "--out-dir", str(tmp_path)]) == 2

    def test_same_seed_reproduces_byte_identical_frames(self, tmp_path):
        args = BANDED_FLAGS + ["--read-noise", "2.0", "--seed", "42", "--frames", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", *args, "--out-dir", str(a)]) == 0
        assert main(["simulate", *args, "--out-dir", str(b)]) == 0
        assert (a / "im1.pgm").read_bytes() == (b / "im1.pgm").read_bytes()
        assert (a / "im2.pgm").read_bytes() == (b / "im2.pgm").read_bytes()

    def test_sidecar_reruns_the_same_capture(self, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert main(["simulate", *BANDED_FLAGS, "--frames", "2",
                     "--out-dir", str(first)]) == 0
        assert main(["simulate", "--config", str(first / "config.json"),
                     "--out-dir", str(again)]) == 0
        assert (first / "im1.pgm").read_bytes() == (again / "im1.pgm").read_bytes()
        assert (again / "im2.pgm").exists()  # frame count came from the sidecar

    def test_flag_overrides_config(self, tmp_path, capsys):
        first = tmp_path / "first"
        muted = tmp_path / "muted"
        assert main(["simulate", *BANDED_FLAGS, "--frames", "1",
                     "--out-dir", str(first)]) == 0
        assert main(["simulate", "--config", str(first / "config.json"),
                     "--noise-amp", "0", "--out-dir", str(muted)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(muted / "im1.pgm")]) == 0
        assert capsys.readouterr().out.strip() == "0.0000"

    def test_three_channels_write_ppm(self, tmp_path):
        out = tmp_path / "rgb"
        assert main(["simulate", *SMALL_FLAGS, "--channels", "3", "--frames", "1",
                     "--out-dir", str(out)]) == 0
        assert (out / "im1.ppm").exists()

    def test_invalid_scenario_value_is_usage_error(self, tmp_path):
        assert main(["simulate", "--pedestal", "900", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flags", [["--noise-freq", "nan", "--noise-amp", "1"], ["--fps", "inf"]]
    )
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, flags):
        assert main(["simulate", *SMALL_FLAGS, *flags, "--out-dir", str(tmp_path)]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_frames_are_the_stack_and_stdout_names_them(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", *BANDED_FLAGS, "--read-noise", "2", "--dsnu", "0.5",
                     "--frames", "3", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote im1.pgm, im2.pgm, im3.pgm and config.json to {out}\n"
        scenario = json.loads((out / "config.json").read_text())["scenario"]
        for i, frame in enumerate(simulate_stack(scenario_from_json(json.dumps(scenario)), 3), 1):
            write_image(frame, tmp_path / "expected.pgm")
            assert (out / f"im{i}.pgm").read_bytes() == (tmp_path / "expected.pgm").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.pgm", "run"]

    @pytest.mark.peak_memory
    def test_peak_memory_does_not_grow_with_frames(self, tmp_path):
        # Each frame is written as it is made, so eight frames peak no
        # higher than four by as much as one frame. From four frames on, a
        # pair is made while the writer still holds the frame before it.
        # Frames take milliseconds, so the two threads of a pair overlap
        # whatever the thread start-up takes; the baseline is the higher
        # of two runs, in case they did not.
        width, rows = 640, 480

        def peak(frames: int, run: int = 0) -> int:
            return traced_peak(["simulate", "--width", str(width), "--active-rows", str(rows),
                                "--read-noise", "2", "--frames", str(frames),
                                "--out-dir", str(tmp_path / f"{frames}-{run}")])

        peak(1)  # imports and caches
        assert peak(8) - max(peak(4), peak(4, 1)) < width * rows

    def test_overflow_in_a_later_frame_writes_nothing(self, tmp_path, capsys):
        # Frame 0 is read out within 1/60 s; frame 1 starts at 2 s, where
        # 2 pi f t overflows.
        argv = ["simulate", "--width", "4", "--active-rows", "4", "--fps", "0.5",
                "--noise-freq", "2e307", "--noise-amp", "1"]
        assert main([*argv, "--frames", "1", "--out-dir", str(tmp_path / "one")]) == 0
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "im1.pgm").write_bytes(b"an earlier run")
        for out in (kept, tmp_path / "new" / "deeper"):
            capsys.readouterr()
            assert main([*argv, "--frames", "3", "--out-dir", str(out)]) == 2
            assert "overflow" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "one"]
        assert [p.name for p in kept.iterdir()] == ["im1.pgm"]
        assert (kept / "im1.pgm").read_bytes() == b"an earlier run"

    def test_overflowing_scenario_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["simulate", "--width", "4", "--active-rows", "4", "--noise-freq", "1e308",
                     "--noise-amp", "1", "--frames", "1", "--out-dir", str(out)]) == 2
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_reset_noise_overflow_is_usage_error(self, tmp_path, capsys):
        # The kTC sigma is inf; unchecked, the frame came out as random 0s
        # and 255s with exit 0.
        out = tmp_path / "d"
        assert main(["simulate", "--width", "8", "--active-rows", "8", "--frames", "1",
                     "--reset", "--reset-temp", "1e308", "--reset-cap", "1e-308",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "temperature 1e+308 K and capacitance 1e-308 F overflow float64" in err
        assert not list(tmp_path.iterdir())

    def test_dark_signal_past_the_poisson_limit_is_usage_error(self, tmp_path, capsys):
        # numpy's Poisson draw would reject the mean, naming no field.
        assert main(["simulate", "--width", "8", "--active-rows", "8", "--frames", "1",
                     "--shot", "--dark-signal-e", "1e308", "--out-dir", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dark_signal_e must be in [0, ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # no staging directory, no out-dir

    def test_failing_frame_with_helper_lane_leaves_nothing(self, tmp_path, capsys):
        # The read noise of both frames of the pair overflows, one frame
        # on the stack's helper thread, with flicker drawn first.
        before = threading.active_count()
        assert main(["simulate", "--width", "16", "--active-rows", "8", "--frames", "2",
                     "--flicker", "--flicker-scale", "1", "--read-noise", "1e308",
                     "--out-dir", str(tmp_path / "d")]) == 2
        assert "overflow" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no .rownoise-* staging directory, no out-dir
        assert threading.active_count() == before

    def test_frame_failing_on_the_helper_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        # Frame im2 of each pair is made on the stack's helper thread.
        real = sensor._frame_in_pieces

        def fail_on_helper(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("a frame made on a helper thread failed")
            return real(*args)

        monkeypatch.setattr(sensor, "_frame_in_pieces", fail_on_helper)
        before = threading.active_count()
        assert main(["simulate", "--width", "16", "--active-rows", "8", "--frames", "3",
                     "--reset", "--out-dir", str(tmp_path / "d")]) == 2
        assert "helper thread failed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no .rownoise-* staging directory, no out-dir
        assert threading.active_count() == before

    def test_out_of_memory_is_a_clean_exit_1(self, tmp_path):
        # The frame's uint8 pixels are 9.3 GiB. In a child whose address
        # space is capped at 1.5 GiB the allocation fails at once, where
        # without the cap it could be granted lazily and the child killed.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))

        out = tmp_path / "d"
        proc = subprocess.run(
            [sys.executable, "-m", "rownoise.cli", "simulate", "--width", "100000",
             "--active-rows", "100000", "--frames", "1", "--out-dir", str(out)],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not list(tmp_path.iterdir())  # no staging directory, no out-dir


# Sidecars as a release with the sensor field bit_depth wrote them, and
# the sha256 of the files that release made from them.
OLD_SENSOR = (
    '{"active_rows": 12, "bit_depth": 8, "blanking_rows": 4, "channels": 1, '
    '"dn_per_volt": 77.27272727272728, "fps": 30.0, "optical_black_rows": %d, '
    '"pedestal_dn": 16.0, "width": 16}'
)
OLD_TEMPORAL = (
    '{"cds_enabled": false, "dark_signal_e": 0.0, "flicker_enabled": false, '
    '"flicker_scale_dn": 0.0, "read_noise_dn": %s, "reset_cap_f": 5e-15, '
    '"reset_enabled": false, "reset_temp_k": 300.0, "shot_enabled": false}'
)
OLD_SIMULATE_SIDECAR = (
    '{"command": "simulate", "frames": 2, "out_dir": "sim", "prefix": "im", "scenario": {'
    '"seed": 7, "sensor": ' + OLD_SENSOR % 2 + ', '
    '"spatial": {"column_fpn_dn": 0.0, "dsnu_dn": 0.5, "prnu_fraction": 0.0}, '
    '"supply": {"amplitude_vpp": 0.3, "coupling_gain": 1.0, "frequency_hz": 1730.0, '
    '"phase_mode": "continuous", "phase_rad": 0.0, "rc_cutoff_hz": null}, '
    '"temporal": ' + OLD_TEMPORAL % "1.5" + '}}'
)
OLD_SIMULATE_PINS = {
    "im1.pgm": "347595e21cf3ccdb32621d34c4adfc9c2017deabfe1d2ebf6488738140434488",
    "im2.pgm": "eed622153b509525f700012b0138dc3360a9475825aec007f4e09d2952840955",
}
OLD_SWEEP_SIDECAR = (
    '{"command": "sweep", "out": "s.csv", "config": {"amplitude_vpp": 1.0, "end_hz": 300.0, '
    '"frames_per_step": 2, "seed": 5, "start_hz": 100.0, "step_hz": 100.0, "workers": 1, '
    '"source": {"mode": "simulate", "scenario": {"seed": 0, "sensor": ' + OLD_SENSOR % 0 + ', '
    '"spatial": {"column_fpn_dn": 0.0, "dsnu_dn": 0.0, "prnu_fraction": 0.0}, '
    '"supply": {"amplitude_vpp": 0.0, "coupling_gain": 1.0, "frequency_hz": 0.0, '
    '"phase_mode": "continuous", "phase_rad": 0.0, "rc_cutoff_hz": null}, '
    '"temporal": ' + OLD_TEMPORAL % "1.0" + '}}}}'
)
OLD_SWEEP_PIN = "de3ea7c3e7cd3440f1254c2f24629ddee6298f493b1b8c19f6f484d1b12858b9"


# Each retired key and its one legal value.
RETIRED = {"bit_depth": 8, "workers": 1}


class TestRetiredKeys:
    """The sensor's bit_depth had one legal value, 8, and the sweep's
    workers has one, 1. Old sidecars carrying them replay to the same
    bytes and the sidecars written afterwards drop them; any other value
    is a usage error."""

    def test_simulate_sidecar_replays(self, tmp_path):
        (tmp_path / "old.json").write_text(OLD_SIMULATE_SIDECAR)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(tmp_path / "old.json"),
                     "--out-dir", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("im*")}
        assert got == OLD_SIMULATE_PINS
        assert "bit_depth" not in (out / "config.json").read_text()

    @pytest.mark.parametrize("key", RETIRED)
    def test_sweep_sidecar_replays(self, tmp_path, key):
        (tmp_path / "old.json").write_text(OLD_SWEEP_SIDECAR)
        csv = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(tmp_path / "old.json"), "--out", str(csv)]) == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == OLD_SWEEP_PIN
        config = json.loads((tmp_path / "s.csv.config.json").read_text())["config"]
        assert f'"{key}"' not in json.dumps(config)

    @pytest.mark.parametrize("given", ["flag", "document"])
    def test_workers_1_loads_and_is_dropped(self, tmp_path, given):
        if given == "flag":
            argv = [*SMALL_FLAGS, "--start", "100", "--end", "300", "--step", "100",
                    "--workers", "1"]
        else:
            doc = {"start_hz": 100, "end_hz": 300, "step_hz": 100, "workers": 1,
                   "source": {"scenario": {"sensor": {"width": 16, "active_rows": 64}}}}
            (tmp_path / "bare.json").write_text(json.dumps(doc))
            argv = ["--config", str(tmp_path / "bare.json")]
        csv = tmp_path / "s.csv"
        assert main(["sweep", *argv, "--out", str(csv)]) == 0
        assert len(csv.read_text().splitlines()) == 4
        assert "workers" not in json.loads((tmp_path / "s.csv.config.json").read_text())["config"]

    @pytest.mark.parametrize(
        "command, key, value",
        [
            *[(command, "bit_depth", value)
              for command in ("simulate", "sweep") for value in ("12", "8.0")],
            *[("sweep", "workers", value) for value in ("2", "true", "1.0", '"1"')],
        ],
    )
    def test_other_values_are_usage_errors(self, tmp_path, capsys, command, key, value):
        if command == "simulate":
            doc, argv = OLD_SIMULATE_SIDECAR, ["--out-dir", str(tmp_path / "sim")]
        else:
            doc, argv = OLD_SWEEP_SIDECAR, ["--out", str(tmp_path / "s.csv")]
        old = f'"{key}": {RETIRED[key]}'
        assert old in doc
        (tmp_path / "old.json").write_text(doc.replace(old, f'"{key}": {value}'))
        assert main([command, "--config", str(tmp_path / "old.json"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]

    @pytest.mark.parametrize("value", ["2", "0", "-1"])
    def test_other_workers_flags_are_usage_errors(self, tmp_path, capsys, value):
        # The flag reaches the document parser, which owns the rule.
        assert main(["sweep", *SMALL_FLAGS, "--start", "100", "--end", "100",
                     "--workers", value, "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workers") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestAnalyze:
    def test_quiet_frames_print_zero(self, tmp_path, capsys):
        out = tmp_path / "quiet"
        main(["simulate", *SMALL_FLAGS, "--frames", "3", "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "0.0000"

    def test_directory_ingested_in_name_order(self, tmp_path, capsys):
        write_pgm(tmp_path / "im1.pgm", [50] * 4)
        write_pgm(tmp_path / "im10.pgm", [50, 50, 60, 50])
        write_pgm(tmp_path / "im2.pgm", [10, 20, 10, 20])
        assert main(["analyze", "--per-frame", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split("\t")[0] for l in lines[:3]] == ["im1.pgm", "im10.pgm", "im2.pgm"]
        assert lines[0].endswith("0.0000")
        assert lines[1].endswith("5.0000")
        assert lines[2].endswith("5.7735")

    def test_mismatched_dimensions_name_the_file(self, tmp_path, capsys):
        write_pgm(tmp_path / "im1.pgm", [50] * 4)
        odd = np.zeros((1, 6, 4), dtype=np.uint8)
        write_image(Frame(pixels=odd), tmp_path / "im2.pgm")
        assert main(["analyze", str(tmp_path)]) == 1
        assert "im2.pgm" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.pgm")]) == 1

    @pytest.mark.peak_memory
    def test_peak_memory_does_not_grow_with_frames(self, tmp_path, capsys):
        # Frames are read and measured one at a time, so eight frames peak
        # no higher than two by as much as one frame.
        width, rows = 128, 96

        def peak(frames: int) -> int:
            images = write_noise_stack(tmp_path / str(frames), frames, width, rows)
            return traced_peak(["analyze", str(images)])

        peak(1)  # imports and caches
        assert peak(8) - peak(2) < width * rows

    def test_one_row_image_is_runtime_error(self, tmp_path, capsys):
        write_pgm(tmp_path / "im1.pgm", [50])
        assert main(["analyze", str(tmp_path / "im1.pgm")]) == 1
        assert "im1.pgm" in capsys.readouterr().err

    def test_directory_without_images_is_runtime_error(self, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 1

    def test_csv_output_with_sidecar(self, tmp_path, capsys):
        write_pgm(tmp_path / "im1.pgm", [10, 20, 10, 20])
        csv = tmp_path / "per_frame.csv"
        assert main(["analyze", str(tmp_path / "im1.pgm"), "--csv", str(csv)]) == 0
        assert csv.read_text().splitlines()[0] == "frame,row_noise"
        assert "im1.pgm,5.7735" in csv.read_text()
        assert (tmp_path / "per_frame.csv.config.json").exists()

    @pytest.mark.parametrize("inputs, named", [
        (["im1.pgm", "im2.pgm"], "im2.pgm"), (["."], "im2.pgm"), (["link.pgm"], "link.pgm"),
    ], ids=["files", "directory", "link"])
    def test_csv_on_an_input_is_usage_error(self, tmp_path, capsys, monkeypatch, inputs, named):
        # Exit 2 before any image is read, naming both files; every file
        # is left as it was.
        monkeypatch.chdir(tmp_path)
        for name in ("im1.pgm", "im2.pgm"):
            write_pgm(tmp_path / name, [10, 20, 10, 20])
        (tmp_path / "link.pgm").symlink_to("im2.pgm")
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(imageio, "read_image", None)  # reading an image would raise
        assert main(["analyze", *inputs, "--csv", "im2.pgm"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --csv im2.pgm would overwrite the input {named}\n"
        )
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_corrupt_image_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "im1.pgm"
        bad.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 32)
        assert main(["analyze", str(bad)]) == 1
        assert "maxval" in capsys.readouterr().err


class TestSweepCli:
    def run_small_sweep(self, tmp_path, name, extra=()):
        csv = tmp_path / name
        code = main(
            ["sweep", *SMALL_FLAGS, "--start", "3550", "--end", "6550",
             "--step", "1000", "--frames-per-step", "1", "--read-noise", "1.0",
             "--out", str(csv), *extra]
        )
        return code, csv

    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        code, csv = self.run_small_sweep(tmp_path, "s.csv")
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "frequency_hz,row_noise"
        assert len(lines) == 5  # 4 frequency points
        sidecar = json.loads((tmp_path / "s.csv.config.json").read_text())
        assert sidecar["command"] == "sweep"
        assert sidecar["config"]["start_hz"] == 3550.0

    def test_rerun_is_byte_identical(self, tmp_path):
        _, a = self.run_small_sweep(tmp_path, "a.csv")
        _, b = self.run_small_sweep(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_config_reruns_identically(self, tmp_path):
        _, a = self.run_small_sweep(tmp_path, "a.csv")
        d = tmp_path / "d.csv"
        assert main(["sweep", "--config", f"{a}.config.json", "--out", str(d)]) == 0
        assert a.read_bytes() == d.read_bytes()

    def test_plot_emitted(self, tmp_path):
        svg = tmp_path / "curve.svg"
        code, _ = self.run_small_sweep(tmp_path, "p.csv", extra=("--plot", str(svg)))
        assert code == 0
        assert "<svg" in svg.read_text()
        assert (tmp_path / "curve.dat").exists()

    @pytest.mark.parametrize("flag", ["--noise-freq", "--noise-amp"])
    def test_supply_tone_flags_are_not_sweep_flags(self, tmp_path, capsys, flag):
        # The sweep sets the frequency and the amplitude at each point.
        with pytest.raises(SystemExit) as err:
            main(["sweep", *SMALL_FLAGS, "--start", "100", "--end", "300", "--step", "100",
                  flag, "5000", "--out", str(tmp_path / "s.csv")])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "scenario, named",
        [({"seed": 4}, "seed"), ({"supply": {"frequency_hz": 5000.0}}, "supply.frequency_hz"),
         ({"supply": {"amplitude_vpp": 3.0}}, "supply.amplitude_vpp")],
    )
    def test_scenario_field_the_sweep_sets_is_usage_error(self, tmp_path, capsys,
                                                          scenario, named):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"source": {"scenario": {
            "sensor": {"width": 8, "active_rows": 4}, **scenario}}}))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--start", "100", "--end", "100",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"scenario's {named} must be 0" in err
        assert set(tmp_path.iterdir()) == {cfg}

    def test_grid_over_the_point_cap_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", *SMALL_FLAGS, "--start", "1", "--end", "1e12", "--step", "1",
                     "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "1000000000000 points" in err and "cap of 1000000" in err
        assert not list(tmp_path.iterdir())

    def test_hundred_point_grid(self, tmp_path):
        csv = tmp_path / "grid.csv"
        code = main(
            ["sweep", *SMALL_FLAGS, "--start", "50", "--end", "100000",
             "--step", "1000", "--frames-per-step", "1", "--width", "8",
             "--active-rows", "16", "--blanking-rows", "4", "--out", str(csv)]
        )
        assert code == 0
        assert len(csv.read_text().splitlines()) == 101  # header + 100 rows

    def test_one_row_is_usage_error_that_writes_nothing(self, tmp_path, capsys):
        code = main(["sweep", "--width", "8", "--active-rows", "1", "--start", "100",
                     "--end", "300", "--step", "100", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr() == ("", "error: need at least 2 rows, got 1\n")
        assert not list(tmp_path.iterdir())

    def test_bad_range_is_usage_error(self, tmp_path):
        assert main(["sweep", "--start", "500", "--end", "100",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def capture_rig(self, tmp_path, fail_above=None):
        out = tmp_path / "rig"
        out.mkdir()
        script = tmp_path / "rig.py"
        fail = f"{fail_above}" if fail_above is not None else "None"
        script.write_text(
            "import sys, pathlib\n"
            "out = pathlib.Path(sys.argv[1]); freq = int(sys.argv[2])\n"
            f"if {fail} is not None and freq > {fail}:\n"
            "    sys.exit(3)\n"
            "data = b'P5\\n4 6\\n255\\n' + bytes([freq % 200]) * 24\n"
            "for name in ('im1.pgm', 'im2.pgm'):\n"
            "    (out / name).write_bytes(data)\n"
        )
        cmd = (
            f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} "
            f"{shlex.quote(str(out))} {{freq}}"
        )
        return cmd, out

    def test_capture_command_sweep(self, tmp_path):
        cmd, rig_dir = self.capture_rig(tmp_path)
        csv = tmp_path / "cap.csv"
        code = main(
            ["sweep", "--start", "100", "--end", "300", "--step", "100",
             "--capture-cmd", cmd, "--capture-dir", str(rig_dir),
             "--out", str(csv)]
        )
        assert code == 0
        assert len(csv.read_text().splitlines()) == 4

    def test_capture_failure_saves_partial_and_exits_nonzero(self, tmp_path, capsys):
        cmd, rig_dir = self.capture_rig(tmp_path, fail_above=150)
        csv = tmp_path / "part.csv"
        code = main(
            ["sweep", "--start", "100", "--end", "300", "--step", "100",
             "--capture-cmd", cmd, "--capture-dir", str(rig_dir),
             "--out", str(csv)]
        )
        assert code == 1
        assert "partial" in capsys.readouterr().err
        assert csv.read_text().splitlines() == ["frequency_hz,row_noise", "100,0.0000"]

    def test_capture_reads_only_images_as_analyze_does(self, tmp_path, capsys):
        cmd, rig_dir = self.capture_rig(tmp_path)
        (rig_dir / "im.log").write_text("hi\n")  # matches the im* pattern
        csv = tmp_path / "cap.csv"
        assert main(["sweep", "--start", "100", "--end", "100", "--step", "100",
                     "--capture-cmd", cmd, "--capture-dir", str(rig_dir),
                     "--out", str(csv)]) == 0
        assert csv.read_text().splitlines() == ["frequency_hz,row_noise", "100,0.0000"]
        assert main(["analyze", str(rig_dir)]) == 0

    def test_capture_sidecar_with_workers_replays(self, tmp_path):
        # As a release with the sweep field workers wrote it: seed and
        # frames_per_step at their defaults, which a capture sweep takes.
        cmd, rig_dir = self.capture_rig(tmp_path)
        config = {
            "amplitude_vpp": 1.0, "end_hz": 200.0, "frames_per_step": 3, "seed": 0,
            "source": {"command": cmd, "image_dir": str(rig_dir), "mode": "capture",
                       "pattern": "im*"},
            "start_hz": 100.0, "step_hz": 100.0, "workers": 1,
        }
        sidecar = {"command": "sweep", "out": "cap.csv", "config": config}
        (tmp_path / "old.json").write_text(json.dumps(sidecar))
        csv = tmp_path / "cap.csv"
        assert main(["sweep", "--config", str(tmp_path / "old.json"), "--out", str(csv)]) == 0
        assert csv.read_text().splitlines()[1:] == ["100,0.0000", "200,0.0000"]

    def test_capture_cmd_requires_capture_dir(self, tmp_path):
        assert main(["sweep", "--capture-cmd", "true",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_capture_placeholder_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--capture-cmd", "rig {hz}", "--capture-dir", str(tmp_path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "{hz}" in capsys.readouterr().err

    def test_capture_config_file_with_flag_override(self, tmp_path):
        cmd, rig_dir = self.capture_rig(tmp_path)
        cfg = tmp_path / "cap.json"
        cfg.write_text(json.dumps({
            "source": {"mode": "capture", "command": cmd, "image_dir": str(rig_dir),
                       "pattern": "nothing*"},
            "start_hz": 100, "end_hz": 200, "step_hz": 100,
        }))
        csv = tmp_path / "cap.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(csv)]) == 1
        assert main(["sweep", "--config", str(cfg), "--capture-glob", "im*",
                     "--out", str(csv)]) == 0
        assert csv.read_text().splitlines()[1:] == ["100,0.0000", "200,0.0000"]

    @pytest.mark.parametrize("case", ["out in a missing directory", "out is a directory",
                                      "plot in a missing directory", "plot is a directory"])
    def test_unwritable_output_fails_before_the_first_point(self, tmp_path, capsys, case):
        # A capture sweep can hold a bench for hours: a path the sweep's
        # writes would fail on exits 1 with the write's error before the
        # rig is called, and no file is written.
        cmd, rig_dir = self.capture_rig(tmp_path)
        calls = tmp_path / "calls.log"
        cmd = f"echo {{freq}} >> {shlex.quote(str(calls))} && {cmd}"
        out, plot = {
            "out in a missing directory": (tmp_path / "gone" / "s.csv", None),
            "out is a directory": (rig_dir, None),
            "plot in a missing directory": (tmp_path / "s.csv", tmp_path / "gone" / "s.svg"),
            "plot is a directory": (tmp_path / "s.csv", rig_dir),
        }[case]
        before = sorted(tmp_path.rglob("*"))
        code = main(["sweep", "--start", "100", "--end", "300", "--step", "100",
                     "--capture-cmd", cmd, "--capture-dir", str(rig_dir), "--out", str(out),
                     *(["--plot", str(plot)] if plot else [])])
        assert code == 1
        with pytest.raises(OSError) as write_error:
            (plot or out).write_text("")
        assert capsys.readouterr().err == f"error: {write_error.value}\n"
        assert not calls.exists()
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out, plot, message", [
        ("s.dat", "s.svg", "--out and the data file of --plot would both write"),
        ("s.svg", "s.svg", "--out and --plot would both write"),
        ("p.csv", "p.csv", "--out and --plot would both write"),
    ])
    def test_outputs_that_overwrite_each_other_fail_before_the_first_point(
        self, tmp_path, capsys, out, plot, message
    ):
        # The CSV, its sidecar, the SVG and the SVG's .dat are four files:
        # two of them on one path exit 2 before the rig is called.
        cmd, rig_dir = self.capture_rig(tmp_path)
        calls = tmp_path / "calls.log"
        cmd = f"echo {{freq}} >> {shlex.quote(str(calls))} && {cmd}"
        before = sorted(tmp_path.rglob("*"))
        code = main(["sweep", "--start", "100", "--end", "300", "--step", "100",
                     "--capture-cmd", cmd, "--capture-dir", str(rig_dir),
                     "--out", str(tmp_path / out), "--plot", str(tmp_path / plot)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message} {tmp_path / out}\n")
        assert not calls.exists()
        assert sorted(tmp_path.rglob("*")) == before

    def test_interrupt_saves_the_points_before_it(self, tmp_path, capsys, monkeypatch):
        # Ctrl-C at step 2 of a capture sweep keeps the first 2 points.
        cmd, rig_dir = self.capture_rig(tmp_path)
        argv = ["sweep", "--start", "100", "--end", "400", "--step", "100",
                "--capture-cmd", cmd, "--capture-dir", str(rig_dir)]
        full = tmp_path / "full.csv"
        assert main([*argv, "--out", str(full)]) == 0
        real, steps = sweep._measure_captured, []

        def measure(config, freq):
            steps.append(freq)
            if len(steps) == 3:
                raise KeyboardInterrupt
            return real(config, freq)

        monkeypatch.setattr(sweep, "_measure_captured", measure)
        capsys.readouterr()
        cut = tmp_path / "cut.csv"
        assert main([*argv, "--out", str(cut)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: interrupted (partial results saved to {cut})\n"
        assert cut.read_text().splitlines() == full.read_text().splitlines()[:3]

    def test_interrupt_keeps_its_cause(self, monkeypatch):
        def measure(config, freq):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep, "_measure_captured", measure)
        config = SweepConfig(start_hz=100.0, end_hz=100.0, step_hz=100.0,
                             source=sweep.CaptureSource(command="true", image_dir="rig"))
        with pytest.raises(sweep.CaptureError, match="^interrupted$") as caught:
            sweep.run_sweep(config)
        assert caught.value.partial == []
        assert isinstance(caught.value.__cause__, KeyboardInterrupt)

    def test_failed_capture_sweep_writes_a_sidecar_that_replays(self, tmp_path, capsys):
        # The rig fails at step 2 while the file broken exists. The partial
        # run's sidecar records the 2 points and the error, and replays the
        # whole sweep once the rig works.
        cmd, rig_dir = self.capture_rig(tmp_path)
        argv = ["sweep", "--start", "100", "--end", "400", "--step", "100",
                "--capture-dir", str(rig_dir)]
        full = tmp_path / "full.csv"
        assert main([*argv, "--capture-cmd", cmd, "--out", str(full)]) == 0
        assert json.loads(Path(f"{full}.config.json").read_text()).keys() == {
            "command", "config", "out"}
        broken = tmp_path / "broken"
        broken.touch()
        failing = f"[ {{freq}} -lt 300 ] || [ ! -e {shlex.quote(str(broken))} ] && {cmd}"
        cut = tmp_path / "cut.csv"
        assert main([*argv, "--capture-cmd", failing, "--out", str(cut)]) == 1
        error = "capture command failed at 300.0 Hz (exit 1)"
        assert capsys.readouterr().err == f"error: {error} (partial results saved to {cut})\n"
        assert cut.read_text().splitlines() == full.read_text().splitlines()[:3]
        sidecar = json.loads(Path(f"{cut}.config.json").read_text())
        assert (sidecar["completed"], sidecar["error"]) == (2, error)
        assert sidecar["config"]["source"]["command"] == failing
        broken.unlink()
        again = tmp_path / "again.csv"
        assert main(["sweep", "--config", f"{cut}.config.json", "--out", str(again)]) == 0
        assert again.read_bytes() == full.read_bytes()

    def test_sigterm_saves_the_points_before_it(self, tmp_path):
        # The rig sends SIGTERM to the sweep at step 2: the sweep unwinds
        # as on Ctrl-C, and the CSV and the sidecar keep the first 2 points.
        cmd, rig_dir = self.capture_rig(tmp_path)
        cmd = f"if [ {{freq}} = 300 ]; then kill -TERM $PPID; sleep 10; fi; {cmd}"
        cut = tmp_path / "cut.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rownoise.cli", "sweep", "--start", "100", "--end", "400",
             "--step", "100", "--capture-cmd", cmd, "--capture-dir", str(rig_dir),
             "--out", str(cut)],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: interrupted (partial results saved to {cut})\n"
        assert cut.read_text().splitlines() == ["frequency_hz,row_noise", "100,0.0000",
                                                "200,0.0000"]
        sidecar = json.loads(Path(f"{cut}.config.json").read_text())
        assert (sidecar["completed"], sidecar["error"]) == (2, "interrupted")


class TestConfigDocuments:
    """Malformed config files are usage errors: exit 2, one error line."""

    def run(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code = main([*argv, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return code

    @pytest.mark.parametrize(
        "doc",
        [
            {"source": {"mode": "capture"}},
            {"source": "simulate"},
            {"source": {"mode": "simulate", "scenario": "x"}},
            {"command": "sweep", "config": "x"},
            {"source": {"mode": "bogus"}},
        ],
        ids=["capture_without_command", "source_not_object", "scenario_not_object",
             "sidecar_config_not_object", "unknown_mode"],
    )
    def test_sweep(self, tmp_path, capsys, doc):
        out = tmp_path / "x.csv"
        assert self.run(tmp_path, capsys, ["sweep", "--out", str(out)], doc) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [{"scenario": "x"}, {"sensor": {"width": 64.5}}, {"sensor": 3}, {"seed": [1]},
         {"sensor": {"width": 8, "active_rows": 4, "fps": 10**400}}],
        ids=["sidecar_scenario_not_object", "float_width", "section_not_object",
             "seed_not_integer", "integer_beyond_float_range"],
    )
    def test_simulate(self, tmp_path, capsys, doc):
        out = tmp_path / "out"
        assert self.run(tmp_path, capsys, ["simulate", "--out-dir", str(out)], doc) == 2
        assert not out.exists()


class TestMisplacedFlags:
    """A flag the sweep source does not take reaches the document parser as
    an unknown key: exit 2, one error line naming it, nothing written."""

    def usage_error(self, tmp_path, capsys, argv) -> str:
        before = set(tmp_path.iterdir())
        assert main(["sweep", *argv, "--start", "100", "--end", "100",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert set(tmp_path.iterdir()) == before  # no CSV, no sidecar
        return err

    def check(self, tmp_path, capsys, argv, key):
        assert repr(key) in self.usage_error(tmp_path, capsys, argv)

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--seed", "7"], "seed"),
            (["--frames-per-step", "9"], "frames_per_step"),
            (["--seed", "7", "--frames-per-step", "9"], "frames_per_step, seed"),
        ],
    )
    def test_simulation_flags_on_a_capture_sweep(self, tmp_path, capsys, flags, named):
        # The rig sets how many images a step reads, and nothing is drawn.
        argv = ["--capture-cmd", "true", "--capture-dir", str(tmp_path / "rig"), *flags]
        err = self.usage_error(tmp_path, capsys, argv)
        assert err.startswith(f"error: {named} must keep the default in a capture sweep")

    def test_scenario_flags_on_a_capture_sweep(self, tmp_path, capsys):
        argv = ["--capture-cmd", "true", "--capture-dir", str(tmp_path / "rig"),
                "--read-noise", "2", "--dsnu", "1"]
        self.check(tmp_path, capsys, argv, "scenario")

    def test_capture_dir_on_a_simulate_sweep(self, tmp_path, capsys):
        argv = ["--width", "8", "--active-rows", "4", "--capture-dir", str(tmp_path / "rig")]
        self.check(tmp_path, capsys, argv, "image_dir")

    def test_capture_cmd_on_a_simulate_config(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"source": {
            "mode": "simulate", "scenario": {"sensor": {"width": 8, "active_rows": 4}},
        }}))
        argv = ["--config", str(cfg), "--capture-cmd", "true",
                "--capture-dir", str(tmp_path / "rig")]
        self.check(tmp_path, capsys, argv, "scenario")

    def test_seed_is_the_sweep_seed_only(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--width", "8", "--active-rows", "4", "--start", "100",
                     "--end", "100", "--seed", "5", "--out", str(out)]) == 0
        config = json.loads((tmp_path / "s.csv.config.json").read_text())["config"]
        assert config["seed"] == 5
        assert config["source"]["scenario"]["seed"] == 0  # points seed from the sweep seed


def _names_a_field(cls, path: list[str]) -> bool:
    """Whether path names a field of the dataclass cls, nested fields
    included; a union field may resolve through any dataclass in it."""
    head, *rest = path
    if head not in {f.name for f in dataclasses.fields(cls)}:
        return False
    kind = typing.get_type_hints(cls)[head]
    return not rest or any(
        dataclasses.is_dataclass(t) and _names_a_field(t, rest)
        for t in typing.get_args(kind) or (kind,)
    )


class TestFlagPaths:
    """Each config flag's dest is its path in the command's document, so a
    mistyped dest, or a flag left behind by a deleted field, would only
    show when a user passes that flag. Every dest is a field path, a
    retired key of the document's root or one of the command's flags
    that are not part of the document."""

    @pytest.mark.parametrize(
        "command, root, other",
        [
            ("simulate", SimScenario, {"config", "frames", "out_dir"}),
            ("sweep", SweepConfig, {"config", "out", "plot"}),
        ],
    )
    def test_dests_name_config_fields(self, command, root, other):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices[command]._actions
                 if not isinstance(a, argparse._HelpAction)]
        retired = set(getattr(root, "_retired_keys", {}))
        assert len(dests) >= 27 + len(other)  # the 26 scenario flags and --seed
        for dest in dests:
            assert dest in other or dest in retired or _names_a_field(root, dest.split(".")), dest


# Values that fit no field, or only some: wrong types, non-finite numbers,
# negatives. No large finite number, so a document that parses stays tiny.
BAD = [None, True, False, math.nan, math.inf, -math.inf, -1, "x", [1]]
# In place of a whole section or document; {} would be a valid one that
# falls back to the 1280x800 default sensor or the 1000-point default sweep.
NOT_AN_OBJECT = st.sampled_from(BAD + [0.5])
# In place of one field, where 0.5 is a float in an int field.
JUNK = st.sampled_from(BAD + [0.5, {}])


def mostly(valid, junk, odds: int = 9):
    """valid about odds times in odds + 1 (nine in ten by default), so that
    whole documents often parse. A sampled flag, not st.integers(0, odds),
    whose draws hypothesis bends toward the ends of the range."""
    return st.sampled_from([True] * odds + [False]).flatmap(lambda ok: valid if ok else junk)


def field(valid):
    return mostly(valid, JUNK)


def section(required, optional):
    return mostly(
        st.fixed_dictionaries(
            {k: field(v) for k, v in required.items()},
            optional={k: field(v) for k, v in optional.items()},
        ),
        NOT_AN_OBJECT,
    )


FLOATS = st.floats(min_value=0.0, max_value=1e6)
SCENARIO = st.fixed_dictionaries(
    # Width and active rows are always given so that no document falls
    # back to the 1280x800 default geometry.
    {
        "sensor": section(
            {"width": st.sampled_from([1, 3, 8]), "active_rows": st.sampled_from([1, 2, 4])},
            {
                "optical_black_rows": st.integers(0, 2),
                "blanking_rows": st.integers(0, 4),
                "fps": st.floats(min_value=1.0, max_value=1000.0),
                "pedestal_dn": st.floats(min_value=0.0, max_value=255.0),
                "dn_per_volt": st.floats(min_value=1.0, max_value=100.0),
                "channels": st.sampled_from([1, 3]),
                "bit_depth": st.just(8),
            },
        ),
    },
    optional={
        "supply": section({}, {
            "frequency_hz": FLOATS, "amplitude_vpp": st.floats(0.0, 3.3),
            "phase_rad": st.floats(-7.0, 7.0), "coupling_gain": st.floats(-2.0, 2.0),
            "phase_mode": st.sampled_from(["continuous", "random_per_frame", "sideways"]),
            "rc_cutoff_hz": st.one_of(st.none(), FLOATS),
        }),
        "temporal": section({}, {
            "shot_enabled": st.booleans(), "dark_signal_e": st.floats(0.0, 100.0),
            "read_noise_dn": st.floats(0.0, 10.0), "flicker_enabled": st.booleans(),
            "flicker_scale_dn": st.floats(0.0, 10.0), "reset_enabled": st.booleans(),
            "reset_temp_k": st.floats(1.0, 400.0), "reset_cap_f": st.floats(1e-16, 1e-12),
            "cds_enabled": st.booleans(),
        }),
        "spatial": section({}, {
            "dsnu_dn": st.floats(0.0, 5.0), "column_fpn_dn": st.floats(0.0, 5.0),
            "prnu_fraction": st.sampled_from([0.0, 0.01]),
        }),
        "seed": field(st.integers(0, 2**64)),
    },
)
SIMULATE_DOC = mostly(
    st.one_of(
        SCENARIO,
        st.fixed_dictionaries(
            {"command": st.just("simulate"), "scenario": mostly(SCENARIO, NOT_AN_OBJECT)},
            optional={"frames": field(st.integers(1, 2))},
        ),
    ),
    NOT_AN_OBJECT,
)
SOURCE = mostly(
    st.fixed_dictionaries(
        {"mode": st.just("simulate"), "scenario": mostly(SCENARIO, NOT_AN_OBJECT)}
    ),
    st.one_of(
        st.fixed_dictionaries(
            {
                "mode": st.just("capture"),
                "command": field(
                    st.sampled_from(["true", "exit 3", "echo {freq} {amp}", "echo {hz}"])
                ),
                "image_dir": field(st.just("missing-capture-dir")),
            },
            optional={"pattern": field(st.just("im*"))},
        ),
        st.fixed_dictionaries({"mode": JUNK}),
        NOT_AN_OBJECT,
    ),
)
# start, end and step are always given and give at most 2 points when valid.
RANGE_JUNK = st.sampled_from(BAD)
SWEEP_CONFIG = st.fixed_dictionaries(
    {
        "start_hz": mostly(st.sampled_from([100.0, 150]), RANGE_JUNK),
        "end_hz": mostly(st.sampled_from([150, 200.0]), RANGE_JUNK),
        "step_hz": mostly(st.sampled_from([100.0, 1000]), RANGE_JUNK),
        "source": SOURCE,
    },
    optional={
        "amplitude_vpp": field(st.floats(0.0, 3.3)),
        "frames_per_step": field(st.integers(1, 2)),
        "seed": field(st.integers(0, 2**32)),
        "workers": mostly(st.just(1), st.sampled_from(BAD + [2, 1.0, "1"])),
    },
)
SWEEP_DOC = mostly(
    st.one_of(
        SWEEP_CONFIG,
        st.fixed_dictionaries(
            {"command": st.just("sweep"), "config": mostly(SWEEP_CONFIG, NOT_AN_OBJECT)}
        ),
    ),
    NOT_AN_OBJECT,
)


def run_config(argv: list[str], doc, work: Path) -> None:
    """main() on a config document: exit 0, 1 or 2 and no traceback."""
    cfg = work / "config.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--config", str(cfg)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")


class TestConfigProperties:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(SIMULATE_DOC)
    def test_simulate_config(self, doc):
        with tempfile.TemporaryDirectory() as work:
            run_config(["simulate", "--out-dir", str(Path(work) / "out")], doc, Path(work))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(SWEEP_DOC)
    def test_sweep_config(self, doc):
        with tempfile.TemporaryDirectory() as work:
            run_config(["sweep", "--out", str(Path(work) / "x.csv")], doc, Path(work))


def bump_csv(tmp_path):
    lines = ["frequency_hz,row_noise"]
    for f in range(50_000, 151_000, 1000):
        if 60_000 <= f <= 140_000:
            v = 0.5 + 9.5 * (1.0 - abs(f - 100_000) / 40_000.0)
        else:
            v = 0.2
        lines.append(f"{f},{v:.4f}")
    path = tmp_path / "bump.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReportCli:
    def test_flat_curve_reports_no_areas(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text(
            "frequency_hz,row_noise\n"
            + "".join(f"{f},0.0000\n" for f in range(100, 1300, 100))
        )
        assert main(["report", "--csv", str(csv)]) == 0
        assert "no areas of concern" in capsys.readouterr().out

    def test_bump_landmarks_in_text(self, tmp_path, capsys):
        assert main(["report", "--csv", str(bump_csv(tmp_path)),
                     "--threshold", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "Row Noise Start" in out
        assert "60 kHz" in out
        assert "Peak Row Noise" in out
        assert "100 kHz" in out
        assert "140 kHz" in out

    def test_json_output(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["report", "--csv", str(bump_csv(tmp_path)),
                     "--threshold", "0.3", "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["row_noise_start_hz"] == 60_000.0
        assert doc["peak_hz"] == 100_000.0
        assert doc["areas_of_concern_hz"] == [[60_000.0, 140_000.0]]
        assert (tmp_path / "report.json.config.json").exists()

    @pytest.mark.parametrize(
        "flags,threshold",
        [
            ([], {"mode": "baseline_sigma", "k": 5.0, "window": 10}),
            (["--window", "4"], {"mode": "baseline_sigma", "k": 5.0, "window": 4}),
            (["--sigma-k", "2"], {"mode": "baseline_sigma", "k": 2.0, "window": 10}),
            (["--threshold", "0.3"], {"mode": "absolute", "value": 0.3}),
        ],
        ids=["defaults", "window", "sigma_k", "absolute"],
    )
    def test_sidecar_records_the_threshold_used(self, tmp_path, flags, threshold):
        report = tmp_path / "report.txt"
        assert main(["report", "--csv", str(bump_csv(tmp_path)), *flags,
                     "--text", str(report)]) == 0
        sidecar = json.loads((tmp_path / "report.txt.config.json").read_text())
        assert sidecar["threshold"] == threshold

    @pytest.mark.parametrize("flags, message", [
        (["--json", "bump.csv"], "--json bump.csv would overwrite the input bump.csv"),
        (["--text", "./bump.csv"], "--text bump.csv would overwrite the input bump.csv"),
        (["--json", "r.out", "--text", "r.out"], "--json and --text would both write r.out"),
        (["--json", "r", "--text", "r.config.json"],
         "the sidecar of --json and --text would both write r.config.json"),
    ])
    def test_outputs_on_the_input_or_each_other_are_usage_errors(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # Exit 2 before the CSV is read, with one line naming both files;
        # the sweep CSV is left as it was and nothing is written.
        monkeypatch.chdir(tmp_path)
        csv = bump_csv(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(sweep, "read_csv", None)  # reading the CSV would raise
        assert main(["report", "--csv", "bump.csv", "--threshold", "0.5", *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert csv.exists()

    def test_threshold_flags_are_exclusive(self, tmp_path):
        assert main(["report", "--csv", str(bump_csv(tmp_path)),
                     "--threshold", "0.3", "--sigma-k", "5"]) == 2

    def test_missing_csv_is_runtime_error(self, tmp_path):
        assert main(["report", "--csv", str(tmp_path / "nope.csv")]) == 1

    def test_non_finite_csv_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("frequency_hz,row_noise\n1,nan\n2,0.5\n")
        assert main(["report", "--csv", str(bad)]) == 1
        assert "nan.csv:2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--threshold=nan"], ["--threshold=inf"], ["--sigma-k=nan", "--window=2"],
         ["--sigma-k=inf", "--window=2"], ["--sigma-k=1e308", "--window=60"]],
        ids=["threshold_nan", "threshold_inf", "sigma_nan", "sigma_inf", "sigma_overflow"],
    )
    def test_non_finite_threshold_is_usage_error(self, tmp_path, capsys, flags):
        assert main(["report", "--csv", str(bump_csv(tmp_path)), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--threshold=nan"], "error: --threshold must be a finite number, got nan\n"),
            (["--threshold=-1"], "error: --threshold must be >= 0, got -1.0\n"),
            (["--sigma-k=0"], "error: --sigma-k must be > 0, got 0.0\n"),
            (["--window=1"], "error: --window must be >= 2, got 1\n"),
        ],
        ids=["threshold", "threshold_negative", "sigma_k", "window"],
    )
    def test_bad_threshold_error_names_the_flag(self, tmp_path, capsys, flags, message):
        out = tmp_path / "report.json"
        assert main(["report", "--csv", str(bump_csv(tmp_path)), *flags, "--json", str(out)]) == 2
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_overflowing_baseline_is_usage_error_naming_it(self, tmp_path, capsys):
        csv = tmp_path / "huge.csv"
        csv.write_text("frequency_hz,row_noise\n100,1e308\n200,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["report", "--csv", str(csv), "--sigma-k", "1", "--window", "2"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: baseline of the first 2 points overflows float64 arithmetic\n"

    def test_malformed_csv_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("frequency_hz,row_noise\nwat\n")
        assert main(["report", "--csv", str(bad)]) == 1
        assert ":2:" in capsys.readouterr().err


class TestMitigateCli:
    def banded_dir(self, tmp_path, name="banded"):
        out = tmp_path / name
        main(["simulate", *BANDED_FLAGS, "--frames", "2", "--out-dir", str(out)])
        return out

    def test_dark_ref_flattens_banding(self, tmp_path, capsys):
        src = self.banded_dir(tmp_path)
        fixed = tmp_path / "fixed"
        assert main(["mitigate", "--method", "dark-ref", "--dark-cols", "1",
                     "--pedestal", "128", "--out-dir", str(fixed), str(src)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(fixed)]) == 0
        assert capsys.readouterr().out.strip() == "0.0000"
        assert (fixed / "config.json").exists()

    @pytest.mark.parametrize("pedestal", ["nan", "inf", "-1", "256"])
    def test_pedestal_outside_dn_range_is_usage_error(self, tmp_path, capsys, pedestal):
        src = self.banded_dir(tmp_path)
        fixed = tmp_path / "fixed"
        capsys.readouterr()
        assert main(["mitigate", "--method", "dark-ref", f"--pedestal={pedestal}",
                     "--out-dir", str(fixed), str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pedestal_dn") and err.count("\n") == 1
        assert not list(fixed.glob("im*"))

    def test_lowpass_runs_and_writes_frames(self, tmp_path):
        src = self.banded_dir(tmp_path)
        fixed = tmp_path / "lp"
        assert main(["mitigate", "--method", "lowpass", "--kernel-rows", "9",
                     "--out-dir", str(fixed), str(src)]) == 0
        assert (fixed / "im1.pgm").exists()
        assert (fixed / "im2.pgm").exists()

    @pytest.mark.parametrize(
        "flags", [["--method", "lowpass"], ["--method", "dark-ref", "--pedestal", "40"]]
    )
    def test_bmp_input_writes_ppm(self, tmp_path, capsys, flags):
        src = tmp_path / "bmp"
        src.mkdir()
        # Width 5 gives each BMP row 1 byte of padding.
        rows = 40 + 6 * (np.arange(24) % 4 == 2)
        for i in (1, 2):
            rgb = np.broadcast_to(rows[:, None, None], (24, 5, 3)).astype(np.uint8)
            write_bmp(src / f"im{i}.bmp", rgb)
        out = tmp_path / "fixed"
        assert main(["mitigate", *flags, "--out-dir", str(out), str(src)]) == 0
        assert sorted(p.name for p in out.glob("im*")) == ["im1.ppm", "im2.ppm"]
        capsys.readouterr()
        assert main(["analyze", str(src)]) == 0
        assert float(capsys.readouterr().out) > 2.0
        assert main(["analyze", str(out)]) == 0
        assert float(capsys.readouterr().out) < 0.5

    def test_inputs_with_one_output_name_are_usage_error(self, tmp_path, capsys):
        # The second im1.pgm meets the first in the staging directory.
        a, b = self.banded_dir(tmp_path, "a"), self.banded_dir(tmp_path, "b")
        out = tmp_path / "fixed"
        before = threading.active_count()
        assert main(["mitigate", "--method", "lowpass", "--out-dir", str(out),
                     str(a / "im1.pgm"), str(b / "im1.pgm")]) == 2
        assert "would overwrite each other" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]  # no staging, no out-dir
        assert threading.active_count() == before

    @pytest.mark.peak_memory
    @pytest.mark.parametrize("method", ["lowpass", "dark-ref"])
    def test_peak_memory_does_not_grow_with_frames(self, tmp_path, capsys, method):
        # Each frame is read, corrected and written before the next is
        # read, so eight frames peak no higher than two by as much as one.
        # At 128x96 the peak moves by more than a frame from run to run;
        # at VGA it moves by less than 100 KB against the 307 KB frame.
        width, rows = 640, 480

        def peak(frames: int) -> int:
            images = write_noise_stack(tmp_path / str(frames), frames, width, rows)
            return traced_peak(["mitigate", "--method", method,
                                "--out-dir", str(tmp_path / f"fixed{frames}"), str(images)])

        peak(1)  # imports and caches
        assert peak(8) - peak(2) < width * rows

    def test_mismatched_last_input_writes_nothing(self, tmp_path, capsys):
        src = self.banded_dir(tmp_path)
        odd = tmp_path / "im3.pgm"
        write_image(Frame(pixels=np.zeros((1, 8, 16), dtype=np.uint8)), odd)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "im1.pgm").write_bytes(b"an earlier run")
        for out in (tmp_path / "new", kept):
            capsys.readouterr()
            assert main(["mitigate", "--method", "lowpass", "--out-dir", str(out),
                         str(src), str(odd)]) == 1
            assert "im3.pgm: dimensions 16x8x1 do not match" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["banded", "im3.pgm", "kept"]
        assert [p.name for p in kept.iterdir()] == ["im1.pgm"]
        assert (kept / "im1.pgm").read_bytes() == b"an earlier run"

    def test_out_dir_may_be_the_input_directory(self, tmp_path, capsys):
        src = self.banded_dir(tmp_path)
        fresh = tmp_path / "fresh"
        for out in (fresh, src):
            assert main(["mitigate", "--method", "lowpass", "--out-dir", str(out), str(src)]) == 0
        for name in ("im1.pgm", "im2.pgm"):
            assert (src / name).read_bytes() == (fresh / name).read_bytes()
        assert sorted(p.name for p in src.iterdir()) == ["config.json", "im1.pgm", "im2.pgm"]

    def test_tune_prints_recommendation(self, capsys):
        assert main(["mitigate", "--method", "tune", "--noise-freq", "24000",
                     "--fps-min", "29", "--fps-max", "31",
                     "--frame-length-min", "800", "--frame-length-max", "800"]) == 0
        out = capsys.readouterr().out
        assert "fps 29" in out
        assert "frame length 800 rows" in out
        assert "alias 800 Hz" in out
        assert "band height 14.5 rows" in out

    def test_tune_grid_over_the_point_cap_is_usage_error(self, capsys):
        # 1 to 1e9 fps in 0.01 fps steps is about 1e11 points.
        assert main(["mitigate", "--method", "tune", "--noise-freq", "24000",
                     "--fps-min", "1", "--fps-max", "1e9",
                     "--frame-length-min", "1", "--frame-length-max", "1"]) == 2
        assert "cap of 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--method", "lowpass", "--kernel-rows", "99"],
                  ["--method", "dark-ref", "--dark-cols", "99"]],
    )
    def test_parameter_that_fits_no_frame_leaves_no_out_dir(self, tmp_path, capsys, flags):
        src = self.banded_dir(tmp_path)
        out = tmp_path / "newdir"
        capsys.readouterr()
        assert main(["mitigate", *flags, "--out-dir", str(out), str(src)]) == 2
        assert "exceeds frame" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_above_the_cap_is_usage_error(self, tmp_path, capsys):
        src = self.banded_dir(tmp_path)
        out = tmp_path / "newdir"
        capsys.readouterr()
        assert main(["mitigate", "--method", "lowpass", "--kernel-rows", "4097",
                     "--out-dir", str(out), str(src)]) == 2
        assert "kernel_rows 4097 is above the cap of 4095" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fps,lengths", [(("30", "30"), ("1", "1000001")), (("15", "60"), ("1", "30000"))],
        ids=["frame_lengths", "candidates"],
    )
    def test_tune_search_over_the_cap_is_usage_error(self, capsys, fps, lengths):
        assert main(["mitigate", "--method", "tune", "--noise-freq", "24000",
                     "--fps-min", fps[0], "--fps-max", fps[1],
                     "--frame-length-min", lengths[0], "--frame-length-max", lengths[1]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap of" in err

    def test_tune_missing_flags_is_usage_error(self, capsys):
        assert main(["mitigate", "--method", "tune", "--noise-freq", "24000"]) == 2
        assert "--fps-min" in capsys.readouterr().err

    def test_image_method_requires_out_dir(self, tmp_path):
        src = self.banded_dir(tmp_path)
        assert main(["mitigate", "--method", "dark-ref", str(src)]) == 2

    def test_image_method_requires_inputs(self):
        assert main(["mitigate", "--method", "dark-ref", "--out-dir", "x"]) == 2

    def test_every_flag_belongs_to_a_method(self):
        # MITIGATE_METHODS is the one list of each method's flags and
        # defaults: the parser declares no default and no flag of its own.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices["mitigate"]._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest != "method"]
        assert len(actions) == 11
        for action in actions:
            assert any(action.dest in own for own in MITIGATE_METHODS.values()), action.dest
            assert action.default is argparse.SUPPRESS, action.dest

    OWN_FLAG = {"dark-ref": ["--dark-cols", "3"], "lowpass": ["--kernel-rows", "3"],
                "tune": ["--fps-min", "30"]}

    def method_argv(self, tmp_path, method):
        if method == "tune":
            return ["mitigate", "--method", "tune", "--noise-freq", "1000", "--fps-min", "30",
                    "--fps-max", "30", "--frame-length-min", "100", "--frame-length-max", "100"]
        src = write_noise_stack(tmp_path / "in", 2, 16, 12)
        return ["mitigate", "--method", method, "--out-dir", str(tmp_path / "out"), str(src)]

    @pytest.mark.parametrize("method, other", [
        (m, o) for m in MITIGATE_METHODS for o in MITIGATE_METHODS if o != m
    ])
    def test_flag_of_another_method_is_usage_error(self, tmp_path, capsys, method, other):
        argv = self.method_argv(tmp_path, method)
        assert main(argv) == 0  # the same command without the foreign flag runs
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        flag = self.OWN_FLAG[other]
        assert main([*argv, *flag]) == 2
        assert capsys.readouterr() == ("", f"error: --method {method} does not take {flag[0]}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("method, argv, missing", [
        ("tune", ["--noise-freq", "1000", "--fps-max", "30"],
         "--fps-min, --frame-length-min, --frame-length-max"),
        ("lowpass", [], "inputs, --out-dir"),
    ])
    def test_missing_flags_are_named_in_one_line(self, tmp_path, capsys, method, argv, missing):
        assert main(["mitigate", "--method", method, *argv]) == 2
        assert capsys.readouterr() == ("", f"error: --method {method} requires {missing}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("method, flags, values", [
        ("dark-ref", [], {"dark_cols": 4, "pedestal": 16.0}),
        ("dark-ref", ["--dark-cols", "2", "--pedestal", "30"], {"dark_cols": 2, "pedestal": 30.0}),
        ("lowpass", [], {"kernel_rows": 9}),
        ("lowpass", ["--kernel-rows", "3"], {"kernel_rows": 3}),
    ])
    def test_sidecar_holds_only_the_method_values(self, tmp_path, method, flags, values):
        argv = self.method_argv(tmp_path, method)
        assert main([*argv, *flags]) == 0
        sidecar = json.loads((tmp_path / "out" / "config.json").read_text())
        assert sidecar == {
            "command": "mitigate", "method": method, "out_dir": str(tmp_path / "out"),
            "inputs": [str(tmp_path / "in" / f"im{i}.pgm") for i in (1, 2)], **values,
        }


class TestFrameWriter:
    """The writer thread of _write_frames: whatever fails, and wherever,
    the thread is joined and no staging directory or out-dir is left."""

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    @pytest.mark.parametrize("command", ["simulate", "mitigate"])
    def test_write_error_at_frame_k_is_exit_1(self, tmp_path, capsys, monkeypatch,
                                              command, fail_at):
        src = write_noise_stack(tmp_path / "in", 3, 16, 12)
        argv = {"simulate": ["simulate", *SMALL_FLAGS, "--frames", "3"],
                "mitigate": ["mitigate", "--method", "dark-ref", str(src)]}[command]
        real, calls = imageio._write, []

        def write(frame, path, mode):
            calls.append(path.name)
            if len(calls) == fail_at:
                raise OSError(f"no space left writing {path.name}")
            real(frame, path, mode)

        monkeypatch.setattr(imageio, "_write", write)
        before = threading.active_count()
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        assert f"no space left writing im{fail_at}.pgm" in capsys.readouterr().err
        assert len(calls) == fail_at
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_frame_failing_while_a_write_is_pending(self, tmp_path, capsys, monkeypatch, error):
        # Frame 2 fails while the write of frame 1 is held open: a kernel
        # that fits no frame exits 2, an interrupt exits 1.
        src = write_noise_stack(tmp_path / "in", 3, 16, 12)
        real_write, real_lowpass = imageio._write, mitigation.lowpass_offset_suppress
        writing, failed, calls = threading.Event(), threading.Event(), []

        def write(frame, path, mode):
            writing.set()
            failed.wait(10)
            real_write(frame, path, mode)

        def lowpass(frame, kernel_rows):
            calls.append(kernel_rows)
            if len(calls) < 2:
                return real_lowpass(frame, kernel_rows)
            assert writing.wait(10)
            try:
                if error is KeyboardInterrupt:
                    raise KeyboardInterrupt
                return real_lowpass(frame, frame.rows + 1)
            finally:
                failed.set()

        monkeypatch.setattr(imageio, "_write", write)
        monkeypatch.setattr(mitigation, "lowpass_offset_suppress", lowpass)
        before = threading.active_count()
        argv = ["mitigate", "--method", "lowpass", "--out-dir", str(tmp_path / "out"), str(src)]
        if error is KeyboardInterrupt:
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: interrupted\n"
        else:
            assert main(argv) == 2
            assert "kernel_rows 13 exceeds frame rows 12" in capsys.readouterr().err
        assert len(calls) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]
        assert threading.active_count() == before

    def test_interrupted_simulate_leaves_no_staging_directory(self, tmp_path, capsys,
                                                              monkeypatch):
        real = cli.iter_stack

        def frames(scenario, n):
            for i, frame in enumerate(real(scenario, n)):
                if i == 1:
                    raise KeyboardInterrupt
                yield frame

        monkeypatch.setattr(cli, "iter_stack", frames)
        before = threading.active_count()
        assert main(["simulate", *SMALL_FLAGS, "--frames", "3",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert not list(tmp_path.iterdir())  # no .rownoise-* staging, no out-dir
        assert threading.active_count() == before


class TestTextOutputs:
    """Every text output is written to a new file beside it and then
    renamed over it, so a failed write leaves the previous file."""

    CASES = ["analyze csv", "analyze sidecar", "sweep csv", "report json", "report text"]

    def runs(self, tmp_path, case):
        """Two argvs that write the case's output with different bytes, and
        that output."""
        if case.startswith("analyze"):
            caps = write_noise_stack(tmp_path / "caps", 3, 8, 6)
            out = tmp_path / "rn.csv"
            first = ["analyze", str(caps / "im1.pgm"), "--csv", str(out)]
            second = ["analyze", str(caps), "--csv", str(out)]
            return first, second, out if case == "analyze csv" else Path(f"{out}.config.json")
        if case == "sweep csv":
            out = tmp_path / "s.csv"
            first = ["sweep", "--width", "8", "--active-rows", "16", "--read-noise", "1",
                     "--start", "100", "--end", "200", "--step", "100", "--out", str(out)]
            return first, [*first, "--end", "300"], out
        csv = bump_csv(tmp_path)
        outs = ["--json", str(tmp_path / "r.json"), "--text", str(tmp_path / "r.txt")]
        first = ["report", "--csv", str(csv), "--threshold", "0.3", *outs]
        second = ["report", "--csv", str(csv), "--threshold", "5", *outs]
        return first, second, tmp_path / ("r.json" if case == "report json" else "r.txt")

    @pytest.mark.parametrize("how", ["write", "replace"])
    @pytest.mark.parametrize("case", CASES)
    def test_failed_write_leaves_the_previous_file(self, tmp_path, capsys, monkeypatch,
                                                   case, how):
        first, second, target = self.runs(tmp_path, case)
        assert main(first) == 0
        before = target.read_bytes()
        failed = []

        def torn_open(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if Path(file).name.startswith(f".{target.name}."):
                write = f.write

                def half_then_fail(text):
                    write(text[: len(text) // 2])
                    failed.append(file)
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                f.write = half_then_fail
            return f

        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == target.resolve():
                failed.append(dst)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_replace(src, dst)

        if how == "write":
            monkeypatch.setattr(imageio, "open", torn_open, raising=False)
        else:
            monkeypatch.setattr(os, "replace", replace)
        capsys.readouterr()
        assert main(second) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert len(failed) == 1
        assert target.read_bytes() == before
        assert not list(tmp_path.rglob("*.part"))

    def test_new_output_takes_the_mode_write_text_gives(self, tmp_path):
        csv = bump_csv(tmp_path)
        umask = os.umask(0o027)
        try:
            (tmp_path / "by-write-text").write_text("")
            assert main(["report", "--csv", str(csv), "--json", str(tmp_path / "r.json")]) == 0
        finally:
            os.umask(umask)
        modes = {p.stat().st_mode & 0o777 for p in
                 (tmp_path / "by-write-text", tmp_path / "r.json", tmp_path / "r.json.config.json")}
        assert modes == {0o640}

    def test_output_symlink_gets_the_bytes_in_its_target(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "r.txt").write_text("old\n")
        link = tmp_path / "r.txt"
        link.symlink_to(Path("store") / "r.txt")
        assert main(["report", "--csv", str(bump_csv(tmp_path)), "--threshold", "0.3",
                     "--text", str(link)]) == 0
        assert link.is_symlink()
        assert (store / "r.txt").read_text() == capsys.readouterr().out
        assert sorted(p.name for p in store.iterdir()) == ["r.txt"]


class TestSigterm:
    """SIGTERM unwinds main as Ctrl-C does, and only while main runs."""

    def test_sigterm_during_simulate_leaves_no_staging_directory(self, tmp_path):
        # Signalled once the first frame is staged, long before the last.
        proc = subprocess.Popen(
            [sys.executable, "-m", "rownoise.cli", "simulate", "--width", "32",
             "--active-rows", "16", "--read-noise", "2", "--frames", "100000",
             "--out-dir", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob(".rownoise-*/im*")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, out, err) == (1, "", "error: interrupted\n")
        assert not list(tmp_path.iterdir())  # no .rownoise-* staging, no out-dir

    def test_main_restores_the_callers_handler(self):
        script = (
            "import signal\n"
            "from rownoise.cli import main\n"
            "def handler(signum, frame): pass\n"
            "signal.signal(signal.SIGTERM, handler)\n"
            "argv = ['predict', '--fps', '30', '--frame-length', '100', '--noise-freq']\n"
            "codes = [main([*argv, '1000']), main([*argv, '-1'])]\n"
            "print(codes, signal.getsignal(signal.SIGTERM) is handler)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert proc.stdout.splitlines()[-1] == "[0, 2] True"

    def test_main_runs_off_the_main_thread(self, capsys):
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(
            ["predict", "--noise-freq", "36000", "--fps", "30", "--frame-length", "800"])))
        worker.start()
        worker.join()
        assert codes == [0]
        assert capsys.readouterr().out == "alias 12000 Hz, band height 1 row\n"


class TestPredictCli:
    def test_midpoint_wording(self, capsys):
        assert main(["predict", "--noise-freq", "36000", "--fps", "30",
                     "--frame-length", "800"]) == 0
        assert capsys.readouterr().out == "alias 12000 Hz, band height 1 row\n"

    def test_harmonic_reports_uniform(self, capsys):
        assert main(["predict", "--noise-freq", "48000", "--fps", "30",
                     "--frame-length", "800"]) == 0
        out = capsys.readouterr().out
        assert "alias 0 Hz" in out
        assert "uniform" in out

    def test_band_plural(self, capsys):
        assert main(["predict", "--noise-freq", "24240", "--fps", "30",
                     "--frame-length", "800"]) == 0
        assert "band height 50 rows" in capsys.readouterr().out

    def test_rc_attenuation_line(self, capsys):
        assert main(["predict", "--noise-freq", "36000", "--fps", "30",
                     "--frame-length", "800", "--rc-cutoff", "3600"]) == 0
        assert "rc attenuation 0.0995" in capsys.readouterr().out

    def test_invalid_fps_is_usage_error(self):
        assert main(["predict", "--noise-freq", "36000", "--fps", "0",
                     "--frame-length", "800"]) == 2

    @pytest.mark.parametrize(
        "flags", [["--noise-freq", "100", "--rc-cutoff", "nan"],
                  ["--noise-freq", "0", "--rc-cutoff", "5"]],
        ids=["nan_cutoff", "zero_frequency"],
    )
    def test_rc_domain_error_prints_no_half_answer(self, capsys, flags):
        assert main(["predict", *flags, "--fps", "30", "--frame-length", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestParser:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_main_calls_share_one_parser(self, monkeypatch, capsys):
        # Built once per process: neither a usage error (exit 2) nor a
        # flag given in one call carries over into the next.
        parser, calls = build_parser(), []
        real = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: calls.append(argv) or real(argv))
        predict = ["predict", "--noise-freq", "36000", "--fps", "30", "--frame-length", "800"]
        assert main([*predict, "--rc-cutoff", "3600"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["predict", "--fps", "x"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main(predict) == 0
        assert capsys.readouterr().out == "alias 12000 Hz, band height 1 row\n"
        assert len(calls) == 3 and build_parser() is parser

    @pytest.mark.parametrize(
        "error, code",
        [
            (imageio.ImageParseError("im1.pgm: bad header"), 1),
            (CsvParseError("s.csv:2: expected 2 fields, got 3"), 1),
            (OSError("disk unplugged"), 1),
            (RuntimeError("capture command failed"), 1),
            (MemoryError("cannot allocate a frame"), 1),
            (UsageError("--threshold excludes --sigma-k/--window"), 2),
            (ValueError("fps must be > 0, got 0.0"), 2),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v),
    )
    def test_exit_code_of_each_error(self, monkeypatch, capsys, error, code):
        # A subcommand's error exits 1 for a runtime or I/O failure and 2
        # for a usage or config error, with one message form.
        def fail(args):
            raise error

        monkeypatch.setattr(build_parser(), "parse_args",
                            lambda argv: argparse.Namespace(func=fail))
        assert main(["predict"]) == code
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rownoise.cli", "predict", "--noise-freq",
             "36000", "--fps", "30", "--frame-length", "800"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "alias 12000 Hz, band height 1 row\n"


# Flag values as typed: numbers that fit, and about one in four that is
# non-finite, negative, zero or huge. Geometry, sweep ranges and tune
# ranges are drawn apart so a run stays tiny whatever the other values are.
def often(valid, junk):
    return mostly(valid, junk, odds=3)


NUMBER = often(
    st.floats(0.0, 1e6).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e308"]),
)
COUNT = often(
    st.sampled_from(["1", "2", "3", "9"]),
    st.sampled_from(["-1", "0", "1.5", "nan", str(2**70)]),
)
SCENARIO_VALUES = [
    "--fps", "--pedestal", "--dn-per-volt", "--noise-freq", "--noise-amp", "--noise-phase",
    "--coupling-gain", "--rc-cutoff", "--dark-signal-e", "--read-noise", "--flicker-scale",
    "--reset-temp", "--reset-cap", "--dsnu", "--column-fpn",
]
SWITCHES = ("--shot", "--flicker", "--reset", "--cds")
SWEEP_SETS = ("--noise-freq", "--noise-amp")  # a sweep sets these at each point


@st.composite
def some_flags(draw, table: dict) -> list[str]:
    """A few of the flags in table as --flag=value, so that a value such
    as -1e308 is not taken for a flag."""
    flags = draw(st.lists(st.sampled_from(sorted(table)), max_size=4, unique=True))
    return [f"{flag}={draw(table[flag])}" for flag in flags]


@st.composite
def scenario_argv(draw, leave_out=()) -> list[str]:
    argv = [
        "--width=" + draw(mostly(st.sampled_from(["1", "3", "8"]), st.sampled_from(["0", "-1"]))),
        "--active-rows=" + draw(mostly(st.sampled_from(["1", "2", "4"]), st.just("0"))),
    ]
    argv += draw(some_flags({
        **{flag: NUMBER for flag in SCENARIO_VALUES if flag not in leave_out},
        "--ob-rows": often(st.sampled_from(["0", "1"]), st.just("-1")),
        "--blanking-rows": often(st.sampled_from(["0", "4"]), st.just("-1")),
        "--channels": often(st.sampled_from(["1", "3"]), st.just("2")),
        "--phase-mode": often(
            st.sampled_from(["continuous", "random_per_frame"]), st.just("sideways")
        ),
        "--prnu": often(st.just("0"), NUMBER),
        "--seed": COUNT,
    }))
    for flag in draw(st.lists(st.sampled_from(SWITCHES), max_size=2, unique=True)):
        argv.append(flag if draw(st.booleans()) else "--no-" + flag[2:])
    return argv


def one_step_on(start: str, step: str) -> str:
    """start + step, so a valid range has at most 2 points."""
    return repr(float(start) + float(step))


COMMANDS = ["simulate", "analyze", "sweep", "report", "mitigate", "mitigate-tune", "predict"]


@st.composite
def argv_for(draw, command: str, inputs: Path, csv: Path, work: Path) -> list[str]:
    if command == "simulate":
        frames = draw(often(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1"])))
        return ["simulate", *draw(scenario_argv()), f"--frames={frames}",
                "--out-dir", str(work / "sim")]
    if command == "analyze":
        return ["analyze", str(inputs), *draw(st.sampled_from(
            [[], ["--per-frame"], ["--csv", str(work / "a.csv")]]
        ))]
    if command == "sweep":
        start, step = draw(NUMBER), draw(NUMBER)
        end = draw(often(st.sampled_from([start, one_step_on(start, step)]),
                         st.sampled_from(["nan", "-1", "1e308"])))
        if end == "1e308":  # a point count that overflows, never a huge finite one
            step = "1e-300"
        argv = ["sweep", *draw(scenario_argv(leave_out=SWEEP_SETS)), f"--start={start}",
                f"--end={end}", f"--step={step}", "--out", str(work / "s.csv")]
        return argv + draw(some_flags({
            "--amp": NUMBER,
            "--frames-per-step": often(st.sampled_from(["1", "2"]), st.just("0")),
            "--workers": often(st.just("1"), st.sampled_from(["2", "-1"])),
            "--plot": st.just(str(work / "s.svg")),
            "--capture-dir": st.just(str(work / "no-captures")),
        }))
    if command == "report":
        threshold = (
            [f"--threshold={draw(NUMBER)}"] if draw(st.booleans())
            else draw(some_flags({"--sigma-k": NUMBER, "--window": COUNT}))
        )
        return ["report", "--csv", str(csv), *threshold, *draw(some_flags({
            "--json": st.just(str(work / "r.json")), "--text": st.just(str(work / "r.txt")),
        }))]
    if command == "mitigate":
        # The method's own flags from MITIGATE_METHODS, and about one time
        # in ten a flag of the other method.
        method = draw(st.sampled_from(["dark-ref", "lowpass"]))
        values = {"--dark-cols": COUNT, "--pedestal": NUMBER, "--kernel-rows": COUNT}
        own = {flag: values[flag] for flag in values
               if flag[2:].replace("-", "_") in MITIGATE_METHODS[method]}
        foreign = {flag: value for flag, value in values.items() if flag not in own}
        return ["mitigate", str(inputs), "--out-dir", str(work / "fixed"), "--method", method,
                *draw(some_flags(own)),
                *draw(mostly(st.just([]), some_flags(foreign).filter(bool)))]
    if command == "mitigate-tune":
        fps, length = draw(NUMBER), draw(COUNT)
        # fps_max 1e308 overflows the point count of the 0.01 fps grid
        # unless fps is 1e308 too, so no grid is ever large.
        fps_max = draw(often(st.sampled_from([fps, one_step_on(fps, "0.02")]),
                             st.sampled_from(["nan", "0", "1e308"])))
        length_max = draw(often(st.sampled_from([length]), st.sampled_from(["3", "-1"])))
        return ["mitigate", "--method", "tune", f"--noise-freq={draw(NUMBER)}",
                f"--fps-min={fps}", f"--fps-max={fps_max}",
                f"--frame-length-min={length}", f"--frame-length-max={length_max}",
                "--mode", draw(st.sampled_from(["sync", "max_separation"]))]
    return ["predict", f"--noise-freq={draw(NUMBER)}", f"--fps={draw(NUMBER)}",
            f"--frame-length={draw(COUNT)}",
            *draw(some_flags({"--rc-cutoff": NUMBER}))]


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """Two banded 12-row, 4-column PGMs and a 12-point sweep CSV whose
    second point stands 20 DN above the rest."""
    root = tmp_path_factory.mktemp("argv")
    images = root / "images"
    images.mkdir()
    for i in (1, 2):
        write_pgm(images / f"im{i}.pgm", 60 + 5 * (np.arange(12) % 3 == i))
    csv = root / "sweep.csv"
    csv.write_text("frequency_hz,row_noise\n" + "".join(
        f"{f},{0.2 + 20.0 * (f == 200):.4f}\n" for f in range(100, 1300, 100)
    ))
    return images, csv


class TestArgvProperties:
    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_flags_give_an_answer_or_a_clean_error(self, argv_inputs, command, data):
        images, csv = argv_inputs
        with tempfile.TemporaryDirectory() as work:
            argv = data.draw(argv_for(command, images, csv, Path(work)), label="argv")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning fails the example
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the flag value
                    code = exc.code
            if code == 2:  # a usage error writes nothing
                assert not list(Path(work).iterdir())
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert re.search(r"\b(nan|inf)\b", out.getvalue(), re.IGNORECASE) is None
        if code == 1 or (code == 2 and "usage:" not in err.getvalue()):
            assert err.getvalue().startswith("error: ")
