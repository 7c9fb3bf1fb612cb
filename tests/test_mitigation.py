"""Mitigation paths: dark-pixel reference, in-image lowpass, timing search,
and the RC filter prediction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from oracle import oracle_max_separation
from scipy.ndimage import median_filter

from rownoise.metric import row_noise_single
from rownoise.mitigation import (
    MAX_KERNEL_ROWS,
    MAX_TUNE_CANDIDATES,
    NETWORK_BLOCK_PIXELS,
    TUNE_FPS_STEP,
    TuningMode,
    _select,
    _twice_row_medians,
    dark_reference_correct,
    lowpass_offset_suppress,
    predict_filter_effect,
    recommend_tuning,
)
from rownoise import mitigation, physics
from rownoise.physics import UNIFORM
from rownoise.sensor import (
    Frame,
    SensorConfig,
    SimScenario,
    SupplyNoiseConfig,
    TemporalNoiseConfig,
    quantize_dn,
    rc_attenuation,
    simulate_frame,
)

SENSOR = SensorConfig(width=64, active_rows=64, blanking_rows=36, pedestal_dn=128.0)
F_LINE = SENSOR.line_frequency_hz  # 3000 Hz


def banded_frame(freq_mult=1.5, phase_rad=math.pi / 4.0, frame_index=0):
    sc = SimScenario(
        sensor=SENSOR,
        supply=SupplyNoiseConfig(
            frequency_hz=freq_mult * F_LINE, amplitude_vpp=1.0, phase_rad=phase_rad
        ),
    )
    return simulate_frame(sc, frame_index)


class TestDarkReference:
    def test_single_dark_column_cancels_banding_exactly(self):
        frame = banded_frame()
        assert row_noise_single(frame) > 10.0
        fixed = dark_reference_correct(frame, 1, pedestal_dn=128.0)
        assert row_noise_single(fixed) == 0.0
        assert np.all(fixed.pixels == 128)

    def test_clean_frame_unchanged(self):
        sc = SimScenario(sensor=SENSOR)
        frame = simulate_frame(sc, 0)
        fixed = dark_reference_correct(frame, 4, pedestal_dn=128.0)
        assert np.array_equal(fixed.pixels, frame.pixels)

    @pytest.mark.parametrize("pedestal", [math.nan, math.inf, -math.inf, -1.0, 255.5])
    def test_pedestal_must_be_a_dn_level(self, pedestal):
        # The range SensorConfig.pedestal_dn takes; nan used to give all-zero frames.
        with pytest.raises(ValueError, match="pedestal_dn"):
            dark_reference_correct(banded_frame(), 4, pedestal_dn=pedestal)

    def test_validation(self):
        frame = banded_frame()
        with pytest.raises(ValueError):
            dark_reference_correct(frame, 0)
        with pytest.raises(ValueError):
            dark_reference_correct(frame, frame.width + 1)

    def test_residual_scales_as_inverse_sqrt_dark_count(self):
        # Pure temporal noise: the correction injects the dark-mean error,
        # sigma/sqrt(m), into every row. 4x the columns, half the residual.
        sensor = SensorConfig(width=640, active_rows=480, pedestal_dn=128.0)
        sc = SimScenario(
            sensor=sensor,
            temporal=TemporalNoiseConfig(read_noise_dn=4.0),
            seed=21,
        )
        residuals = {}
        for m in (4, 16):
            values = [
                row_noise_single(
                    dark_reference_correct(simulate_frame(sc, i), m, pedestal_dn=128.0)
                )
                for i in range(6)
            ]
            residuals[m] = float(np.mean(values))
        assert residuals[4] == pytest.approx(4.0 / math.sqrt(4), rel=0.15)
        ratio = residuals[4] / residuals[16]
        assert abs(ratio - 2.0) / 2.0 < 0.15


class TestLowpassSuppress:
    def test_constant_frame_unchanged(self):
        frame = Frame(pixels=np.full((1, 32, 16), 90, dtype=np.uint8))
        fixed = lowpass_offset_suppress(frame, 9)
        assert np.array_equal(fixed.pixels, frame.pixels)

    def test_frame_of_no_channels_is_returned_empty(self):
        frame = Frame(pixels=np.zeros((0, 9, 4), dtype=np.uint8))
        assert lowpass_offset_suppress(frame, 3).pixels.shape == (0, 9, 4)

    def test_single_row_band_removed(self):
        pixels = np.full((1, 48, 32), 100, dtype=np.uint8)
        pixels[0, 20, :] = 120
        fixed = lowpass_offset_suppress(Frame(pixels=pixels), 9)
        residual = np.abs(fixed.pixels.astype(int) - 100)
        assert int(residual.max()) < 2

    def test_vertical_ramp_preserved(self):
        rows = np.round(np.linspace(0.0, 200.0, 64)).astype(np.uint8)
        pixels = np.repeat(rows[None, :, None], 16, axis=2)
        frame = Frame(pixels=pixels)
        fixed = lowpass_offset_suppress(frame, 9)
        inner = slice(4, 60)  # half a kernel away from each edge
        diff = np.abs(
            fixed.pixels[:, inner].astype(int) - frame.pixels[:, inner].astype(int)
        )
        assert int(diff.max()) < 1

    @pytest.mark.parametrize("mult", [1.5, 1.37, 1.25, 1.2])
    def test_never_raises_row_noise_for_narrow_bands(self, mult):
        # Band heights 1 to 2.5 rows, all below half the 9-row kernel. Square
        # patterns commensurate with the kernel are median-filter roots and
        # pass through untouched; the invariant is only that nothing worsens.
        frame = banded_frame(freq_mult=mult)
        before = row_noise_single(frame)
        after = row_noise_single(lowpass_offset_suppress(frame, 9))
        assert after <= before + 1e-9

    def test_incommensurate_band_strongly_reduced(self):
        frame = banded_frame(freq_mult=1.37)
        before = row_noise_single(frame)
        after = row_noise_single(lowpass_offset_suppress(frame, 9))
        assert after < 0.5 * before

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize(
        "rows, width, kernel",
        [
            (38, 24, 3),  # an even width: each row median averages two residues
            (38, 23, 9),
            (38, 23, 37),  # the largest odd kernel the frame takes
            (9, 17, 9),  # rows == kernel: every window reaches an edge
            (3, 5, 3),
            (12, 1, 5),  # one column: the row median is the residue itself
            # Row-median blocks of 16, 16 and 8 rows.
            (40, NETWORK_BLOCK_PIXELS // 16, 9),
            # Kernels on each side of a step in the block height isqrt(k), in
            # frames whose rows are not a whole number of blocks.
            (21, 23, 5),  # blocks of 2
            (31, 23, 15),  # 3
            (31, 24, 17),  # 4
            (59, 23, 25),  # 5
            (59, 23, 57),  # 7
            (103, 23, 101),  # 10
            (481, 5, 479),  # 21
        ],
    )
    def test_matches_float_median_filter_bit_for_bit(self, channels, rows, width, kernel):
        # The formula before the per-column 1-D running median: a float64
        # (1, k, 1) median filter over the whole stack, a float median
        # over each row of the residue, a float subtract, then quantize.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pixels = rng.integers(0, 256, (channels, rows, width), dtype=np.uint8)
            if seed == 4:  # rows of 0 and 255 in turn: at k = 3 and 15 the residue rows are -255 and 255
                pixels = np.broadcast_to(255 * (np.arange(rows) % 2)[:, None], pixels.shape)
                pixels = pixels.astype(np.uint8)
            elif seed % 2:  # near-dark banded frames as well as full-range noise
                pixels = np.clip(pixels // 16 + 8 * (np.arange(rows) % 3)[:, None], 0, 255)
                pixels = pixels.astype(np.uint8)
            as_float = pixels.astype(np.float64)
            lowpass = median_filter(as_float, size=(1, kernel, 1), mode="nearest")
            offsets = np.median(as_float - lowpass, axis=2)
            expected = quantize_dn(as_float - offsets[:, :, None])
            got = lowpass_offset_suppress(Frame(pixels=pixels), kernel).pixels
            assert got.dtype == np.uint8
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kernel", [3, 9, 17, 101])
    @pytest.mark.parametrize("block_pixels", [1, 64])
    def test_running_median_in_passes_matches_one_pass(self, monkeypatch, kernel, block_pixels):
        # Row views of 1 and 64 pixels split these frames into passes of one
        # block and of three, with a shorter last pass at k = 3 and 101.
        pixels = np.random.default_rng(kernel).integers(0, 256, (3, 107, 7), dtype=np.uint8)
        expected = median_filter(pixels, size=(1, kernel, 1), mode="nearest")
        monkeypatch.setattr(mitigation, "NETWORK_BLOCK_PIXELS", block_pixels)
        assert np.array_equal(mitigation._network_median(pixels, kernel), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        channels=st.sampled_from([1, 3]),
        rows=st.integers(1, 6),
        width=st.integers(1, 40),
        bounds=st.tuples(st.integers(-255, 255), st.integers(-255, 255)).map(sorted),
        constant_rows=st.booleans(),
        data=st.data(),
    )
    def test_twice_row_medians_is_twice_the_float_median(
        self, channels, rows, width, bounds, constant_rows, data
    ):
        lo, hi = bounds
        shape = (channels, rows, width)
        residue = data.draw(arrays(np.int16, shape, elements=st.integers(lo, hi)), label="residue")
        if constant_rows:
            residue[:, ::2] = residue[:, ::2, :1]
        expected = (2.0 * np.median(residue, axis=2)).astype(np.int16)
        got = _twice_row_medians(residue)
        assert got.dtype == np.int16
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "n, lo, hi",
        sorted(
            {
                network
                for k in range(3, 56, 2)
                for e in [math.isqrt(k) - 1]
                for network in [(k - e, k // 2 - e, k // 2), (2 * e + 1, e, e)]
            }
        ),
    )
    def test_selection_network_selects_order_statistics_of_any_0_1_column(self, n, lo, hi):
        # Every network the running median builds up to k = 55: each block's
        # core and each row's median. The 0-1 principle: min and max commute
        # with every monotone map, so a network that puts the p-th smallest
        # of each 0/1 input at output p does so for any input. Every 0/1
        # column up to n = 19, a seeded sample of them above.
        if n <= 19:
            columns = np.arange(2**n)
        else:
            columns = np.random.default_rng(n).integers(0, 2**n, 20000)
        values = [((columns >> t) & 1).astype(np.uint8) for t in range(n)]
        ones = np.sum(values, axis=0)
        for p, selected in enumerate(_select(values, lo, hi), lo):
            assert np.array_equal(selected, ones > n - 1 - p)

    def test_kernel_above_the_cap_is_rejected_before_any_network(self, monkeypatch):
        def no_network(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(mitigation, "selection_network", no_network)
        kernel = MAX_KERNEL_ROWS + 2
        frame = Frame(pixels=np.zeros((1, kernel, 1), dtype=np.uint8))
        with pytest.raises(ValueError, match=f"{kernel} is above the cap of {MAX_KERNEL_ROWS}"):
            lowpass_offset_suppress(frame, kernel)

    def test_kernel_at_the_cap_is_served(self):
        shape = (1, MAX_KERNEL_ROWS + 1, 2)
        pixels = np.random.default_rng(0).integers(0, 256, shape, dtype=np.uint8)
        expected = median_filter(pixels, size=(1, MAX_KERNEL_ROWS, 1), mode="nearest")
        assert np.array_equal(mitigation._network_median(pixels, MAX_KERNEL_ROWS), expected)

    @pytest.mark.parametrize("kernel", [2, 1, -3, 33])
    def test_kernel_validation(self, kernel):
        frame = Frame(pixels=np.full((1, 32, 8), 7, dtype=np.uint8))
        with pytest.raises(ValueError):
            lowpass_offset_suppress(frame, kernel)


class TestTuning:
    def test_degenerate_ranges_return_current_config(self):
        rec = recommend_tuning(4500.0, (30.0, 30.0), (100, 100))
        assert rec.recommended_fps == 30.0
        assert rec.recommended_frame_length_rows == 100
        assert rec.resulting_alias_hz == 1500.0
        assert rec.predicted_band_height_rows == 1.0

    def test_mains_harmonic_example(self):
        rec = recommend_tuning(24000.0, (29.0, 31.0), (800, 800))
        assert rec.recommended_fps == 29.0
        assert rec.recommended_frame_length_rows == 800
        assert rec.resulting_alias_hz == pytest.approx(800.0, abs=1e-6)
        assert rec.predicted_band_height_rows == pytest.approx(14.5, abs=1e-6)

    def test_sync_mode_reaches_a_harmonic(self):
        # 30 fps x 800 rows hits 24 kHz exactly; SYNC should find it and
        # report a uniform (whole-frame) shift.
        rec = recommend_tuning(24000.0, (30.0, 30.0), (790, 810), mode=TuningMode.SYNC)
        assert rec.recommended_fps == 30.0
        assert rec.recommended_frame_length_rows == 800
        assert rec.resulting_alias_hz == 0.0
        assert rec.predicted_band_height_rows == UNIFORM

    def test_fps_range_end_survives_float_drift(self):
        # (0.3 - 0.1) / 0.01 is 19.999999999999996 in float64, yet the grid
        # keeps its 21st point; 0.3 fps x 1 row folds 0.15 Hz to 0.15 Hz,
        # the widest separation on offer.
        rec = recommend_tuning(0.15, (0.1, 0.3), (1, 1))
        assert rec.recommended_fps == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "fps_range,frame_length_range,counts",
        [
            ((30.0, 30.0), (1, 10**6 + 1), ["1000001 values", "cap of 1000000"]),
            ((15.0, 60.0), (1, 30000), ["4501 fps points", "30000 frame lengths",
                                        "135030000", f"cap of {MAX_TUNE_CANDIDATES}"]),
        ],
        ids=["frame_lengths", "candidates"],
    )
    def test_search_over_the_cap_is_rejected_before_it_runs(
        self, monkeypatch, fps_range, frame_length_range, counts
    ):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(physics, "fold_frequency", no_search)
        with pytest.raises(ValueError) as err:
            recommend_tuning(24000.0, fps_range, frame_length_range)
        assert all(c in str(err.value) for c in counts), str(err.value)

    def test_mode_accepts_string(self):
        args = (24000.0, (30.0, 30.0), (790, 810))
        rec = recommend_tuning(*args, mode="sync")
        assert rec == recommend_tuning(*args, mode=TuningMode.SYNC)
        assert rec.recommended_frame_length_rows == 800

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, (29.0, 31.0), (800, 800)),
            (100.0, (0.0, 31.0), (800, 800)),
            (100.0, (31.0, 29.0), (800, 800)),
            (100.0, (29.0, 31.0), (800, 700)),
            (100.0, (29.0, 31.0), (0, 800)),
            (math.inf, (29.0, 31.0), (800, 800)),
            (math.nan, (29.0, 31.0), (800, 800)),
            (100.0, (29.0, math.inf), (800, 800)),
            (100.0, (1e308, 1e308), (1, 3)),  # the line rate overflows
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            recommend_tuning(*args)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=100.0, max_value=50_000.0),
        st.floats(min_value=10.0, max_value=40.0),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=50, max_value=600),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([TuningMode.SYNC, TuningMode.MAX_SEPARATION]),
    )
    def test_matches_brute_force_search(self, f_noise, fps_lo, fps_n, fl_lo, fl_n, mode):
        fps_hi = fps_lo + fps_n * TUNE_FPS_STEP
        fl_hi = fl_lo + fl_n
        rec = recommend_tuning(f_noise, (fps_lo, fps_hi), (fl_lo, fl_hi), mode=mode)
        best = None
        for i in range(fps_n + 1):
            fps = fps_lo + TUNE_FPS_STEP * i
            for fl in range(fl_lo, fl_hi + 1):
                f_line = fps * fl
                r = math.fmod(f_noise, f_line)
                alias = min(r, f_line - r)
                if best is None:
                    best = alias
                elif mode is TuningMode.SYNC:
                    best = min(best, alias)
                else:
                    best = max(best, alias)
        chosen_line = rec.recommended_fps * rec.recommended_frame_length_rows
        r = math.fmod(f_noise, chosen_line)
        chosen_alias = min(r, chosen_line - r)
        assert chosen_alias == pytest.approx(best, abs=1e-6)


    @settings(max_examples=200, deadline=None)
    @given(
        # Round frequencies fold to the same alias at many grid points.
        st.one_of(
            st.sampled_from([5000.0, 24000.0, 100.0, 103200.0, 60.0]),
            st.floats(min_value=1.0, max_value=200_000.0),
        ),
        st.integers(min_value=100, max_value=6000),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=0, max_value=40),
    )
    def test_pruned_search_matches_exhaustive_search(self, f_noise, fps_lo, fps_n, fl_lo, fl_n):
        fps_range = (fps_lo * TUNE_FPS_STEP, (fps_lo + fps_n) * TUNE_FPS_STEP)
        frame_lengths = (fl_lo, fl_lo + fl_n)
        rec = recommend_tuning(f_noise, fps_range, frame_lengths)
        fps, frame_length = oracle_max_separation(f_noise, fps_range, frame_lengths)
        assert (rec.recommended_fps, rec.recommended_frame_length_rows) == (fps, frame_length)

    @pytest.mark.parametrize(
        "f_noise, fps_range, frame_lengths",
        [
            (5000.0, (10.0, 20.0), (100, 400)),
            (24000.0, (15.0, 60.0), (500, 700)),
            (103200.0, (15.0, 60.0), (500, 2000)),
            (5000.0, (50.0, 50.0), (1, 2)),  # every fold is 0
        ],
    )
    def test_pruned_search_on_tie_heavy_grids(self, f_noise, fps_range, frame_lengths):
        rec = recommend_tuning(f_noise, fps_range, frame_lengths)
        fps, frame_length = oracle_max_separation(f_noise, fps_range, frame_lengths)
        assert (rec.recommended_fps, rec.recommended_frame_length_rows) == (fps, frame_length)


class TestFilterPrediction:
    def test_at_cutoff(self):
        assert predict_filter_effect(1000.0, 1000.0) == pytest.approx(0.7071, abs=1e-4)

    def test_decade_above_cutoff(self):
        assert predict_filter_effect(10_000.0, 1000.0) == pytest.approx(0.0995, abs=1e-4)

    def test_far_below_cutoff_passes_through(self):
        assert predict_filter_effect(1.0, 1_000_000.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("f,fc", [(0.0, 100.0), (-5.0, 100.0), (100.0, 0.0)])
    def test_domain(self, f, fc):
        with pytest.raises(ValueError):
            predict_filter_effect(f, fc)

    def test_is_the_simulator_rc_gain(self):
        for f, fc in [(1000.0, 1000.0), (126_000.0, 200_000.0), (3.0, 7.0)]:
            assert predict_filter_effect(f, fc) == rc_attenuation(f, fc)[0]
