"""Row-noise metric tests: definition, oracle agreement, invariances,
and band-height recovery from the row-mean spectrum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import oracle_row_noise
from rownoise.metric import band_height_measure, row_means, row_noise, row_noise_single
from rownoise.physics import UNIFORM
from rownoise.sensor import Frame


def frame_of(pixels) -> Frame:
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[None]
    return Frame(pixels=arr)


def rows_with_means(row_values, width=8, channels=1) -> Frame:
    """Frame whose row means are exactly the given integer values."""
    grid = np.repeat(np.asarray(row_values, dtype=np.uint8)[:, None], width, axis=1)
    return Frame(pixels=np.stack([grid] * channels))


class TestStack:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            row_noise([])


class TestRowMeans:
    def test_two_by_two(self):
        means = row_means(frame_of([[0, 10], [20, 30]]))
        assert means.shape == (1, 2)
        assert list(means[0]) == [5.0, 25.0]

    def test_equals_float_mean_bit_for_bit(self):
        rng = np.random.default_rng(8)
        pixels = rng.integers(0, 256, size=(3, 40, 4099), dtype=np.uint8)
        expected = pixels.astype(np.float64).mean(axis=2)
        assert np.array_equal(row_means(Frame(pixels=pixels)), expected)

    def test_per_channel(self):
        pixels = np.zeros((3, 2, 4), dtype=np.uint8)
        pixels[2] = 100
        means = row_means(Frame(pixels=pixels))
        assert np.all(means[0] == 0.0)
        assert np.all(means[2] == 100.0)


class TestRowNoiseSingle:
    def test_constant_frame_is_zero(self):
        assert row_noise_single(rows_with_means([40] * 16)) == 0.0

    def test_alternating_rows_example(self):
        # Row means {10, 20, 10, 20}: sample std is 10/sqrt(3).
        value = row_noise_single(rows_with_means([10, 20, 10, 20]))
        assert value == pytest.approx(5.7735, abs=1e-4)

    def test_channels_average_with_equal_weight(self):
        # Per channel c, rows alternate +/- d_c around 100, so the channel
        # sample std is 2*d_c/sqrt(3) and the metric is their plain mean.
        deltas = (3, 6, 9)
        chans = [
            rows_with_means([100 - d, 100 + d, 100 - d, 100 + d]).pixels[0]
            for d in deltas
        ]
        value = row_noise_single(Frame(pixels=np.stack(chans)))
        expected = sum(2.0 * d / math.sqrt(3.0) for d in deltas) / 3.0
        assert value == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.0 * 6.0 / math.sqrt(3.0))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            row_noise_single(frame_of([[1, 2, 3]]))

    @given(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_one_hot_row_closed_form(self, n_rows, delta, seed):
        # A single row offset by d over H otherwise equal rows measures
        # d/sqrt(H) exactly.
        base = 100
        values = [base] * n_rows
        values[seed % n_rows] = base + delta
        measured = row_noise_single(rows_with_means(values))
        assert measured == pytest.approx(delta / math.sqrt(n_rows), rel=1e-9)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_column_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(3, 12, 17), dtype=np.uint8)
        perm = rng.permutation(17)
        assert row_noise_single(Frame(pixels=pixels)) == row_noise_single(
            Frame(pixels=np.ascontiguousarray(pixels[:, :, perm]))
        )

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_global_offset_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 200, size=(1, 10, 9), dtype=np.uint8)
        shifted = (pixels.astype(np.int64) + 50).astype(np.uint8)  # stays in range
        assert row_noise_single(Frame(pixels=shifted)) == pytest.approx(
            row_noise_single(Frame(pixels=pixels)), abs=1e-9
        )

    def test_white_noise_scales_inverse_sqrt_width(self):
        rng = np.random.default_rng(12)
        sigma, width, rows = 4.0, 640, 480
        values = []
        for _ in range(4):
            analog = 64.0 + rng.normal(0.0, sigma, size=(1, rows, width))
            values.append(row_noise_single(Frame(pixels=np.clip(np.rint(analog), 0, 255).astype(np.uint8))))
        measured = float(np.mean(values))
        assert abs(measured - sigma / math.sqrt(width)) / (sigma / math.sqrt(width)) < 0.10


class TestStackMetric:
    def test_average_is_mean_of_per_frame(self):
        rng = np.random.default_rng(3)
        frames = [
            Frame(pixels=rng.integers(0, 256, size=(1, 8, 8), dtype=np.uint8))
            for _ in range(3)
        ]
        result = row_noise(frames)
        assert len(result.per_frame) == 3
        assert result.average == pytest.approx(sum(result.per_frame) / 3.0, rel=1e-12)
        assert result.per_frame == [row_noise_single(f) for f in frames]

    def test_identical_frames_average_to_single_value(self):
        frame = rows_with_means([10, 20, 10, 20])
        result = row_noise([frame, frame, frame])
        assert result.average == row_noise_single(frame)


class TestOracle:
    def test_matches_fast_path_on_random_frames(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            frame = Frame(pixels=rng.integers(0, 256, size=(3, 32, 32), dtype=np.uint8))
            assert abs(row_noise_single(frame) - oracle_row_noise(frame)) < 1e-9

    def test_matches_on_known_value(self):
        frame = rows_with_means([10, 20, 10, 20])
        assert oracle_row_noise(frame) == pytest.approx(10.0 / math.sqrt(3.0), rel=1e-12)


class TestBandHeight:
    def test_alternating_rows_give_one(self):
        means = np.tile(np.array([[100.0, 120.0]]), (1, 8))  # period 2 over 16 rows
        assert band_height_measure(means.reshape(1, 16)) == 1.0

    def test_sine_period_twenty_gives_ten(self):
        rows = np.arange(80)
        means = (128.0 + 5.0 * np.sin(2.0 * np.pi * rows / 20.0))[None, :]
        assert band_height_measure(means) == 10.0

    def test_flat_profile_is_uniform(self):
        means = np.full((1, 32), 77.0)
        assert band_height_measure(means) == UNIFORM
        assert math.isinf(band_height_measure(means))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            band_height_measure(np.zeros((1, 4)))

    def test_channel_average_feeds_the_spectrum(self):
        rows = np.arange(64, dtype=np.float64)
        one = 128.0 + 8.0 * np.sin(2.0 * np.pi * rows / 16.0)
        means = np.stack([one, one, one])
        assert band_height_measure(means) == 8.0
