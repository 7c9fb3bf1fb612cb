"""Tests for kTC reset noise, the line rate, the frequency grid and the
alias/band-height model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rownoise.physics import (
    BOLTZMANN_K,
    UNIFORM,
    alias_and_band_height,
    fold_frequency,
    frequency_grid,
    line_frequency,
    reset_noise_v,
)


class TestConstants:
    def test_values(self):
        assert BOLTZMANN_K == 1.380649e-23

    def test_frozen(self):
        # UNIFORM reaches callers inside an AliasResult, which cannot be
        # altered after the fact.
        result = alias_and_band_height(120.0, 60.0)
        assert result.band_height_rows == UNIFORM and math.isinf(UNIFORM)
        with pytest.raises(Exception):
            result.band_height_rows = 0.0


class TestResetNoise:
    def test_room_temperature_example(self):
        assert reset_noise_v(300.0, 5e-15) == pytest.approx(9.102e-4, abs=1e-6)

    def test_quadruple_capacitance_halves(self):
        assert reset_noise_v(300.0, 2e-14) == reset_noise_v(300.0, 5e-15) / 2.0

    def test_quadruple_temperature_doubles(self):
        assert reset_noise_v(1200.0, 5e-15) == reset_noise_v(300.0, 5e-15) * 2.0

    @pytest.mark.parametrize("temp,cap", [(0.0, 5e-15), (-1.0, 5e-15), (300.0, 0.0)])
    def test_domain(self, temp, cap):
        with pytest.raises(ValueError):
            reset_noise_v(temp, cap)

    @given(
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=1e-16, max_value=1e-9),
    )
    def test_temperature_scaling_law(self, temp, cap):
        assert reset_noise_v(4.0 * temp, cap) == 2.0 * reset_noise_v(temp, cap)


class TestLineFrequency:
    def test_examples(self):
        assert line_frequency(30.0, 812) == 24360.0
        assert line_frequency(1.0, 1) == 1.0
        assert line_frequency(30.0, 800) == 24000.0

    def test_domain(self):
        with pytest.raises(ValueError):
            line_frequency(0.0, 812)
        with pytest.raises(ValueError):
            line_frequency(30.0, 0)
        with pytest.raises(ValueError):
            line_frequency(30.0, 800.5)
        with pytest.raises(ValueError):
            line_frequency(math.inf, 800)
        with pytest.raises(ValueError, match="overflows"):
            line_frequency(1e308, 2)


class TestFrequencyGrid:
    def test_includes_stop_under_float_drift(self):
        grid = frequency_grid(0.1, 0.3, 0.1)
        assert grid == [0.1, 0.1 + 1 * 0.1, 0.1 + 2 * 0.1]

    def test_stop_off_grid_is_left_out(self):
        assert frequency_grid(50.0, 100_000.0, 1000.0)[-1] == 99_050.0
        assert len(frequency_grid(50.0, 100_000.0, 1000.0)) == 100

    def test_single_point(self):
        assert frequency_grid(4110.0, 4110.0, 1000.0) == [4110.0]

    @pytest.mark.parametrize(
        "args",
        [(1.0, 2.0, 0.0), (1.0, 2.0, -1.0), (2.0, 1.0, 0.5), (1.0, math.inf, 0.5),
         (1.0, 1e308, 1e-300)],  # the point count overflows
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            frequency_grid(*args)


class TestAliasModel:
    def test_exact_harmonic_is_uniform(self):
        res = alias_and_band_height(48000.0, 24000.0)
        assert res.alias_hz == 0.0
        assert res.band_height_rows == UNIFORM
        assert res.is_uniform

    def test_midpoint_gives_band_of_one(self):
        res = alias_and_band_height(36000.0, 24000.0)
        assert res.alias_hz == 12000.0
        assert res.band_height_rows == 1.0

    def test_mains_offset_example(self):
        res = alias_and_band_height(24240.0, 24000.0)
        assert res.alias_hz == 240.0
        assert res.band_height_rows == 50.0

    def test_domain(self):
        with pytest.raises(ValueError):
            alias_and_band_height(1000.0, 0.0)
        with pytest.raises(ValueError):
            alias_and_band_height(-1.0, 24000.0)

    @pytest.mark.parametrize("f_noise", [math.inf, math.nan])
    def test_non_finite_noise_rejected(self, f_noise):
        with pytest.raises(ValueError):
            alias_and_band_height(f_noise, 24000.0)

    def test_fold_matches_mod_on_a_tune_grid(self):
        # Positive inputs: fmod and mod agree bit for bit, and the array
        # fold agrees with the scalar alias model point by point.
        f_line = np.array(frequency_grid(29.0, 31.0, 0.01)) * 800
        r = np.mod(24_000.0, f_line)
        folded = fold_frequency(24_000.0, f_line)
        assert np.array_equal(folded, np.minimum(r, f_line - r))
        assert [alias_and_band_height(24_000.0, f).alias_hz for f in f_line] == list(folded)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=50),
        st.data(),
    )
    def test_periodic_in_line_frequency(self, f_line, k, data):
        f = data.draw(st.integers(min_value=0, max_value=f_line - 1))
        base = alias_and_band_height(float(f), float(f_line))
        shifted = alias_and_band_height(float(f + k * f_line), float(f_line))
        assert shifted.alias_hz == base.alias_hz
        assert shifted.band_height_rows == base.band_height_rows

    @given(
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=1, max_value=20),
        st.data(),
    )
    def test_symmetric_about_harmonics(self, f_line, k, data):
        d = data.draw(st.integers(min_value=0, max_value=f_line // 2))
        above = alias_and_band_height(float(k * f_line + d), float(f_line))
        below = alias_and_band_height(float(k * f_line - d), float(f_line))
        assert above.alias_hz == below.alias_hz
        assert above.band_height_rows == below.band_height_rows

    @given(st.integers(min_value=2, max_value=10**6), st.data())
    def test_band_height_decreases_with_alias(self, half_line, data):
        f_line = float(2 * half_line)
        a1 = data.draw(st.integers(min_value=1, max_value=half_line - 1))
        a2 = data.draw(st.integers(min_value=a1 + 1, max_value=half_line))
        b1 = alias_and_band_height(float(a1), f_line).band_height_rows
        b2 = alias_and_band_height(float(a2), f_line).band_height_rows
        assert b1 > b2

    @given(st.integers(min_value=1, max_value=10**6))
    def test_band_height_floor_is_one_row(self, half_line):
        f_line = float(2 * half_line)
        res = alias_and_band_height(float(half_line), f_line)
        assert res.band_height_rows == 1.0
