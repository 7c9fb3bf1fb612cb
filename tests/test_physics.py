"""Tests for the noise-floor formulas and the alias/band-height model."""

import math

import pytest
from hypothesis import given, strategies as st

from rownoise.physics import (
    CONSTANTS,
    ELEMENTARY_CHARGE_C,
    UNIFORM,
    alias_and_band_height,
    can_excite_silicon,
    fill_factor,
    flicker_psd,
    frequency_grid,
    line_frequency,
    photon_energy_ev,
    prnu_sigma,
    quantization_noise,
    reset_noise_v,
    shot_noise_sigma,
    snr_max,
    thermal_noise_psd,
    thermal_noise_v,
)


class TestConstants:
    def test_values(self):
        assert CONSTANTS.boltzmann_k == 1.380649e-23
        assert CONSTANTS.planck_h == 6.62607015e-34
        assert CONSTANTS.light_speed_c == 2.99792458e8
        assert CONSTANTS.silicon_bandgap_ev == 1.1
        assert ELEMENTARY_CHARGE_C == 1.602176634e-19

    def test_hc_product_is_consistent(self):
        # hc in eV*nm must agree with the product of the base constants.
        derived = (
            CONSTANTS.planck_h * CONSTANTS.light_speed_c / ELEMENTARY_CHARGE_C * 1e9
        )
        assert abs(derived - CONSTANTS.hc_ev_nm) / CONSTANTS.hc_ev_nm < 1e-6

    def test_frozen(self):
        with pytest.raises(Exception):
            CONSTANTS.boltzmann_k = 0.0


class TestPhotonEnergy:
    def test_1100nm(self):
        assert photon_energy_ev(1100.0) == pytest.approx(1.1271, abs=1e-4)
        assert can_excite_silicon(1100.0) is True

    def test_1200nm(self):
        assert photon_energy_ev(1200.0) == pytest.approx(1.0332, abs=1e-4)
        assert can_excite_silicon(1200.0) is False

    def test_exact_two_ev(self):
        assert photon_energy_ev(619.920992) == 2.0

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_nonpositive_wavelength_rejected(self, bad):
        with pytest.raises(ValueError):
            photon_energy_ev(bad)

    @given(st.floats(min_value=1.0, max_value=1e7))
    def test_energy_positive_and_decreasing(self, wavelength):
        e1 = photon_energy_ev(wavelength)
        e2 = photon_energy_ev(wavelength * 2.0)
        assert e1 > 0
        assert e2 == e1 / 2.0


class TestFillFactor:
    def test_full(self):
        assert fill_factor(4.0, 4.0) == 100.0

    def test_zero(self):
        assert fill_factor(0.0, 4.0) == 0.0

    def test_partial(self):
        assert fill_factor(3.0, 4.0) == 75.0

    def test_photosensitive_larger_than_pixel_rejected(self):
        with pytest.raises(ValueError):
            fill_factor(5.0, 4.0)

    def test_bad_areas_rejected(self):
        with pytest.raises(ValueError):
            fill_factor(1.0, 0.0)
        with pytest.raises(ValueError):
            fill_factor(-1.0, 4.0)


class TestShotNoise:
    def test_examples(self):
        assert shot_noise_sigma(100.0) == 10.0
        assert shot_noise_sigma(0.0) == 0.0
        assert shot_noise_sigma(2.0) == pytest.approx(1.4142136, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shot_noise_sigma(-1.0)

    def test_snr_examples(self):
        assert snr_max(10000.0) == 100.0
        assert snr_max(1.0) == 1.0
        assert snr_max(5000.0) == pytest.approx(70.7107, abs=1e-4)

    @given(st.floats(min_value=0.0, max_value=1e12))
    def test_sigma_is_sqrt(self, signal):
        assert shot_noise_sigma(signal) == math.sqrt(signal)


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


class TestThermalNoise:
    def test_rms_example(self):
        assert thermal_noise_v(300.0, 1e3, 1e6) == pytest.approx(4.070e-6, abs=1e-9)

    def test_psd_example(self):
        assert thermal_noise_psd(300.0, 1e3) == pytest.approx(1.65678e-17, rel=1e-5)

    def test_quadruple_bandwidth_doubles_rms(self):
        assert thermal_noise_v(300.0, 1e3, 4e6) == 2.0 * thermal_noise_v(300.0, 1e3, 1e6)

    @given(
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=1.0, max_value=1e9),
        st.floats(min_value=1.0, max_value=1e12),
    )
    def test_bandwidth_scaling_law(self, temp, resistance, bandwidth):
        wide = thermal_noise_v(temp, resistance, 4.0 * bandwidth)
        assert wide == 2.0 * thermal_noise_v(temp, resistance, bandwidth)

    def test_domain(self):
        with pytest.raises(ValueError):
            thermal_noise_v(0.0, 1e3, 1e6)
        with pytest.raises(ValueError):
            thermal_noise_v(300.0, -1e3, 1e6)
        with pytest.raises(ValueError):
            thermal_noise_v(300.0, 1e3, -1.0)


class TestFlickerNoise:
    def test_example(self):
        assert flicker_psd(1e-24, 5e-3, 1.0, 1.0, 10.0) == pytest.approx(2e-23, rel=1e-9)

    def test_double_frequency_halves(self):
        base = flicker_psd(1e-24, 5e-3, 1.0, 1.0, 10.0)
        assert flicker_psd(1e-24, 5e-3, 1.0, 1.0, 20.0) == base / 2.0

    def test_double_area_halves(self):
        base = flicker_psd(1e-24, 5e-3, 1.0, 1.0, 10.0)
        assert flicker_psd(1e-24, 5e-3, 2.0, 1.0, 10.0) == base / 2.0
        assert flicker_psd(1e-24, 5e-3, 1.0, 2.0, 10.0) == base / 2.0

    @given(
        st.floats(min_value=1e-27, max_value=1e-20),
        st.floats(min_value=1e-4, max_value=1e-1),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=1e8),
    )
    def test_inverse_frequency_law(self, kf, cox, w, length, f):
        assert flicker_psd(kf, cox, w, length, 2.0 * f) == flicker_psd(
            kf, cox, w, length, f
        ) / 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            flicker_psd(1e-24, 5e-3, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            flicker_psd(1e-24, 0.0, 1.0, 1.0, 10.0)


class TestQuantizationNoise:
    def test_unit_step(self):
        assert quantization_noise(1.0) == pytest.approx(0.2886751, abs=1e-7)

    def test_8bit_over_3v3(self):
        assert quantization_noise(3.3 / 255.0) == pytest.approx(0.003736, abs=1e-6)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            quantization_noise(0.0)


class TestPrnu:
    def test_examples(self):
        assert prnu_sigma(0.01, 1000.0) == pytest.approx(10.0)
        assert prnu_sigma(0.0, 12345.0) == 0.0
        assert prnu_sigma(0.005, 200.0) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            prnu_sigma(-0.01, 100.0)
        with pytest.raises(ValueError):
            prnu_sigma(0.01, -100.0)


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


class TestFrequencyGrid:
    def test_includes_stop_under_float_drift(self):
        grid = frequency_grid(0.1, 0.3, 0.1)
        assert grid == [0.1, 0.1 + 1 * 0.1, 0.1 + 2 * 0.1]

    def test_stop_off_grid_is_left_out(self):
        assert frequency_grid(50.0, 100_000.0, 1000.0)[-1] == 99_050.0
        assert len(frequency_grid(50.0, 100_000.0, 1000.0)) == 100

    def test_single_point(self):
        assert frequency_grid(4110.0, 4110.0, 1000.0) == [4110.0]

    @pytest.mark.parametrize("args", [(1.0, 2.0, 0.0), (1.0, 2.0, -1.0), (2.0, 1.0, 0.5)])
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
