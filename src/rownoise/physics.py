"""Noise physics calculators for CMOS image sensor analysis.

Closed-form first-order models only. Each function validates its domain and
raises ValueError outside it; none of them touch global state, so every call
is reproducible by construction.

The alias model at the bottom is the piece everything else leans on: a
column-parallel readout samples one whole row per line period, so a
supply disturbance at f_noise beats against the line rate f_line and
shows up folded into [0, f_line/2]. Band height in rows is half the
folded period, f_line / (2 * alias).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "ELEMENTARY_CHARGE_C",
    "UNIFORM",
    "AliasResult",
    "photon_energy_ev",
    "can_excite_silicon",
    "fill_factor",
    "shot_noise_sigma",
    "snr_max",
    "reset_noise_v",
    "thermal_noise_v",
    "thermal_noise_psd",
    "flicker_psd",
    "quantization_noise",
    "prnu_sigma",
    "line_frequency",
    "frequency_grid",
    "alias_and_band_height",
]

# CODATA 2018 exact values.
ELEMENTARY_CHARGE_C = 1.602176634e-19


@dataclass(frozen=True)
class PhysicalConstants:
    boltzmann_k: float = 1.380649e-23      # J/K
    planck_h: float = 6.62607015e-34       # J*s
    light_speed_c: float = 2.99792458e8    # m/s
    silicon_bandgap_ev: float = 1.1        # eV, room temperature
    hc_ev_nm: float = 1239.841984          # h*c expressed in eV*nm


CONSTANTS = PhysicalConstants()

# Sentinel band height for alias 0: the disturbance locks to the line rate
# and every row sees the same offset, so there is no band to speak of.
UNIFORM = math.inf


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def photon_energy_ev(wavelength_nm: float) -> float:
    """Photon energy E = h*c / lambda, in eV for a wavelength in nm."""
    _require(wavelength_nm > 0, f"wavelength must be positive, got {wavelength_nm}")
    return CONSTANTS.hc_ev_nm / wavelength_nm


def can_excite_silicon(wavelength_nm: float) -> bool:
    """True when the photon energy reaches the silicon bandgap."""
    return photon_energy_ev(wavelength_nm) >= CONSTANTS.silicon_bandgap_ev


def fill_factor(photosensitive_area: float, pixel_area: float) -> float:
    """Photosensitive fraction of the pixel, in percent.

    Areas may be in any unit as long as both use the same one.
    """
    _require(pixel_area > 0, f"pixel area must be positive, got {pixel_area}")
    _require(photosensitive_area >= 0, "photosensitive area must be >= 0")
    _require(
        photosensitive_area <= pixel_area,
        "photosensitive area cannot exceed pixel area",
    )
    return 100.0 * photosensitive_area / pixel_area


def shot_noise_sigma(mean_count: float) -> float:
    """Poisson shot noise sigma = sqrt(mean) for a mean arrival count."""
    _require(mean_count >= 0, f"mean count must be >= 0, got {mean_count}")
    return math.sqrt(mean_count)


def snr_max(mean_electrons: float) -> float:
    """Best-case SNR of a shot-noise-limited pixel: mu/sqrt(mu) = sqrt(mu)."""
    _require(mean_electrons >= 0, f"electron count must be >= 0, got {mean_electrons}")
    return math.sqrt(mean_electrons)


def reset_noise_v(temp_k: float, cap_f: float) -> float:
    """kTC reset noise, volts RMS on a capacitance cap_f at temp_k."""
    _require(temp_k > 0, f"temperature must be positive, got {temp_k}")
    _require(cap_f > 0, f"capacitance must be positive, got {cap_f}")
    return math.sqrt(CONSTANTS.boltzmann_k * temp_k / cap_f)


def thermal_noise_v(temp_k: float, r_ohm: float, bandwidth_hz: float) -> float:
    """Johnson noise sqrt(4*k*T*R*B), volts RMS."""
    _require(bandwidth_hz >= 0, f"bandwidth must be >= 0, got {bandwidth_hz}")
    return math.sqrt(thermal_noise_psd(temp_k, r_ohm) * bandwidth_hz)


def thermal_noise_psd(temp_k: float, r_ohm: float) -> float:
    """One-sided thermal noise power density 4*k*T*R, V^2/Hz."""
    _require(temp_k > 0, f"temperature must be positive, got {temp_k}")
    _require(r_ohm >= 0, f"resistance must be >= 0, got {r_ohm}")
    return 4.0 * CONSTANTS.boltzmann_k * temp_k * r_ohm


def flicker_psd(kf: float, cox: float, width: float, length: float, freq_hz: float) -> float:
    """MOSFET 1/f noise density Kf / (Cox * W * L * f).

    Doubling the gate area halves the density at fixed f; the 1/f shape
    itself is what the sensor simulation reproduces numerically.
    """
    _require(kf >= 0, f"Kf must be >= 0, got {kf}")
    _require(cox > 0, f"Cox must be positive, got {cox}")
    _require(width > 0 and length > 0, "gate dimensions must be positive")
    _require(freq_hz > 0, f"frequency must be positive, got {freq_hz}")
    return kf / (cox * width * length * freq_hz)


def quantization_noise(v_lsb: float) -> float:
    """RMS error of an ideal uniform quantizer, LSB/sqrt(12)."""
    _require(v_lsb > 0, f"LSB size must be positive, got {v_lsb}")
    return v_lsb / math.sqrt(12.0)


def prnu_sigma(prnu_fraction: float, signal: float) -> float:
    """Photo-response non-uniformity sigma = fraction * signal."""
    _require(prnu_fraction >= 0, f"PRNU fraction must be >= 0, got {prnu_fraction}")
    _require(signal >= 0, f"signal must be >= 0, got {signal}")
    return prnu_fraction * signal


def line_frequency(fps: float, frame_length_rows: int) -> float:
    """Row readout rate in Hz: frames per second times rows per frame.

    frame_length_rows counts every row period in the frame timing,
    blanking included, so fps * frame_length_rows is exact.
    """
    _require(fps > 0, f"fps must be positive, got {fps}")
    _require(
        isinstance(frame_length_rows, int) and not isinstance(frame_length_rows, bool),
        f"frame length must be an integer row count, got {frame_length_rows!r}",
    )
    _require(frame_length_rows >= 1, f"frame length must be >= 1, got {frame_length_rows}")
    return fps * frame_length_rows


def frequency_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop, stop included when it lies on
    the grid.

    The point count allows 1e-9 of a step for float drift, so 0.1 to 0.3
    in steps of 0.1 has 3 points although (0.3 - 0.1) / 0.1 is just
    under 2. Point i is start + i * step, never a running sum.
    """
    _require(step > 0, f"step must be positive, got {step}")
    _require(stop >= start, f"stop {stop} is below start {start}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


@dataclass(frozen=True)
class AliasResult:
    """Folded disturbance frequency and the band geometry it produces."""

    alias_hz: float
    band_height_rows: float  # UNIFORM when alias_hz == 0

    @property
    def is_uniform(self) -> bool:
        return math.isinf(self.band_height_rows)


def alias_and_band_height(f_noise_hz: float, f_line_hz: float) -> AliasResult:
    """Fold a supply disturbance against the row sampling rate.

    r = f_noise mod f_line, alias = min(r, f_line - r), so alias lands in
    [0, f_line/2]. alias 0 means the disturbance is a line-rate harmonic:
    every row samples it at the same phase and the frame is uniform.
    Otherwise the pattern repeats every f_line/alias rows and a single
    band (half a period) spans f_line / (2 * alias) rows.
    """
    _require(f_noise_hz >= 0, f"noise frequency must be >= 0, got {f_noise_hz}")
    _require(f_line_hz > 0, f"line frequency must be positive, got {f_line_hz}")
    r = math.fmod(f_noise_hz, f_line_hz)
    alias = min(r, f_line_hz - r)
    if alias == 0.0:
        return AliasResult(alias_hz=0.0, band_height_rows=UNIFORM)
    return AliasResult(alias_hz=alias, band_height_rows=f_line_hz / (2.0 * alias))
