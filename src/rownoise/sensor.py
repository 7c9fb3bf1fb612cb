"""Row-sequential image sensor simulation with supply-coupled row offsets.

Model
-----
The sensor reads one row per line period at f_line = fps * frame_length_rows,
where frame_length_rows = active + optical black + blanking row times. A
disturbance on the pixel supply rail shifts the reference of every pixel
sampled in the same line period by the same amount, so row r of frame F
picks up a common offset

    dn_offset(r, F) = coupling_gain * v_supply(t_rF) * dn_per_volt
    t_rF            = F / fps + r / f_line          (continuous phase mode)

on top of the dark pedestal. Optical black rows are read through the same
chain and carry the same offset. Temporal noise sources (shot, read,
reset, flicker) and frozen spatial non-uniformities stack on the analog
value, which is then rounded to the nearest DN with halves going up,
floor(x + 0.5), and clamped to the 8-bit range. Negative values clamp to
0, so on the output range this is the same as rounding half away from
zero.

The illumination is fixed at 0 lux: there is no photo signal, so
photo-response non-uniformity (PRNU) has nothing to act on and is not
modelled; SpatialNoiseConfig accepts only prnu_fraction 0.

Determinism: every stochastic term draws from its own Philox substream
keyed by (seed, frame_index, source tag), filled row-major. A substream
may be drawn in consecutive pieces, which gives the same values as one
draw. Every frame is made in pieces by one body, whole on the thread
that calls it, which sums its terms per pixel in one fixed order and
hands each piece to a sink: the uint8 frame, the float frame, or the
row sums that a simulated sweep point measures in place of frames. A
stack numbers its frames from 0 and shares fixed-pattern maps keyed by
seed alone. Tasks (each frame of a stack, or each sweep point) run in
pairs, a helper thread's beside the calling thread's, and come out
bit-identical on either thread. A source whose sigma or switch is off
draws nothing and adds nothing, which leaves the other substreams and
every output bit as they would be with its zero term added.

Units: one simulated electron contributes one DN. Neither the supply
coupling path nor the 0 lux operating point gives a reason to pick a
different conversion gain, and unit gain keeps electron-domain variance
directly visible in the output.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import sys
import typing
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import islice

import numpy as np

from . import physics

__all__ = [
    "PhaseMode",
    "SensorConfig",
    "SupplyNoiseConfig",
    "TemporalNoiseConfig",
    "SpatialNoiseConfig",
    "SimScenario",
    "Frame",
    "FpnMaps",
    "rc_attenuation",
    "pink_noise",
    "quantize_dn",
    "generate_fpn_maps",
    "row_supply_offsets_dn",
    "simulate_frame_analog",
    "simulate_frame",
    "iter_stack",
    "simulate_stack",
    "scenario_to_json",
    "scenario_from_json",
]

MAX_DN = 255  # 8-bit output range
PINK_OCTAVES = 16  # octaves summed by pink_noise
_CHUNK = 1 << 16  # elements per frame piece; draws per piece of a flicker octave
# Largest mean numpy's Poisson draw takes: the int64 maximum less ten of its roots.
MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)

# Substream tags. Values are part of the reproducibility contract:
# changing them changes every simulated frame.
_TAG_PHASE = 1
_TAG_SHOT = 2
_TAG_READ = 3
_TAG_RESET = 4
_TAG_FLICKER = 5
_TAG_FPN_PIXEL = 6
_TAG_FPN_COLUMN = 7


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# Field annotation -> (what a value must be, test). Integers fit float.
_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: _is_real(v) and isinstance(v, numbers.Integral)),
    # abs(v) <= max rejects nan, inf and an int too large for a float,
    # where math.isfinite would raise OverflowError.
    float: ("a finite number", lambda v: _is_real(v) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
}
_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # keyed by operator module names


def _bounded(default, **rule):
    """A config field whose value _check_fields holds to rule: choices, or
    one or two of the bounds ge, gt, le and lt, a lower one first."""
    return field(default=default, metadata=rule)


def _rule_check(rule: dict) -> tuple:
    """(what a value must be, test) of a field's declared rule."""
    if "choices" in rule:
        choices = rule["choices"]
        return "one of " + ", ".join(map(repr, choices)), lambda v: v in choices
    if len(rule) == 2:
        (lo_key, lo), (hi_key, hi) = rule.items()
        want = f"in {'[' if lo_key == 'ge' else '('}{lo}, {hi}{']' if hi_key == 'le' else ')'}"
    else:
        ((key, bound),) = rule.items()
        want = f"{_SYMBOLS[key]} {bound}"
    tests = [(getattr(operator, key), bound) for key, bound in rule.items()]
    return want, lambda v: all(op(v, bound) for op, bound in tests)


@functools.cache
def _field_checks(cls) -> tuple:
    """(name, checks, optional) of each field of config class cls, resolved
    once per class: checks are the (what a value must be, test) pairs of
    its annotation, then of its declared rule."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)  # a union's classes
        checks = [_TYPES[kinds[0]]] if kinds[0] in _TYPES else []
        if all(issubclass(k, _Config) for k in kinds):
            names = " or ".join(k.__name__ for k in kinds)
            checks.append((f"a {names}", lambda v, kinds=kinds: isinstance(v, kinds)))
        if f.metadata:
            checks.append(_rule_check(f.metadata))
        out.append((f.name, tuple(checks), type(None) in kinds))
    return tuple(out)


def _check_fields(config) -> None:
    """Raise ValueError, "{name} must be {rule}, got {value!r}", for the
    first field of config whose value does not fit its annotation (a bool,
    int, float or str, or config classes) or its declared rule. None fits
    an optional field."""
    for name, checks, optional in _field_checks(type(config)):
        value = getattr(config, name)
        for want, fits in checks:
            if not (value is None and optional or fits(value)):
                raise ValueError(f"{name} must be {want}, got {value!r}")


class _Config:
    """Base of the config dataclasses. A subclass's __post_init__ calls this
    one and adds only rules that span fields or are not bounds."""

    def __post_init__(self) -> None:
        _check_fields(self)


class PhaseMode(str, Enum):
    """Supply phase handling across frames.

    CONTINUOUS runs one clock through the whole stack, the way a free
    running oscillator beats against the sensor timing. RANDOM_PER_FRAME
    draws a fresh uniform phase for each frame, for rigs where capture
    timing is uncorrelated with the disturbance.
    """

    CONTINUOUS = "continuous"
    RANDOM_PER_FRAME = "random_per_frame"


@dataclass(frozen=True)
class SensorConfig(_Config):
    width: int = _bounded(1280, ge=1)
    active_rows: int = _bounded(800, ge=1)
    optical_black_rows: int = _bounded(0, ge=0)
    blanking_rows: int = _bounded(12, ge=0)
    fps: float = _bounded(30.0, gt=0)
    pedestal_dn: float = _bounded(16.0, ge=0, le=MAX_DN)  # keeps negatives off the 0 clamp
    dn_per_volt: float = _bounded(MAX_DN / 3.3, gt=0)
    channels: int = _bounded(1, choices=(1, 3))

    # Keys that older documents carry for a field that had one legal
    # value: key -> (field type, value). _build_section drops such a key
    # when it holds that value and rejects any other.
    _retired_keys = {"bit_depth": (int, 8)}

    @property
    def readout_rows(self) -> int:
        """Rows that produce pixels: active plus optical black."""
        return self.active_rows + self.optical_black_rows

    @property
    def frame_length_rows(self) -> int:
        """Total row periods per frame, blanking included."""
        return self.active_rows + self.optical_black_rows + self.blanking_rows

    @property
    def line_frequency_hz(self) -> float:
        return physics.line_frequency(self.fps, self.frame_length_rows)


@dataclass(frozen=True)
class SupplyNoiseConfig(_Config):
    frequency_hz: float = _bounded(0.0, ge=0)
    amplitude_vpp: float = _bounded(0.0, ge=0)
    phase_rad: float = 0.0
    coupling_gain: float = 1.0
    phase_mode: PhaseMode = _bounded(PhaseMode.CONTINUOUS, choices=[m.value for m in PhaseMode])
    rc_cutoff_hz: float | None = _bounded(None, gt=0)  # first-order low-pass ahead of the rail

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "phase_mode", PhaseMode(self.phase_mode))


@dataclass(frozen=True)
class TemporalNoiseConfig(_Config):
    shot_enabled: bool = False
    dark_signal_e: float = _bounded(0.0, ge=0, le=MAX_POISSON_MEAN)
    read_noise_dn: float = _bounded(0.0, ge=0)
    flicker_enabled: bool = False
    flicker_scale_dn: float = _bounded(0.0, ge=0)
    reset_enabled: bool = False
    reset_temp_k: float = _bounded(300.0, gt=0)
    reset_cap_f: float = _bounded(5e-15, gt=0)
    cds_enabled: bool = False


@dataclass(frozen=True)
class SpatialNoiseConfig(_Config):
    dsnu_dn: float = _bounded(0.0, ge=0)        # per-pixel offset sigma, frozen per seed
    column_fpn_dn: float = _bounded(0.0, ge=0)  # per-column offset sigma, constant down rows
    prnu_fraction: float = 0.0  # gain sigma; must be 0 at 0 lux (see module doc)

    def __post_init__(self) -> None:
        # Any number but 0, nan included, gets the reason; a non-number the type message.
        if _is_real(self.prnu_fraction) and self.prnu_fraction != 0:
            raise ValueError(
                f"prnu_fraction must be 0, got {self.prnu_fraction}: illumination is "
                "not modelled (captures are dark), so there is no photo signal for "
                "PRNU to scale"
            )
        super().__post_init__()


@dataclass(frozen=True)
class SimScenario(_Config):
    sensor: SensorConfig = field(default_factory=SensorConfig)
    supply: SupplyNoiseConfig = field(default_factory=SupplyNoiseConfig)
    temporal: TemporalNoiseConfig = field(default_factory=TemporalNoiseConfig)
    spatial: SpatialNoiseConfig = field(default_factory=SpatialNoiseConfig)
    seed: int = _bounded(0, ge=0, lt=2**64)


@dataclass
class Frame:
    """One simulated or loaded capture, channel-major uint8."""

    pixels: np.ndarray  # (channels, rows, width)

    def __post_init__(self) -> None:
        if self.pixels.ndim != 3:
            raise ValueError(f"pixels must be (channels, rows, width), got {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def rows(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class FpnMaps:
    """Frozen offset maps. A map whose sigma is 0 is None: nothing is
    drawn for it and nothing is added."""

    pixel_offset_dn: np.ndarray | None  # (channels, rows, width)
    column_offset_dn: np.ndarray | None  # (channels, width), broadcast down rows


def _shape(sensor: SensorConfig) -> tuple[int, int, int]:
    return sensor.channels, sensor.readout_rows, sensor.width


def _stream(seed: int, *key: int) -> np.random.Generator:
    # Philox is counter-based; SeedSequence spawn keys give stable,
    # collision-free substreams for (frame, tag) addressing.
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def rc_attenuation(freq_hz: float, cutoff_hz: float | None) -> tuple[float, float]:
    """First-order low-pass response: (gain, phase shift in rad)."""
    if cutoff_hz is None or freq_hz == 0.0:
        return 1.0, 0.0
    ratio = freq_hz / cutoff_hz
    return 1.0 / math.sqrt(1.0 + ratio * ratio), -math.atan(ratio)


def pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """1/f noise by multi-rate summation.

    Octave k of PINK_OCTAVES holds a white sample for 2**k outputs; the
    sum over octaves has a power density sloping at about -1 per decade
    across the band the octave count spans. Output is scaled to roughly
    unit variance.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return _pink_noise(n, rng)


def _pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    # pink_noise's body, which the frame maker calls on any thread.
    total = np.empty(n, dtype=np.float64)
    rng.standard_normal(out=total)  # octave 0: one draw per output
    # Octaves k >= 1 are drawn in pieces of at most _CHUNK values into
    # one buffer, which continue the generator's draws like one whole
    # draw: the series is then the only n-sized array held.
    buf = np.empty(min(_CHUNK, (n + 1) // 2), dtype=np.float64)
    for k in range(1, PINK_OCTAVES):
        step = 1 << k
        for start in range(0, n, _CHUNK * step):
            span = total[start : start + _CHUNK * step]
            draws = buf[: (span.size + step - 1) // step]
            rng.standard_normal(out=draws)
            # Each draw covers one block of `step` outputs; the last
            # block may be short.
            whole = span.size // step
            blocks = span[: whole * step].reshape(whole, step)
            blocks += draws[:whole, None]
            if whole < draws.size:
                span[whole * step :] += draws[whole]
    total /= math.sqrt(PINK_OCTAVES)
    return total


def _round_and_clip(analog: np.ndarray) -> np.ndarray:
    # clip(floor(x + 0.5), 0, MAX_DN) computed as a truncating cast of
    # clip(x + 0.5, 0, MAX_DN): on [0, MAX_DN] truncation is floor.
    analog += 0.5
    return np.clip(analog, 0, MAX_DN, out=analog)


def quantize_dn(analog: np.ndarray) -> np.ndarray:
    """Round to the nearest DN with halves up, clamp to [0, MAX_DN], cast
    to uint8. The caller's array is left as it is.

    Halves up and halves away from zero differ only below zero, where
    both clamp to 0.
    """
    return _round_and_clip(np.array(analog, dtype=np.float64)).astype(np.uint8)


@contextmanager
def _finite_arithmetic():
    """Raise ValueError where the simulator's float64 arithmetic would
    overflow or make a NaN: config values that are each finite can still
    overflow together, as a 1e308 Hz supply phase or 1e308 DN of noise."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"scenario values overflow float64 arithmetic: {exc}") from None


@_finite_arithmetic()
def generate_fpn_maps(seed: int, sensor: SensorConfig, spatial: SpatialNoiseConfig) -> FpnMaps:
    """Frozen non-uniformity maps for one seed. Frame-independent."""
    pixel = column = None
    if spatial.dsnu_dn != 0:
        pixel = _stream(seed, _TAG_FPN_PIXEL).standard_normal(_shape(sensor))
        pixel *= spatial.dsnu_dn
    if spatial.column_fpn_dn != 0:
        column = _stream(seed, _TAG_FPN_COLUMN).standard_normal((sensor.channels, sensor.width))
        column *= spatial.column_fpn_dn
    return FpnMaps(pixel_offset_dn=pixel, column_offset_dn=column)


@_finite_arithmetic()
def row_supply_offsets_dn(scenario: SimScenario, frame_index: int) -> np.ndarray:
    """Per-row DN offset injected by the supply disturbance, pre-quantization:
    the RC-filtered rail sinusoid, peak amplitude_vpp / 2, sampled at each
    row's readout time (module doc), plus a random phase per frame in
    RANDOM_PER_FRAME mode, where every frame's clock starts at 0."""
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    sensor, supply = scenario.sensor, scenario.supply
    t = np.arange(sensor.readout_rows, dtype=np.float64) / sensor.line_frequency_hz
    extra_phase = 0.0
    if supply.phase_mode is PhaseMode.RANDOM_PER_FRAME:
        extra_phase = float(
            _stream(scenario.seed, frame_index, _TAG_PHASE).uniform(0.0, 2.0 * math.pi)
        )
    else:
        t = frame_index / sensor.fps + t
    gain, phase_lag = rc_attenuation(supply.frequency_hz, supply.rc_cutoff_hz)
    arg = 2.0 * math.pi * supply.frequency_hz * t + supply.phase_rad + phase_lag + extra_phase
    volts = 0.5 * supply.amplitude_vpp * gain * np.sin(arg)
    return supply.coupling_gain * sensor.dn_per_volt * volts


def _pieces(shape: tuple[int, int, int]) -> Iterator[tuple[int, slice, slice]]:
    """Index (channel, rows, columns) of each piece of a (channels, rows,
    width) frame, in row-major order: whole rows, as many as fit in
    _CHUNK elements, or pieces of _CHUNK columns of a longer row. No
    piece spans two channels."""
    channels, rows, width = shape
    step = max(1, _CHUNK // width)
    for c in range(channels):
        for r in range(0, rows, step):
            row_slice = slice(r, min(r + step, rows))
            for x in range(0, width, _CHUNK):
                yield c, row_slice, slice(x, min(x + _CHUNK, width))


def _piece_buffer(shape: tuple[int, int, int]) -> np.ndarray:
    """A float64 buffer as large as the largest of _pieces(shape)."""
    _, rows, width = shape
    return np.empty(min(rows, max(1, _CHUNK // width)) * min(width, _CHUNK), dtype=np.float64)


def _noise_terms(scenario: SimScenario, frame_index: int):
    """The temporal sources of one frame that are on, each None when off:
    shot is (generator, mean electrons), read and reset are (generator,
    sigma DN) and flicker is (generator, scale DN)."""
    temporal = scenario.temporal

    def stream(tag: int) -> np.random.Generator:
        return _stream(scenario.seed, frame_index, tag)

    shot = read = reset = flicker = None
    if temporal.shot_enabled and temporal.dark_signal_e > 0:
        shot = (stream(_TAG_SHOT), temporal.dark_signal_e)
    if temporal.read_noise_dn > 0:
        read = (stream(_TAG_READ), temporal.read_noise_dn)
    if temporal.reset_enabled and not temporal.cds_enabled:
        # A numpy product, so an overflow to inf raises under
        # _finite_arithmetic: inf * noise would raise no overflow flag later.
        volts = np.float64(physics.reset_noise_v(temporal.reset_temp_k, temporal.reset_cap_f))
        reset = (stream(_TAG_RESET), volts * scenario.sensor.dn_per_volt)
    if temporal.flicker_enabled and temporal.flicker_scale_dn > 0:
        flicker = (stream(_TAG_FLICKER), temporal.flicker_scale_dn)
    return shot, read, reset, flicker


def _add_draws(piece: np.ndarray, buf: np.ndarray | None, shot, normals) -> None:
    """Add to piece a Poisson draw of shot (1 DN per e-), unless it is
    None, then each (generator, sigma) of normals as a scaled normal draw
    through buf. Each call continues its generators' draws, so pieces
    taken in order get the values of one whole-frame draw."""
    if shot:
        piece += shot[0].poisson(shot[1], piece.shape)
    if normals:
        noise = buf[: piece.size].reshape(piece.shape)
        for rng, sigma in normals:
            rng.standard_normal(out=noise)
            noise *= sigma
            piece += noise


@_finite_arithmetic()
def _frame_in_pieces(
    scenario: SimScenario, frame_index: int, fpn: FpnMaps | None, offsets: np.ndarray, sink
) -> None:
    """The one body that makes a frame, on the thread that calls it, given
    the frame's row_supply_offsets_dn. The flicker series is drawn first,
    whole; then each piece sums its terms in a fixed order (pedestal plus
    supply offset, shot, read, reset, flicker, pixel FPN, column FPN) in
    a float64 buffer that the next piece reuses, and goes to sink(index,
    piece), index being its _pieces entry. So no whole float sum or reset
    array is held. Given fpn, it calls no function that bench/spans.py
    traces, so it may run on a helper thread."""
    sensor = scenario.sensor
    if fpn is None:
        fpn = generate_fpn_maps(scenario.seed, sensor, scenario.spatial)
    shape = _shape(sensor)
    shot, read, reset, flicker = _noise_terms(scenario, frame_index)
    series = _pink_noise(math.prod(shape), flicker[0]).reshape(shape) if flicker else None
    normals = [term for term in (read, reset) if term]
    level = sensor.pedestal_dn + offsets
    acc = _piece_buffer(shape)
    buf = _piece_buffer(shape) if normals else None
    for index in _pieces(shape):
        c, rows, columns = index
        n_rows, n_columns = rows.stop - rows.start, columns.stop - columns.start
        piece = acc[: n_rows * n_columns].reshape(n_rows, n_columns)
        piece[...] = level[rows, None]
        _add_draws(piece, buf, shot, normals)
        if series is not None:
            term = series[index]
            term *= flicker[1]
            piece += term
        if fpn.pixel_offset_dn is not None:
            piece += fpn.pixel_offset_dn[index]
        if fpn.column_offset_dn is not None:
            piece += fpn.column_offset_dn[c, columns]
        sink(index, piece)


def simulate_frame_analog(
    scenario: SimScenario, frame_index: int, fpn: FpnMaps | None = None
) -> np.ndarray:
    """Analog pixel values before quantization, float64 (channels, rows, width)."""
    analog = np.empty(_shape(scenario.sensor), dtype=np.float64)
    offsets = row_supply_offsets_dn(scenario, frame_index)
    _frame_in_pieces(scenario, frame_index, fpn, offsets, analog.__setitem__)
    return analog


def _quantized(scenario: SimScenario, frame_index: int, fpn, offsets: np.ndarray) -> Frame:
    """simulate_frame given its maps and offsets."""
    pixels = np.empty(_shape(scenario.sensor), dtype=np.uint8)

    def store(index, piece) -> None:
        pixels[index] = _round_and_clip(piece)

    _frame_in_pieces(scenario, frame_index, fpn, offsets, store)
    return Frame(pixels=pixels)


def _row_sums(scenario: SimScenario, frame_index: int, fpn, offsets: np.ndarray) -> np.ndarray:
    """The (channels, rows) row sums of simulate_frame's pixels, with no frame
    made: the int64 sum truncates each rounded, clipped value as the uint8
    cast does. Divided by the width they are metric.row_means, bit for bit."""
    sums = np.zeros(_shape(scenario.sensor)[:2], dtype=np.int64)

    def add(index, piece) -> None:
        c, rows, _ = index
        sums[c, rows] += _round_and_clip(piece).sum(axis=1, dtype=np.int64)

    _frame_in_pieces(scenario, frame_index, fpn, offsets, add)
    return sums


def simulate_frame(
    scenario: SimScenario, frame_index: int, fpn: FpnMaps | None = None
) -> Frame:
    """Quantized capture of one frame: simulate_frame_analog's values,
    rounded and clipped piece by piece into uint8."""
    return _quantized(scenario, frame_index, fpn, row_supply_offsets_dn(scenario, frame_index))


def _stack_tasks(scenario: SimScenario, n_frames: int, make) -> Iterator:
    """A task make(scenario, frame_index, fpn, offsets) per frame of the stack.
    The maps are built as the first is taken and each frame's offsets as
    its task is, on the taking thread, with the other traced calls."""
    fpn = generate_fpn_maps(scenario.seed, scenario.sensor, scenario.spatial)
    for i in range(n_frames):
        yield functools.partial(make, scenario, i, fpn, row_supply_offsets_dn(scenario, i))


def _in_pairs(tasks: Iterator) -> Iterator:
    """The result of each zero-argument task, in order. Tasks are taken two
    at a time: the calling thread runs the first while one helper thread
    runs the second. Closing early or a task that raises joins the helper
    first."""
    # One helper thread, started at the first submit: one task starts none.
    with ThreadPoolExecutor(1) as helper:
        while pair := list(islice(tasks, 2)):
            later = [helper.submit(task) for task in pair[1:]]
            yield pair[0]()
            for future in later:
                yield future.result()


def iter_stack(scenario: SimScenario, n_frames: int) -> Iterator[Frame]:
    """The frames of simulate_stack, in order, made in pairs as they are
    asked for (_in_pairs). A caller that writes each frame out holds at
    most the frame it last took and the pair in the making."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    yield from _in_pairs(_stack_tasks(scenario, n_frames, _quantized))


def simulate_stack(scenario: SimScenario, n_frames: int) -> list[Frame]:
    """n_frames consecutive captures sharing one set of FPN maps."""
    return list(iter_stack(scenario, n_frames))


def scenario_to_json(scenario: SimScenario) -> str:
    """Serialize to a stable JSON document mirroring the config fields."""
    return json.dumps(asdict(scenario), sort_keys=True)


def _build_section(cls, section, name: str, **parts):
    """cls from one document section. A field whose default is a config
    dataclass is built from its own sub-section, unless parts gives it.
    A section that is not an object, has unknown keys or lacks a required
    one raises ValueError naming it by its path in the document. A key
    of cls._retired_keys is dropped when it holds its one legal value."""
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be an object")
    section = dict(section)
    for key, (kind, legal) in getattr(cls, "_retired_keys", {}).items():
        if key in section:
            value = section.pop(key)
            if not (_TYPES[kind][1](value) and value == legal):
                raise ValueError(f"{key} is retired and may only be {legal}, got {value!r}")
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.name in section and f.name not in parts and is_dataclass(f.default_factory):
            parts[f.name] = _build_section(f.default_factory, section[f.name], f"{name}.{f.name}")
    try:
        return cls(**{**section, **parts})
    except TypeError as exc:
        raise ValueError(f"bad {name}: {exc}") from exc


def scenario_from_json(text: str) -> SimScenario:
    """Inverse of scenario_to_json. Missing fields take their defaults."""
    return _build_section(SimScenario, json.loads(text), "scenario")
