"""Image file codecs: binary PGM/PPM writing, PGM/PPM/BMP reading.

Only the formats the capture rigs actually produce. PGM (P5) and PPM
(P6) are written and read with maxval 255 only, rows top-down; the
writer emits no comments. Samples are taken as full-range 8-bit DN, so a
file with any other maxval is rejected rather than misread. Readers
additionally accept uncompressed 24-bit BMP, normalizing its bottom-up
row order and stripping the per-row padding so callers always see
top-down (channels, rows, width) uint8.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .sensor import Frame

__all__ = [
    "ImageParseError", "image_suffix", "find_images", "write_image", "read_image", "read_stack",
]

IMAGE_SUFFIXES = (".pgm", ".ppm", ".bmp")


class ImageParseError(ValueError):
    """Raised when a file does not decode as PGM, PPM or 24-bit BMP."""


def image_suffix(channels: int) -> str:
    """The suffix write_image takes for a frame of this many channels."""
    return ".pgm" if channels == 1 else ".ppm"


def find_images(directory: str | Path, pattern: str = "im*") -> list[Path]:
    """The image files in directory whose names match pattern, in name
    order. A file counts as an image by its suffix, any case, in
    IMAGE_SUFFIXES, so a log or sidecar beside the images is skipped."""
    return sorted(
        p for p in Path(directory).glob(pattern) if p.suffix.lower() in IMAGE_SUFFIXES
    )


def write_image(frame: Frame, path: str | Path) -> None:
    """Write a frame as binary PGM (1 channel) or PPM (3 channels).

    The extension must agree with the channel count: .pgm is mono,
    .ppm is RGB.
    """
    path = Path(path)
    expected = image_suffix(frame.channels)
    if path.suffix.lower() != expected:
        raise ValueError(f"{frame.channels}-channel frames write {expected}, got {path.name!r}")
    if frame.channels == 1:
        magic, payload = b"P5", frame.pixels[0].tobytes()
    else:
        # P6 interleaves RGB per pixel.
        magic, payload = b"P6", np.transpose(frame.pixels, (1, 2, 0)).tobytes()
    header = b"%s\n%d %d\n255\n" % (magic, frame.width, frame.rows)
    path.write_bytes(header + payload)


def read_image(path: str | Path) -> Frame:
    """Load one image file; format is detected from its magic bytes."""
    path = Path(path)
    data = path.read_bytes()
    if data[:2] in (b"P5", b"P6"):
        return _read_pnm(data, path)
    if data[:2] == b"BM":
        return _read_bmp(data, path)
    raise ImageParseError(f"{path}: unknown magic {data[:2]!r}")


def read_stack(paths) -> list[Frame]:
    """Load images that must share one geometry; a mismatch names the file."""
    paths = list(paths)
    frames: list[Frame] = []
    for p in paths:
        frame = read_image(p)
        if frames and frame.pixels.shape != frames[0].pixels.shape:
            (c, r, w), (c0, r0, w0) = frame.pixels.shape, frames[0].pixels.shape
            raise ImageParseError(
                f"{p}: dimensions {w}x{r}x{c} do not match {paths[0]} ({w0}x{r0}x{c0})"
            )
        frames.append(frame)
    return frames


def _read_pnm(data: bytes, path: Path) -> Frame:
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields = []
    while len(fields) < 3:
        # Skip whitespace and '#' comment lines between header tokens.
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ImageParseError(f"{path}: bad header token {token!r}")
        fields.append(int(token))
    if pos >= len(data):
        raise ImageParseError(f"{path}: truncated header")
    pos += 1  # single whitespace byte terminates the header
    width, rows, maxval = fields
    if width < 1 or rows < 1:
        raise ImageParseError(f"{path}: bad dimensions {width}x{rows}")
    if maxval != 255:
        raise ImageParseError(f"{path}: unsupported maxval {maxval}, need 255")
    need = width * rows * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ImageParseError(
            f"{path}: payload truncated, need {need} bytes, have {len(payload)}"
        )
    grid = np.frombuffer(payload, dtype=np.uint8).reshape(rows, width, channels)
    return Frame(pixels=np.ascontiguousarray(np.transpose(grid, (2, 0, 1))))


def _read_bmp(data: bytes, path: Path) -> Frame:
    if len(data) < 54:
        raise ImageParseError(f"{path}: truncated BMP header")
    # BITMAPFILEHEADER: magic, file size, reserved, pixel data offset.
    pixel_offset = struct.unpack_from("<I", data, 10)[0]
    header_size = struct.unpack_from("<I", data, 14)[0]
    if header_size < 40:
        raise ImageParseError(f"{path}: unsupported BMP header size {header_size}")
    width, height = struct.unpack_from("<ii", data, 18)
    planes, bpp = struct.unpack_from("<HH", data, 26)
    compression = struct.unpack_from("<I", data, 30)[0]
    if planes != 1:
        raise ImageParseError(f"{path}: bad plane count {planes}")
    if bpp != 24:
        raise ImageParseError(f"{path}: unsupported bit depth {bpp}, need 24")
    if compression != 0:
        raise ImageParseError(f"{path}: unsupported compression {compression}, need BI_RGB")
    if width < 1 or height == 0:
        raise ImageParseError(f"{path}: bad dimensions {width}x{height}")

    bottom_up = height > 0
    rows = abs(height)
    row_bytes = (width * 3 + 3) & ~3  # rows padded to 4-byte boundaries
    need = rows * row_bytes
    payload = data[pixel_offset : pixel_offset + need]
    if len(payload) < need:
        raise ImageParseError(
            f"{path}: pixel data truncated, need {need} bytes, have {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(rows, row_bytes)
    bgr = raw[:, : width * 3].reshape(rows, width, 3)
    if bottom_up:
        bgr = bgr[::-1]
    rgb = bgr[:, :, ::-1]
    return Frame(pixels=np.ascontiguousarray(np.transpose(rgb, (2, 0, 1))))
