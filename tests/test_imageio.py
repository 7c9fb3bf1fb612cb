"""PGM/PPM writer and PGM/PPM/BMP reader tests, including golden byte layouts."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rownoise.imageio import ImageParseError, find_images, read_image, read_stack, write_image
from rownoise.sensor import Frame


def _bmp_bytes(width, height, rows_bottom_up, bpp=24, compression=0):
    """Assemble a BMP file. rows_bottom_up is a list of rows, each a list of
    (b, g, r) tuples, already in file order (bottom row first for height > 0)."""
    row_bytes = (width * 3 + 3) & ~3
    payload = bytearray()
    for row in rows_bottom_up:
        line = bytearray()
        for b, g, r in row:
            line += bytes((b, g, r))
        line += b"\x00" * (row_bytes - len(line))
        payload += line
    pixel_offset = 14 + 40
    size = pixel_offset + len(payload)
    header = struct.pack("<2sIHHI", b"BM", size, 0, 0, pixel_offset)
    info = struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, bpp, compression, len(payload), 0, 0, 0, 0
    )
    return bytes(header + info + payload)


class TestFindImages:
    def test_pattern_suffix_and_name_order(self, tmp_path):
        for name in ("im2.pgm", "im10.PPM", "im1.bmp", "im.log", "im3.pgm.txt", "x1.pgm"):
            (tmp_path / name).write_bytes(b"")
        assert [p.name for p in find_images(tmp_path)] == ["im1.bmp", "im10.PPM", "im2.pgm"]
        assert [p.name for p in find_images(tmp_path, "x*")] == ["x1.pgm"]


class TestWriter:
    def test_pgm_golden_bytes(self, make_frame, tmp_path):
        frame = make_frame([[0, 255], [128, 64]])
        path = tmp_path / "golden.pgm"
        write_image(frame, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes((0, 255, 128, 64))

    def test_ppm_interleaves_channels(self, make_frame, tmp_path):
        pixels = np.array(
            [[[1, 2]], [[3, 4]], [[5, 6]]], dtype=np.uint8
        )  # (3 channels, 1 row, 2 cols)
        frame = make_frame(pixels)
        path = tmp_path / "golden.ppm"
        write_image(frame, path)
        assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes((1, 3, 5, 2, 4, 6))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_bytes_equal_header_plus_interleaved_pixels(self, tmp_path, channels, contiguous):
        # The layout the writer had when it joined header and payload in memory.
        pixels = np.random.default_rng(channels).integers(0, 256, (channels, 30, 42), np.uint8)
        if not contiguous:
            pixels = pixels[:, ::2, 1::3]
        frame = Frame(pixels=pixels)
        path = tmp_path / f"x{'.pgm' if channels == 1 else '.ppm'}"
        write_image(frame, path)
        magic = b"P5" if channels == 1 else b"P6"
        header = b"%s\n%d %d\n255\n" % (magic, frame.width, frame.rows)
        assert path.read_bytes() == header + np.transpose(pixels, (1, 2, 0)).tobytes()

    def test_single_channel_to_ppm_rejected(self, make_frame, tmp_path):
        with pytest.raises(ValueError):
            write_image(make_frame([[0]]), tmp_path / "x.ppm")

    def test_three_channel_to_pgm_rejected(self, make_frame, tmp_path):
        frame = make_frame(np.zeros((3, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            write_image(frame, tmp_path / "x.pgm")

    def test_unknown_suffix_rejected(self, make_frame, tmp_path):
        with pytest.raises(ValueError):
            write_image(make_frame([[0]]), tmp_path / "x.png")


class TestPnmReader:
    def test_pgm_round_trip(self, make_frame, tmp_path):
        rng = np.random.default_rng(7)
        frame = make_frame(rng.integers(0, 256, size=(1, 13, 9), dtype=np.uint8))
        path = tmp_path / "rt.pgm"
        write_image(frame, path)
        back = read_image(path)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_ppm_round_trip(self, make_frame, tmp_path):
        rng = np.random.default_rng(8)
        frame = make_frame(rng.integers(0, 256, size=(3, 5, 11), dtype=np.uint8))
        path = tmp_path / "rt.ppm"
        write_image(frame, path)
        back = read_image(path)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n2 1\n# another\n255\n\x07\x09")
        img = read_image(path).pixels
        assert img.shape == (1, 1, 2)
        assert list(img[0, 0]) == [7, 9]

    def test_sixteen_bit_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        with pytest.raises(ImageParseError):
            read_image(path)
        # Samples are full-range DN: a smaller maxval would be misread, and
        # a sample above it (200 here) would pass unnoticed.
        for maxval in (100, 254):
            path.write_bytes(b"P5\n2 1\n%d\n\xc8\x00" % maxval)
            with pytest.raises(ImageParseError, match=f"maxval {maxval}"):
                read_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageParseError, match="need 16 bytes, have 2"):
            read_image(path)

    def test_trailing_bytes_after_the_payload_are_ignored(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\x07\x09trailing")
        assert read_image(path).pixels.tolist() == [[[7, 9]]]

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "odd.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ImageParseError):
            read_image(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\nnot a number\n255\n")
        with pytest.raises(ImageParseError):
            read_image(path)

    @pytest.mark.parametrize(
        "data, message",
        [(b"P5\n4 4 255", "truncated header"), (b"P5\n0 4\n255\n", "bad dimensions 0x4")],
    )
    def test_malformed_header_rejected_naming_the_fault(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ImageParseError, match=message):
            read_image(path)


class TestBmpReader:
    def test_bottom_up_rows_and_bgr_order(self, tmp_path):
        # Logical top row: red, green. Logical bottom row: blue, white.
        file_rows = [
            [(255, 0, 0), (255, 255, 255)],  # bottom row first, BGR
            [(0, 0, 255), (0, 255, 0)],
        ]
        path = tmp_path / "up.bmp"
        path.write_bytes(_bmp_bytes(2, 2, file_rows))
        img = read_image(path).pixels
        assert img.shape == (3, 2, 2)
        r, g, b = img
        assert list(r[0]) == [255, 0] and list(g[0]) == [0, 255] and list(b[0]) == [0, 0]
        assert list(r[1]) == [0, 255] and list(g[1]) == [0, 255] and list(b[1]) == [255, 255]

    def test_negative_height_means_top_down(self, tmp_path):
        file_rows = [
            [(0, 0, 255), (0, 255, 0)],  # top row first when height < 0
            [(255, 0, 0), (255, 255, 255)],
        ]
        path = tmp_path / "down.bmp"
        path.write_bytes(_bmp_bytes(2, -2, file_rows))
        img = read_image(path).pixels
        r = img[0]
        assert list(r[0]) == [255, 0]
        assert list(r[1]) == [0, 255]

    def test_row_padding_is_stripped(self, tmp_path):
        # Width 3: 9 payload bytes per row, padded to 12.
        file_rows = [[(1, 2, 3), (4, 5, 6), (7, 8, 9)]]
        path = tmp_path / "pad.bmp"
        data = _bmp_bytes(3, 1, file_rows)
        assert (len(data) - 54) % 4 == 0
        path.write_bytes(data)
        img = read_image(path).pixels
        assert img.shape == (3, 1, 3)
        assert list(img[0, 0]) == [3, 6, 9]  # red channel
        assert list(img[2, 0]) == [1, 4, 7]  # blue channel

    def test_unsupported_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "pal.bmp"
        path.write_bytes(_bmp_bytes(1, 1, [[(0, 0, 0)]], bpp=8))
        with pytest.raises(ImageParseError):
            read_image(path)

    def test_compressed_rejected(self, tmp_path):
        path = tmp_path / "rle.bmp"
        path.write_bytes(_bmp_bytes(1, 1, [[(0, 0, 0)]], compression=1))
        with pytest.raises(ImageParseError):
            read_image(path)

    def test_zero_width_rejected(self, tmp_path):
        path = tmp_path / "thin.bmp"
        path.write_bytes(_bmp_bytes(0, 1, [[]]))
        with pytest.raises(ImageParseError, match="bad dimensions 0x1"):
            read_image(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "cut.bmp"
        path.write_bytes(_bmp_bytes(4, 4, [[(0, 0, 0)] * 4] * 4)[:-10])
        with pytest.raises(ImageParseError, match="pixel data truncated, need 48 bytes, have 38"):
            read_image(path)


class TestReadStack:
    def test_reads_in_given_order(self, make_frame, tmp_path):
        paths = []
        for i in range(3):
            frame = make_frame(np.full((1, 2, 2), i * 10, dtype=np.uint8))
            p = tmp_path / f"im{i + 1}.pgm"
            write_image(frame, p)
            paths.append(p)
        stack = list(read_stack(paths))
        assert len(stack) == 3
        assert stack[1].pixels[0, 0, 0] == 10

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            list(read_stack([tmp_path / "nope.pgm"]))

    def test_mismatched_geometry_names_the_file(self, make_frame, tmp_path):
        write_image(make_frame(np.zeros((1, 2, 2), dtype=np.uint8)), tmp_path / "im1.pgm")
        write_image(make_frame(np.zeros((1, 3, 2), dtype=np.uint8)), tmp_path / "im2.pgm")
        with pytest.raises(ImageParseError, match="im2.pgm: dimensions 2x3x1"):
            list(read_stack([tmp_path / "im1.pgm", tmp_path / "im2.pgm"]))


def mostly(valid, other):
    """valid about three times in four, so that many files decode; drawn
    as test_cli.mostly draws."""
    return st.sampled_from([True] * 3 + [False]).flatmap(lambda ok: valid if ok else other)


def unsigned(bits, valid):
    return mostly(st.just(valid), st.integers(0, 2**bits - 1))


# Long enough for the small geometries most of the time.
PAYLOAD = mostly(st.binary(min_size=108, max_size=160), st.binary(max_size=108))
DIMENSION = mostly(st.integers(1, 6), st.integers(-(2**31), 2**31 - 1))
PNM_TOKEN = st.one_of(st.integers(0, 2**32).map(str), st.sampled_from(["x", "-1", "", "1e3"]))
PNM = st.builds(
    lambda magic, tokens, seps, payload: magic
    + b"".join(sep + token.encode() for sep, token in zip(seps, tokens))
    + seps[-1][:1]
    + payload,
    st.sampled_from([b"P5", b"P6"]),
    st.tuples(
        mostly(st.integers(1, 6).map(str), PNM_TOKEN),
        mostly(st.integers(1, 6).map(str), PNM_TOKEN),
        mostly(st.just("255"), PNM_TOKEN),
    ),
    st.lists(mostly(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"]),
                    st.sampled_from([b"#", b""])), min_size=4, max_size=4),
    PAYLOAD,
)
BMP = st.builds(
    lambda head, payload: b"BM" + head + payload,
    st.tuples(
        unsigned(32, 0), unsigned(16, 0), unsigned(16, 0), unsigned(32, 54),  # file header
        unsigned(32, 40), DIMENSION, DIMENSION,  # header size, width, height
        unsigned(16, 1), unsigned(16, 24), unsigned(32, 0),  # planes, bpp, compression
    ).map(lambda v: struct.pack("<IHHIIiiHHI", *v) + bytes(20)),
    PAYLOAD,
)
IMAGE_BYTES = st.one_of(
    st.builds(lambda magic, rest: magic + rest, st.sampled_from([b"P5", b"P6", b"BM"]),
              st.binary(max_size=80)),
    PNM,
    BMP,
)


class TestReaderProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=IMAGE_BYTES)
    def test_any_bytes_give_a_frame_or_a_parse_error(self, tmp_path, data):
        path = tmp_path / "im.bin"
        path.write_bytes(data)
        try:
            frame = read_image(path)
        except ImageParseError as exc:
            assert str(exc).startswith(str(path))
        else:
            assert isinstance(frame, Frame) and min(frame.pixels.shape) >= 1
