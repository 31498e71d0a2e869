import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

from pyrovigil.errors import DataError
from pyrovigil.frameio import frame_dir_source, read_ppm, write_ppm
from pyrovigil.imaging import (
    ColorSpace, Frame, convert, integral, integral_table, luma, rgb_to_lab,
)

from oracles import corner_sum, luma_float, rgb_to_lab_float


# independent scalar reference for sRGB -> XYZ(D65) -> CIELAB
def _ref_lab(r8, g8, b8):
    def lin(c8):
        c = c8 / 255.0
        return c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4

    r, g, b = lin(r8), lin(g8), lin(b8)
    x = 0.4124564 * r + 0.3575761 * g + 0.1804375 * b
    y = 0.2126729 * r + 0.7151522 * g + 0.0721750 * b
    z = 0.0193339 * r + 0.1191920 * g + 0.9503041 * b
    d = 6.0 / 29.0

    def f(t):
        return t ** (1.0 / 3.0) if t > d**3 else t / (3 * d * d) + 4.0 / 29.0

    fx, fy, fz = f(x / 0.95047), f(y / 1.0), f(z / 1.08883)
    return 116 * fy - 16, 500 * (fx - fy), 200 * (fy - fz)


def _rgb_frame(*pixels):
    arr = np.array(pixels, dtype=np.uint8).reshape(1, -1, 3)
    return Frame(arr, ColorSpace.RGB)


class TestConvert:
    def test_white_to_lab(self):
        lab = convert(_rgb_frame((255, 255, 255)))[0, 0]
        assert abs(lab[0] - 100.0) < 0.5
        assert abs(lab[1]) < 0.5
        assert abs(lab[2]) < 0.5

    def test_lab_matches_reference(self):
        # value computed by the scalar reference routine above
        lab = convert(_rgb_frame((200, 30, 30)))[0, 0]
        ref = _ref_lab(200, 30, 30)
        assert np.allclose(lab, ref, atol=1e-9)
        assert np.allclose(ref, (43.220384075, 63.040467417, 45.219886304), atol=1e-6)

    def test_lab_reference_on_random_colors(self, rng):
        colors = rng.integers(0, 256, (20, 3))
        frame = Frame(colors.reshape(1, 20, 3).astype(np.uint8), ColorSpace.RGB)
        lab = convert(frame)[0]
        for i, (r, g, b) in enumerate(colors):
            assert np.allclose(lab[i], _ref_lab(r, g, b), atol=1e-9)

    def test_gray_luma_weights(self):
        g = luma(_rgb_frame((255, 255, 255)).pixels)[0, 0]
        assert abs(g - 255.0) < 1e-9
        g2 = luma(_rgb_frame((100, 0, 0)).pixels)[0, 0]
        assert abs(g2 - 29.9) < 1e-9

    def test_deterministic(self, rng):
        img = rng.integers(0, 256, (13, 17, 3)).astype(np.uint8)
        a = convert(Frame(img, ColorSpace.RGB))
        b = convert(Frame(img, ColorSpace.RGB))
        assert a.tobytes() == b.tobytes()

    def test_preserves_dims(self, rng):
        img = rng.integers(0, 256, (7, 5, 3)).astype(np.uint8)
        assert convert(Frame(img, ColorSpace.RGB)).shape == (7, 5, 3)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _crop_boxes(rng, height, width, count):
    """(x0, y0, w, h) crops: random sizes and offsets, 1-px-wide and
    1-px-tall strips, odd widths, and each side and corner of the frame."""
    boxes = [(0, 0, width, height), (0, 0, 1, 1), (width - 1, height - 1, 1, 1)]
    for _ in range(count):
        if rng.random() < 0.5:
            w = int(rng.choice([1, 1, 2, 3, 5, 9, 17, 31, 61]))
        else:
            w = int(rng.integers(1, 80))
        h = 1 if rng.random() < 0.1 else int(rng.integers(1, 80))
        x0 = int(rng.choice([0, width - w, rng.integers(0, width - w + 1)]))
        y0 = int(rng.choice([0, height - h, rng.integers(0, height - h + 1)]))
        boxes.append((x0, y0, w, h))
    return boxes


class TestLabCrops:
    """LAB of a crop must equal the full-frame conversion's slice bit for
    bit: descriptors read LAB from per-blob windows, and the trained files
    and alarm logs were made from full frames."""

    @pytest.mark.parametrize("source", ["noise", "scene"])
    def test_crops_match_full_frame_slice(self, rng, source):
        from pyrovigil.synth import SceneSpec, SyntheticScene

        if source == "noise":
            frame = Frame(rng.integers(0, 256, (240, 320, 3)).astype(np.uint8))
        else:
            frame = SyntheticScene(SceneSpec(seed=7)).frame(130)
        full = convert(frame)
        for x0, y0, w, h in _crop_boxes(rng, frame.height, frame.width, 400):
            crop = Frame(frame.pixels[y0 : y0 + h, x0 : x0 + w], ColorSpace.RGB)
            lab = convert(crop)
            assert np.array_equal(
                _bits(lab), _bits(full[y0 : y0 + h, x0 : x0 + w])
            ), (x0, y0, w, h)
            assert np.array_equal(_bits(lab), _bits(rgb_to_lab(crop.pixels)))


class TestLabTable:
    """`rgb_to_lab` linearizes 8-bit values through a table; it must give
    the bits of the float64 expression it replaced."""

    def test_every_value(self):
        values = np.arange(256, dtype=np.uint8)
        # each value in each channel, beside different values in the others
        px = np.stack([values, np.roll(values, 85), np.roll(values, 170)], axis=1)
        for shift in range(3):
            rgb = np.roll(px, shift, axis=1).reshape(1, 256, 3)
            assert np.array_equal(
                _bits(rgb_to_lab(rgb)), _bits(rgb_to_lab_float(rgb))
            )

    def test_random_frames(self, rng):
        for shape in [(240, 320, 3), (7, 1, 3), (1, 9, 3), (1, 1, 3)]:
            px = rng.integers(0, 256, shape).astype(np.uint8)
            want = _bits(rgb_to_lab_float(px))
            assert np.array_equal(_bits(rgb_to_lab(px)), want)
            # integer-valued float64, as the benchmark's kernel case passes
            assert np.array_equal(_bits(rgb_to_lab(px.astype(np.float64))), want)

    def test_scene_crops(self, rng):
        from pyrovigil.synth import SceneSpec, SyntheticScene

        frame = SyntheticScene(SceneSpec(seed=7)).frame(130)
        for x0, y0, w, h in _crop_boxes(rng, frame.height, frame.width, 200):
            px = frame.pixels[y0 : y0 + h, x0 : x0 + w]
            lab = convert(Frame(px, ColorSpace.RGB))
            assert np.array_equal(_bits(lab), _bits(rgb_to_lab_float(px))), (x0, y0, w, h)


class TestLuma:
    def test_owned_planes_match_float_luma(self, rng):
        from pyrovigil.synth import SceneSpec, SyntheticScene

        h, w = 240, 320
        out, scratch = np.empty((h, w)), np.empty((h, w))
        frames = [
            rng.integers(0, 256, (h, w, 3)).astype(np.uint8),
            SyntheticScene(SceneSpec(seed=7)).frame(130).pixels,
        ]
        for px in frames:
            got = luma(px, out, scratch)
            assert got is out
            want = _bits(luma_float(px))
            assert np.array_equal(_bits(got), want)
            assert np.array_equal(_bits(luma(px)), want)
            assert np.array_equal(_bits(luma(px.astype(np.float64))), want)


class TestFrame:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 4), np.uint8), ColorSpace.RGB)
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 4, 3)), ColorSpace.GRAY)
        with pytest.raises(ValueError):
            Frame(np.zeros((0, 4, 3), np.uint8), ColorSpace.RGB)

    @pytest.mark.parametrize("dtype", [np.float64, np.int16])
    def test_rgb_must_be_uint8(self, dtype):
        with pytest.raises(ValueError, match=f"RGB frame must be uint8, got {np.dtype(dtype)}"):
            Frame(np.zeros((4, 4, 3), dtype), ColorSpace.RGB)

    def test_gray_and_lab_are_float64(self):
        gray = Frame(np.zeros((4, 4), np.uint8), ColorSpace.GRAY)
        lab = convert(Frame(np.zeros((4, 4, 3), np.uint8), ColorSpace.RGB))
        assert gray.pixels.dtype == lab.dtype == np.float64

    def test_immutable(self):
        f = Frame(np.zeros((2, 2, 3), np.uint8), ColorSpace.RGB)
        with pytest.raises(ValueError):
            f.pixels[0, 0, 0] = 1

    @pytest.mark.parametrize("space, shape", [
        (ColorSpace.RGB, (4, 4, 3)), (ColorSpace.GRAY, (4, 4)),
    ])
    def test_caller_array_stays_writeable(self, space, shape):
        # the frame shares the caller's array of its space's dtype without
        # a copy, but only its own handle is read-only
        px = np.zeros(shape, np.uint8 if space is ColorSpace.RGB else np.float64)
        f = Frame(px, space)
        assert np.shares_memory(f.pixels, px)
        assert px.flags.writeable
        px[0, 0] = 1.0
        assert not f.pixels.flags.writeable


class TestIntegral:
    def test_single_pixel(self):
        ii = integral(Frame(np.array([[7.0]]), ColorSpace.GRAY))
        assert corner_sum(ii.table[0], 0, 0, 1, 1) == 7.0

    def test_all_zero(self, rng):
        ii = integral(Frame(np.zeros((5, 9)), ColorSpace.GRAY))
        for _ in range(10):
            x, y = int(rng.integers(0, 9)), int(rng.integers(0, 5))
            w, h = int(rng.integers(0, 9 - x + 1)), int(rng.integers(0, 5 - y + 1))
            assert corner_sum(ii.table[0], x, y, w, h) == 0.0

    def test_first_row_and_column_zero(self, rng):
        px = rng.integers(0, 256, (6, 8)).astype(float)
        ii = integral(Frame(px, ColorSpace.GRAY))
        assert np.all(ii.table[0, 0, :] == 0)
        assert np.all(ii.table[0, :, 0] == 0)

    def test_random_rects_match_brute_force(self, rng):
        px = rng.integers(0, 256, (16, 16)).astype(float)
        ii = integral(Frame(px, ColorSpace.GRAY))
        for _ in range(50):
            x, y = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            w = int(rng.integers(0, 16 - x + 1))
            h = int(rng.integers(0, 16 - y + 1))
            brute = float(px[y : y + h, x : x + w].sum())
            assert corner_sum(ii.table[0], x, y, w, h) == brute

    def test_sums_in_place_with_the_bits_of_two_cumsums(self, rng):
        gray = rng.uniform(0, 255, (240, 320))
        want = gray.cumsum(axis=0).cumsum(axis=1)
        tracemalloc.start()
        try:
            table = integral_table(gray[np.newaxis])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(_bits(table[0, 1:, 1:]), _bits(want))
        # the table itself, and no frame-sized temporary
        assert peak < table.nbytes + gray.nbytes // 2

    def test_color_frame_raises(self, rng):
        px = rng.integers(0, 256, (4, 4, 3)).astype(np.uint8)
        with pytest.raises(ValueError, match="needs a gray frame, got rgb"):
            integral(Frame(px, ColorSpace.RGB))

    def test_linearity(self, rng):
        px = rng.uniform(0, 255, (10, 12))
        a = 3.75
        i1 = integral(Frame(px, ColorSpace.GRAY))
        i2 = integral(Frame(a * px, ColorSpace.GRAY))
        for _ in range(20):
            x, y = int(rng.integers(0, 12)), int(rng.integers(0, 10))
            w = int(rng.integers(1, 12 - x + 1))
            h = int(rng.integers(1, 10 - y + 1))
            s1 = corner_sum(i1.table[0], x, y, w, h)
            s2 = corner_sum(i2.table[0], x, y, w, h)
            assert abs(s2 - a * s1) <= 1e-9 * max(1.0, abs(s2))


class TestRectSum:
    def test_zero_area(self):
        ii = integral(Frame(np.ones((3, 3)), ColorSpace.GRAY))
        assert corner_sum(ii.table[0], 1, 1, 0, 2) == 0.0
        assert corner_sum(ii.table[0], 1, 1, 2, 0) == 0.0

    def test_full_image(self, rng):
        px = rng.integers(0, 256, (7, 7)).astype(float)
        ii = integral(Frame(px, ColorSpace.GRAY))
        assert corner_sum(ii.table[0], 0, 0, 7, 7) == px.sum()

    def test_nested_monotone(self, rng):
        px = rng.integers(0, 256, (12, 12)).astype(float)
        ii = integral(Frame(px, ColorSpace.GRAY))
        for _ in range(30):
            x, y = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            w = int(rng.integers(2, 12 - x + 1))
            h = int(rng.integers(2, 12 - y + 1))
            inner = corner_sum(ii.table[0], x + 1, y + 1, w - 2, h - 2)
            outer = corner_sum(ii.table[0], x, y, w, h)
            assert outer >= inner


class TestFrameIO:
    def test_ppm_roundtrip_bit_exact(self, rng, tmp_path):
        px = rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
        path = tmp_path / "000003.ppm"
        write_ppm(path, px)
        back = read_ppm(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, px)

    @pytest.mark.parametrize("dtype", [np.float64, np.int16])
    def test_ppm_refuses_pixels_not_uint8(self, tmp_path, dtype):
        path = tmp_path / "000003.ppm"
        with pytest.raises(ValueError, match=f"PPM pixels must be uint8, got {np.dtype(dtype)}"):
            write_ppm(path, np.zeros((2, 2, 3), dtype))
        assert not path.exists()

    def test_ppm_comment_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        payload = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + payload)
        px = read_ppm(path)
        assert px.shape == (2, 2, 3)
        assert px.tobytes() == payload

    @pytest.mark.parametrize("header", [
        b"P6\n2#c\n2 255\n",  # a comment straight after a field
        b"P6\r\n2\r\n2\r\n255\n",  # CR LF separators
        b"P6 #w\n\t2#h\n#\n2\n255\r",
    ], ids=["comment after field", "CR LF", "comments and blanks"])
    def test_ppm_header_grammar(self, tmp_path, header):
        path = tmp_path / "c.ppm"
        payload = bytes(range(12))
        path.write_bytes(header + payload)
        px = read_ppm(path)
        assert px.shape == (2, 2, 3)
        assert px.tobytes() == payload

    @pytest.mark.parametrize("data", [
        b"P6\n2 2\n# comment with no newline",
        b"P66 4 255\n" + bytes(72),  # used to read as width 6
        b"P6\n+2 2\n255\n" + bytes(12),
        b"P6\n2 2\n255#c\n" + bytes(12),  # maxval ends in one whitespace byte
        b"P6\n2 2",
        b"P6",
    ], ids=["comment at end", "P66", "signed width", "comment after maxval",
            "no maxval", "magic only"])
    def test_ppm_malformed_header_rejected(self, tmp_path, data):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        with pytest.raises(DataError, match=r"bad.ppm: malformed PPM header$"):
            read_ppm(path)

    def test_ppm_failed_header_match_is_linear(self, tmp_path):
        # a comment that never ends, over 16 KiB of blanks
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6 #" + b" " * (1 << 14))
        start = time.perf_counter()
        with pytest.raises(DataError, match="malformed PPM header"):
            read_ppm(path)
        assert time.perf_counter() - start < 1.0

    def test_ppm_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(DataError, match="maxval"):
            read_ppm(path)

    def test_ppm_short_payload_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(DataError, match=r"short.ppm: PPM payload short \(11 of 12 bytes\)"):
            read_ppm(path)

    def test_ppm_trailing_bytes_accepted(self, tmp_path):
        # the payload is the 12 bytes after the header; the rest is not read
        path = tmp_path / "long.ppm"
        payload = bytes(range(12))
        path.write_bytes(b"P6\n2 2\n255\n" + payload + b"\xff" * 5)
        px = read_ppm(path)
        assert px.shape == (2, 2, 3)
        assert px.tobytes() == payload

    def test_ppm_without_pixels_rejected(self, tmp_path):
        # a 0x0 frame is a data error, so a stream can skip it
        path = tmp_path / "000000.ppm"
        path.write_bytes(b"P6\n0 0\n255\n")
        with pytest.raises(DataError, match="no pixel"):
            read_ppm(path)
        write_ppm(tmp_path / "000001.ppm", np.zeros((2, 2, 3), np.uint8))
        assert [f.index for f in frame_dir_source(tmp_path, skip_bad=True)] == [1]

    def test_frame_dir_without_frame_file_rejected(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a frame")
        with pytest.raises(DataError, match="no .ppm/.png frames found"):
            list(frame_dir_source(tmp_path))

    def test_frame_dir_without_readable_frame_rejected(self, tmp_path, caplog):
        # skipping every frame used to end the stream quietly, with no frame
        for n in (1, 2):
            (tmp_path / f"{n:06d}.ppm").write_bytes(b"P6\n2 2\n255\n\x00")
        with caplog.at_level("WARNING"):
            with pytest.raises(DataError, match="no frame could be read"):
                list(frame_dir_source(tmp_path, skip_bad=True))
        assert caplog.text.count("skipping") == 2

    def test_frame_dir_sorted_numerically(self, tmp_path):
        for n in (10, 2, 33):
            write_ppm(tmp_path / f"{n:06d}.ppm", np.full((2, 2, 3), n, np.uint8))
        frames = list(frame_dir_source(tmp_path))
        assert [f.index for f in frames] == [2, 10, 33]
        assert frames[0].pixels[0, 0, 0] == 2

    def test_frame_dir_rejects_duplicates(self, tmp_path):
        write_ppm(tmp_path / "000005.ppm", np.zeros((2, 2, 3), np.uint8))
        write_ppm(tmp_path / "extra_000005.ppm", np.zeros((2, 2, 3), np.uint8))
        with pytest.raises(DataError, match="duplicate"):
            list(frame_dir_source(tmp_path))

    def test_luma_helper(self):
        px = np.array([[[10.0, 20.0, 30.0]]])
        assert abs(luma(px)[0, 0] - (2.99 + 11.74 + 3.42)) < 1e-9

    def test_png_ingestion(self, rng, tmp_path):
        pil = pytest.importorskip("PIL.Image")
        px = rng.integers(0, 256, (6, 7, 3)).astype(np.uint8)
        pil.fromarray(px).save(tmp_path / "000002.png")
        frames = list(frame_dir_source(tmp_path))
        assert len(frames) == 1
        assert frames[0].index == 2
        assert np.array_equal(frames[0].pixels.astype(np.uint8), px)

    def test_skip_bad_frames(self, rng, tmp_path, caplog):
        write_ppm(tmp_path / "000001.ppm", np.zeros((2, 2, 3), np.uint8))
        (tmp_path / "000002.ppm").write_bytes(b"P6\n2 2\n255\n\x00")  # truncated
        write_ppm(tmp_path / "000003.ppm", np.zeros((2, 2, 3), np.uint8))
        with pytest.raises(DataError):
            list(frame_dir_source(tmp_path))
        with caplog.at_level("WARNING"):
            frames = list(frame_dir_source(tmp_path, skip_bad=True))
        assert [f.index for f in frames] == [1, 3]
        assert "skipping" in caplog.text

    @pytest.mark.parametrize("stage", ["open", "convert"])
    def test_undecodable_png_is_data_error(self, tmp_path, monkeypatch, caplog, stage):
        # pillow reports a file it cannot decode with an OSError subclass
        # (UnidentifiedImageError on open, a truncation error on load); a
        # stub stands in for pillow, which need not be installed
        class UnidentifiedImageError(OSError):
            pass

        class Decoded:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def convert(self, mode):
                raise OSError("image file is truncated")

        def open_image(path):
            if stage == "open":
                raise UnidentifiedImageError(f"cannot identify image file {path}")
            return Decoded()

        image = types.ModuleType("PIL.Image")
        image.open = open_image
        pil = types.ModuleType("PIL")
        pil.Image = image
        monkeypatch.setitem(sys.modules, "PIL", pil)
        monkeypatch.setitem(sys.modules, "PIL.Image", image)
        write_ppm(tmp_path / "000001.ppm", np.zeros((2, 2, 3), np.uint8))
        (tmp_path / "000002.png").write_bytes(b"\x89PNG\r\n\x1a\nnot an image")
        write_ppm(tmp_path / "000003.ppm", np.zeros((2, 2, 3), np.uint8))
        with pytest.raises(DataError, match="000002.png: cannot decode PNG"):
            list(frame_dir_source(tmp_path))
        with caplog.at_level("WARNING"):
            frames = list(frame_dir_source(tmp_path, skip_bad=True))
        assert [f.index for f in frames] == [1, 3]
        assert "skipping" in caplog.text

    def test_mixed_ppm_png_sequence(self, rng, tmp_path):
        pil = pytest.importorskip("PIL.Image")
        a = rng.integers(0, 256, (4, 4, 3)).astype(np.uint8)
        b = rng.integers(0, 256, (4, 4, 3)).astype(np.uint8)
        write_ppm(tmp_path / "000001.ppm", a)
        pil.fromarray(b).save(tmp_path / "000002.png")
        frames = list(frame_dir_source(tmp_path))
        assert [f.index for f in frames] == [1, 2]
