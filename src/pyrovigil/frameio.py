"""Frame file I/O.

Frame sequences are directories of sequentially numbered image files
(``%06d.ppm`` / ``%06d.png``), sorted numerically. Binary PPM (P6,
maxval 255) is the native, bit-exact format; PNG works when pillow is
installed.
"""

import logging
import re
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError
from .imaging import ColorSpace, Frame

logger = logging.getLogger(__name__)

_NUM_RE = re.compile(r"(\d+)")
# A comment runs through its newline. Without the newline a comment could
# end at any of its blanks and hand the rest to `\s`, and a header that
# fails to match would take quadratic time.
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM with maxval 255 into a (h, w, 3) uint8 array.

    The header is `P6`, then width, height and maxval as decimal digits,
    each after whitespace or `#` comments (a comment runs to the end of
    its line), then one whitespace byte before the pixels."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read frame {path}: {e}") from None
    if not data.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM (P6)")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise DataError(f"{path}: malformed PPM header")
    width, height, maxval = (int(f) for f in header.groups())
    if maxval != 255:
        raise DataError(f"{path}: PPM maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise DataError(f"{path}: PPM is {width}x{height}, with no pixel")
    need = width * height * 3
    have = len(data) - header.end()
    if have < need:
        raise DataError(f"{path}: PPM payload short ({have} of {need} bytes)")
    # a view of the file's bytes, not a copy of the payload; bytes past it
    # are left unread
    pixels = np.frombuffer(data, np.uint8, count=need, offset=header.end())
    return pixels.reshape(height, width, 3)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write (h, w, 3) uint8 pixels as binary P6; pixels of any other shape
    or dtype raise a ValueError, as an RGB `Frame` does."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) pixels, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"PPM pixels must be uint8, got {arr.dtype}")
    h, w, _ = arr.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(arr.tobytes())


def read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError:
        raise DataError(
            f"{path}: PNG support requires pillow (pip install pyrovigil[png])"
        ) from None
    try:
        with Image.open(path) as im:
            return np.asarray(im.convert("RGB"), dtype=np.uint8)
    except OSError as e:  # pillow's decode errors are OSErrors
        raise DataError(f"{path}: cannot decode PNG: {e}") from None


def read_image(path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".ppm":
        return read_ppm(path)
    if path.suffix.lower() == ".png":
        return read_png(path)
    raise DataError(f"{path}: unsupported image format")


def load_frame(path, index: int) -> Frame:
    """The RGB frame in the image file at `path`, numbered `index`."""
    return Frame(read_image(path), ColorSpace.RGB, index)


def list_frame_files(directory):
    """Image files in a frame directory, sorted by their numeric stem; a
    directory without one is a DataError."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"{directory}: not a directory")
    entries = []
    for p in sorted(directory.iterdir()):
        if p.suffix.lower() not in (".ppm", ".png"):
            continue
        m = _NUM_RE.search(p.stem)
        if not m:
            raise DataError(f"{p}: frame filename carries no sequence number")
        entries.append((int(m.group(1)), p))
    if not entries:
        raise DataError(f"{directory}: no .ppm/.png frames found")
    entries.sort(key=lambda e: e[0])
    for (na, pa), (nb, pb) in zip(entries, entries[1:]):
        if nb == na:
            raise DataError(f"duplicate frame index {na}: {pa} and {pb}")
    return entries


def frame_dir_source(directory, skip_bad: bool = False) -> Iterator[Frame]:
    """Yield frames from a numbered image directory in index order.

    With `skip_bad` a frame that fails to decode is logged and skipped
    instead of aborting the stream; a stream that read no frame at all is
    a DataError at its end.
    """
    read = 0
    for index, path in list_frame_files(directory):
        try:
            frame = load_frame(path, index)
        except DataError:
            if not skip_bad:
                raise
            logger.warning("skipping undecodable frame %s", path)
            continue
        read += 1
        yield frame
    if not read:
        raise DataError(f"{directory}: no frame could be read")
