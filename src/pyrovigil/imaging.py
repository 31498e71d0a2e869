"""Frame representation, color-space conversion, and integral images.

Frames are read-only pixel grids tagged with a color space. RGB pixels
are 8-bit sRGB, held as uint8: an RGB array of any other dtype raises a
ValueError. GRAY pixels are float64. Both conversions are defined from
RGB, and give float64 arrays:

* GRAY: BT.601 luma (`luma`), weights 0.299/0.587/0.114.
* LAB:  `convert`, sRGB linearization -> XYZ (D65, 2 deg) -> CIELAB;
        L in [0, 100], a and b stored against a declared domain of
        [-128, 127].
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ColorSpace(Enum):
    RGB = "rgb"
    GRAY = "gray"


# (lo, hi) domain of each LAB channel, used for histogram binning.
LAB_DOMAINS = ((0.0, 100.0), (-128.0, 127.0), (-128.0, 127.0))

LUMA_WEIGHTS = (0.299, 0.587, 0.114)

# sRGB -> XYZ, D65 white point, 2 degree observer.
_SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_D65 = (0.95047, 1.0, 1.08883)


@dataclass(frozen=True)
class Frame:
    """One decoded image: (h, w, 3) pixels, or (h, w) for GRAY. RGB pixels
    must be uint8, and any other dtype raises a ValueError; GRAY pixels are
    taken as float64. `pixels` is a read-only view: a contiguous array of
    the space's dtype passed in is shared, not copied, and its owner can
    still write it."""

    pixels: np.ndarray
    space: ColorSpace = ColorSpace.RGB
    index: int = 0

    def __post_init__(self):
        if self.space is ColorSpace.RGB:
            px = np.ascontiguousarray(self.pixels)
            if px.dtype != np.uint8:
                raise ValueError(f"RGB frame must be uint8, got {px.dtype}")
            if px.ndim != 3 or px.shape[2] != 3:
                raise ValueError(f"RGB frame must be (h, w, 3), got shape {px.shape}")
        else:
            px = np.ascontiguousarray(self.pixels, dtype=np.float64)
            if px.ndim != 2:
                raise ValueError(f"GRAY frame must be 2-d, got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("frame must contain at least one pixel")
        px = px.view()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def luma(pixels: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """BT.601 luma of an (h, w, 3) RGB array, (R*0.299 + G*0.587) + B*0.114
    in float64. `out` takes the result and `scratch` the products: (h, w)
    float64 planes, allocated when not given."""
    r, g, b = LUMA_WEIGHTS
    if out is None:
        out = np.empty(pixels.shape[:2])
    if scratch is None:
        scratch = np.empty_like(out)
    np.multiply(pixels[:, :, 0], r, out=out)
    np.multiply(pixels[:, :, 1], g, out=scratch)
    out += scratch
    np.multiply(pixels[:, :, 2], b, out=scratch)
    out += scratch
    return out


def _srgb_channel_to_linear(c):
    c = c / 255.0
    lo = c / 12.92
    hi = ((c + 0.055) / 1.055) ** 2.4
    return np.where(c <= 0.04045, lo, hi)


# sRGB linearization of every 8-bit value, from the expression above
_SRGB_LINEAR = _srgb_channel_to_linear(np.arange(256, dtype=np.float64))


def _lab_f(t):
    d3 = (6.0 / 29.0) ** 3
    return np.where(t > d3, np.cbrt(t), t / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)


def rgb_to_lab(px):
    """CIELAB of an (h, w, 3) array of 8-bit sRGB values (uint8, or any
    dtype holding integers in [0, 255]), in float64."""
    # the table holds the bits the expression gives for each value
    lin = _SRGB_LINEAR[np.asarray(px).astype(np.uint8, copy=False)]
    # One (w, 3) @ (3, 3) BLAS product per row, small enough to stay on one
    # thread. Each takes the matrix kernel, so a crop converts to the bits
    # of the full-frame slice; a 1-pixel-wide image would take the vector
    # kernel, which rounds differently, so its column is doubled.
    wide = lin if lin.shape[1] > 1 else np.concatenate([lin, lin], axis=1)
    xyz = (wide @ _SRGB_TO_XYZ.T)[:, : lin.shape[1]]
    fx = _lab_f(xyz[:, :, 0] / _D65[0])
    fy = _lab_f(xyz[:, :, 1] / _D65[1])
    fz = _lab_f(xyz[:, :, 2] / _D65[2])
    out = np.empty(lin.shape)
    out[:, :, 0] = 116.0 * fy - 16.0
    out[:, :, 1] = 500.0 * (fx - fy)
    out[:, :, 2] = 200.0 * (fy - fz)
    return out


def convert(frame: Frame) -> np.ndarray:
    """The (h, w, 3) LAB pixels of an RGB frame (`luma` gives its gray)."""
    return rgb_to_lab(frame.pixels)


@dataclass(frozen=True)
class IntegralImage:
    """Cumulative-sum table of a gray frame, one (h+1, w+1) plane.

    table[0, y, x] is the sum of source pixels in [0, x) x [0, y); row 0
    and column 0 are zero. float64 sums are exact for integer-valued
    sources up to 2**53, which covers 8-bit frames at any plausible size.
    """

    table: np.ndarray  # (1, h+1, w+1)


def integral_table(channels):
    """(c, h+1, w+1) cumulative sums of a (c, h, w) array, zero-padded."""
    c, h, w = channels.shape
    out = np.zeros((c, h + 1, w + 1), dtype=np.float64)
    # both sums run in place in the table: frame-sized temporaries on each
    # decision frame made the allocator map fresh pages for them
    sums = out[:, 1:, 1:]
    np.cumsum(channels, axis=1, out=sums)
    np.cumsum(sums, axis=2, out=sums)
    return out


def integral_window(gray, r0, r1, c0, c1):
    """Cells [r0, r1) x [c0, c1) of `integral_table(gray[None])[0]`, with
    its bits, computed from the pixels those cells sum and no others.

    Each sum keeps the table's order: the column sums of the rows above
    the window are reduced one row at a time, as `cumsum` adds them, and
    then run on down the window's rows; the row sums left of the window
    are reduced likewise, over a transposed copy, and run on across it."""
    h, w = gray.shape
    if not (0 <= r0 < r1 <= h + 1 and 0 <= c0 < c1 <= w + 1):
        raise ValueError(
            f"window [{r0}, {r1}) x [{c0}, {c1}) is not inside a {h + 1}x{w + 1} table"
        )
    out = np.zeros((r1 - r0, c1 - c0))
    # row 0 and column 0 of the table are zero
    a, b = max(r0, 1), max(c0, 1)
    if a == r1 or b == c1:
        return out
    cols = gray[a - 1 : r1 - 1, : c1 - 1].copy()
    if a > 1:
        cols[0] += _row_by_row_sum(gray[: a - 1, : c1 - 1])
    np.cumsum(cols, axis=0, out=cols)
    rows = cols[:, b - 1 :]
    if b > 1:
        rows[:, 0] += _row_by_row_sum(np.ascontiguousarray(cols[:, : b - 1].T))
    np.cumsum(rows, axis=1, out=out[a - r0 :, b - c0 :])
    return out


def _row_by_row_sum(x):
    """x.sum(axis=0) of a 2-d array whose rows are contiguous, adding one
    row at a time in order, as `cumsum` does. numpy reduces the outer axis
    of such an array so, but sums a single column pairwise, so one column
    is doubled."""
    n = x.shape[1]
    return np.add.reduce(x if n > 1 else np.repeat(x, 2, axis=1), axis=0)[:n]


def integral(frame: Frame) -> IntegralImage:
    """Integral image of a GRAY frame."""
    if frame.space is not ColorSpace.GRAY:
        raise ValueError(f"integral image needs a gray frame, got {frame.space.value}")
    return IntegralImage(integral_table(frame.pixels[np.newaxis, :, :]))

