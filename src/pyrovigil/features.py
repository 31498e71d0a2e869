"""Descriptor extraction: global color histograms, SURF texture vectors,
and the combined 88-dim local descriptor sampled on a dense grid.

SURF geometry used throughout (fixed convention, shared by tests):

* ``scale`` is the side of the square kernel window in pixels; the window
  for center (cx, cy) starts at (cx - scale//2, cy - scale//2).
* Haar responses are computed at every window pixel from an odd box of
  half-width h = max(1, round(scale/9)): dx = sum of the h columns right
  of the sample minus the h columns left, over 2h+1 rows (dy transposed).
* Samples fall into a 4x4 subregion grid by integer split of the window;
  each subregion accumulates Gaussian-weighted (dx, dy, |dx|, |dy|),
  sigma = 0.165 * scale from the window center.
* The 64-vector is L2-normalized; an all-flat window stays a zero vector.

A kernel placement is valid only when the window plus its Haar margin h
lies fully inside the frame.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .imaging import LAB_DOMAINS, ColorSpace, Frame, convert, integral

SURF_DIM = 64
COLOR_DIM = 24
DESCRIPTOR_DIM = SURF_DIM + COLOR_DIM

GLOBAL_BINS_PER_CHANNEL = 32
LOCAL_BINS_PER_CHANNEL = 8

_WEIGHT_SIGMA_RATIO = 0.165


@dataclass(frozen=True)
class SamplingPlan:
    interval: int = 9
    scales: tuple = (9,)

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if not self.scales:
            raise ValueError("scales must be non-empty")
        if any(s < 3 for s in self.scales):
            raise ValueError(f"kernel scales must be >= 3, got {self.scales}")

    def fits(self, width: int, height: int) -> bool:
        """Whether the kernel of some scale fits a width x height frame."""
        return any(_center_span(s, min(width, height)) for s in self.scales)


def haar_margin(scale: int) -> int:
    return max(1, int(scale / 9.0 + 0.5))


def _center_span(scale: int, size: int) -> range:
    """The centers along a frame axis of `size` pixels whose kernel, window
    plus Haar margin, fits: empty when none does."""
    h = haar_margin(scale)
    return range(h + scale // 2, size - h - (scale - 1 - scale // 2))


# The per-scale constants below are built once per scale and shared, so
# each is read-only.


def _read_only(array):
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _subregion_lut(scale: int) -> np.ndarray:
    return _read_only(np.minimum(3, (4 * np.arange(scale)) // scale).astype(np.int64))


@lru_cache(maxsize=None)
def _gauss_weights(scale: int) -> np.ndarray:
    c = (scale - 1) / 2.0
    sigma = _WEIGHT_SIGMA_RATIO * scale
    d = np.arange(scale) - c
    g = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return _read_only(np.outer(g, g))


@lru_cache(maxsize=None)
def _subregion_onehot(sub: tuple) -> np.ndarray:
    """(scale², 16) matrix whose row for window pixel (r, c) marks its
    subregion 4 * sub[r] + sub[c]."""
    sub = np.array(sub)
    scale = sub.size
    sub_id = (sub[:, None] * 4 + sub[None, :]).ravel()  # (scale*scale,)
    onehot = np.zeros((scale * scale, 16), dtype=np.float64)
    onehot[np.arange(scale * scale), sub_id] = 1.0
    return _read_only(onehot)


def _surf_batch(table, cxs, cys, scale, hmar, sub, weights):
    n = cxs.shape[0]
    if n == 1:  # a one-row product rounds otherwise; two rows keep a batch's bits
        cxs, cys = np.repeat(cxs, 2), np.repeat(cys, 2)
        return _surf_batch(table, cxs, cys, scale, hmar, sub, weights)[:1]
    # one gather per window of every table cell its boxes read
    grid = np.arange(scale + 2 * hmar + 1)
    ys = (cys - scale // 2 - hmar)[:, None] + grid
    xs = (cxs - scale // 2 - hmar)[:, None] + grid
    patch = table[ys[:, :, None], xs[:, None, :]]

    def corner(dr, dc):  # table[py + dr, px + dc] at each window pixel (py, px)
        return patch[:, hmar + dr : hmar + dr + scale, hmar + dc : hmar + dc + scale]

    def box(r0, r1, c0, c1):
        # inclusive row/col offsets relative to the sample point
        return (
            corner(r1 + 1, c1 + 1)
            - corner(r0, c1 + 1)
            - corner(r1 + 1, c0)
            + corner(r0, c0)
        )

    dx = box(-hmar, hmar, 1, hmar) - box(-hmar, hmar, -hmar, -1)
    dy = box(1, hmar, -hmar, hmar) - box(-hmar, -1, -hmar, hmar)
    dx = dx * weights
    dy = dy * weights

    onehot = _subregion_onehot(tuple(sub.tolist()))
    comps = (
        dx.reshape(n, -1) @ onehot,
        dy.reshape(n, -1) @ onehot,
        np.abs(dx).reshape(n, -1) @ onehot,
        np.abs(dy).reshape(n, -1) @ onehot,
    )
    out = np.empty((n, 64), dtype=np.float64)
    for c, comp in enumerate(comps):
        out[:, c::4] = comp
    norms = np.sqrt((out * out).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    return out / safe[:, None]


def _lab_bin_params(bins):
    """(lo, inv): the per-channel offset and scale that map a LAB value to
    its bin among `bins` equal bins of the channel's domain."""
    lo = np.array([d[0] for d in LAB_DOMAINS])
    inv = np.array([bins / (d[1] - d[0]) for d in LAB_DOMAINS])
    return lo, inv


def _lab_histograms(values, lo, inv_width, bins):
    """(n, 3 * bins) histograms of channel-first LAB values (3, n, ...):
    row j bins values[:, j], values past a domain end in its end bin, and
    each channel block is L1-normalized."""
    n = values.shape[1]
    per_channel = (3,) + (1,) * (values.ndim - 1)
    per_row = (1, n) + (1,) * (values.ndim - 2)
    keys = (values - lo.reshape(per_channel)) * inv_width.reshape(per_channel)
    keys = np.clip(keys.astype(np.int64), 0, bins - 1)
    # one bincount over (row, channel, bin)
    keys += np.arange(0, 3 * bins, bins).reshape(per_channel)
    keys += np.arange(0, n * 3 * bins, 3 * bins).reshape(per_row)
    counts = np.bincount(keys.ravel(), minlength=n * 3 * bins)
    counts = counts.reshape(n, 3, bins).astype(np.float64)
    totals = counts.sum(axis=2, keepdims=True)
    return (counts / np.maximum(totals, 1.0)).reshape(n, 3 * bins)


def _local_hist_batch(lab, cxs, cys, scale, lo, inv_width):
    """(n, 24) LAB histograms, 8 bins per channel, of the kernel scopes
    centered at (cxs, cys), each of which lies inside `lab`; each channel
    block is L1-normalized."""
    grid = np.arange(scale)
    ys = (cys - scale // 2)[:, None] + grid
    xs = (cxs - scale // 2)[:, None] + grid
    # (3, n, scale, scale): channel first, so the binning runs over long rows
    values = np.moveaxis(lab, 2, 0)[:, ys[:, :, None], xs[:, None, :]]
    return _lab_histograms(values, lo, inv_width, LOCAL_BINS_PER_CHANNEL)


def histogram_from_pixels(
    lab: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """(96,) histogram of the (h, w, 3) LAB pixels that the (h, w) boolean
    `mask` marks: three concatenated 32-bin per-channel histograms, each
    L1-normalized. A mask of another shape or with no true pixel raises
    ValueError."""
    m = np.asarray(mask, dtype=bool)
    if m.shape != lab.shape[:2]:
        raise ValueError(
            f"mask shape {m.shape} does not match pixels {lab.shape[:2]}"
        )
    values = np.moveaxis(lab, 2, 0)[:, m]
    if values.shape[1] == 0:
        raise ValueError("empty mask region: no pixels to histogram")
    lo, inv = _lab_bin_params(GLOBAL_BINS_PER_CHANNEL)
    return _lab_histograms(
        values.reshape(3, 1, -1), lo, inv, GLOBAL_BINS_PER_CHANNEL
    )[0]


class SampleContext:
    """Per-frame precomputation shared by all descriptor extractions, from
    an RGB frame and its luma `gray` (`imaging.luma(frame.pixels)`).

    The gray integral image covers the frame's columns [0, x1) and rows
    [0, y1) of `reach` (x1, y1): `sample_reach` of a frame's blobs, or
    the whole patch in training. Its sums run from the origin, so each
    cell has the bits of the whole frame's table, and a read past the
    reach raises IndexError. LAB is converted per window (`lab`), because
    a region's descriptors and histogram read only the pixels around it.
    """

    def __init__(self, frame: Frame, gray: np.ndarray, reach):
        if frame.space is not ColorSpace.RGB:
            raise ValueError(f"sampling expects an RGB frame, got {frame.space.value}")
        self.frame = frame
        x1, y1 = reach
        self.gray_ii = integral(Frame(gray[:y1, :x1], ColorSpace.GRAY, frame.index))
        self._window = (0, 0, 0, 0)
        self._lab = np.zeros((0, 0, 3))

    def lab(self, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        """LAB pixels of the frame rectangle [x0, x1) x [y0, y1).

        A rectangle inside the last window converted is sliced from it,
        so a blob's global histogram reuses the window its descriptors
        converted; any other rectangle is converted as a new window.
        """
        wx0, wy0, wx1, wy1 = self._window
        if not (wx0 <= x0 and wy0 <= y0 and x1 <= wx1 and y1 <= wy1):
            # only the window's pixels are converted, which gives the
            # bits of the full-frame conversion's slice
            pixels = self.frame.pixels[y0:y1, x0:x1]
            self._lab = convert(Frame(pixels, ColorSpace.RGB, self.frame.index))
            self._window = (x0, y0, x1, y1)
            wx0, wy0 = x0, y0
        return self._lab[y0 - wy0 : y1 - wy0, x0 - wx0 : x1 - wx0]


def sample_reach(frame: Frame, plan: SamplingPlan, blobs):
    """(x1, y1): the `SampleContext` reach that holds every table cell the
    SURF kernels of `plan` read in the bboxes of `blobs`."""
    margin = max(s - 1 - s // 2 + haar_margin(s) for s in plan.scales)
    return (
        min(frame.width, max(b.x + b.w for b in blobs) + margin),
        min(frame.height, max(b.y + b.h for b in blobs) + margin),
    )


def _grid_slice(start: int, span: range, interval: int) -> slice:
    """The slice of a region's pixels along an axis, from `start`, that
    holds its grid points at `interval` inside `span`."""
    lo = max(0, span.start - start)
    first = lo + (-lo) % interval
    return slice(first, max(first, span.stop - start), interval)


def sample_positions(
    frame: Frame,
    plan: SamplingPlan,
    mask: np.ndarray,
    anchor,
):
    """Kernel centers per scale of the plan, as a list of (scale, cxs, cys).

    `mask` is the boolean image of a region whose top-left pixel is
    `anchor`: a blob's local mask at its bbox origin, or an all-true
    patch at (0, 0). Walks the grid at `plan.interval` from the anchor
    inside the region, keeping its true pixels whose kernel (window + Haar
    margin) fits the frame, in row-major order; a scale with none gets
    empty arrays.
    """
    rx, ry = anchor
    placements = []
    for scale in plan.scales:
        rows = _grid_slice(ry, _center_span(scale, frame.height), plan.interval)
        cols = _grid_slice(rx, _center_span(scale, frame.width), plan.interval)
        iy, ix = np.nonzero(mask[rows, cols])  # row-major, int64
        cxs, cys = rx + cols.start + ix * cols.step, ry + rows.start + iy * rows.step
        placements.append((scale, cxs, cys))
    return placements


def sample(
    frame: Frame,
    plan: SamplingPlan,
    mask: np.ndarray,
    anchor,
    ctx: SampleContext,
) -> np.ndarray:
    """(n, 88) local descriptors, one row per kernel center of
    `sample_positions(frame, plan, mask, anchor)` in its order: the SURF
    vector in columns 0:64, the local color histogram in 64:88.

    A region whose grid holds no fitting kernel yields no rows, as does a
    frame too small for any kernel. LAB is converted only over the region
    grown on each side by the largest kernel's extent and clipped to the
    frame: the window every local color histogram reads from.
    """
    placements = sample_positions(frame, plan, mask, anchor)
    (rx, ry), (rh, rw) = anchor, mask.shape
    largest = max(plan.scales)
    x0 = max(0, rx - largest // 2)
    y0 = max(0, ry - largest // 2)
    x1 = min(frame.width, rx + rw + largest - 1 - largest // 2)
    y1 = min(frame.height, ry + rh + largest - 1 - largest // 2)

    table = ctx.gray_ii.table[0]
    lo, inv = _lab_bin_params(LOCAL_BINS_PER_CHANNEL)
    out = np.empty((sum(cxs.shape[0] for _, cxs, _ in placements), DESCRIPTOR_DIM))
    row = 0
    for scale, cxs, cys in placements:
        n = cxs.shape[0]
        if n == 0:
            continue
        out[row : row + n, :SURF_DIM] = _surf_batch(
            table, cxs, cys, scale, haar_margin(scale),
            _subregion_lut(scale), _gauss_weights(scale),
        )
        lab = ctx.lab(x0, y0, x1, y1)
        out[row : row + n, SURF_DIM:] = _local_hist_batch(
            lab, cxs - x0, cys - y0, scale, lo, inv
        )
        row += n
    return out
