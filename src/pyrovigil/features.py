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

from .codebook import _ONE_THREAD_MADDS
# `integral` is not called here, but perfbench/tracing.py wraps it by
# this module's name
from .imaging import (  # noqa: F401
    LAB_DOMAINS, ColorSpace, Frame, convert, integral, integral_window,
)

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
    # one gather per window of every table cell its boxes read; a window
    # that starts above or left of the table would wrap, so it raises
    top, left = cys - scale // 2 - hmar, cxs - scale // 2 - hmar
    if min(top.min(), left.min()) < 0:
        raise IndexError("a SURF window starts outside the integral table")
    grid = np.arange(scale + 2 * hmar + 1)
    patch = table[(top[:, None] + grid)[:, :, None], (left[:, None] + grid)[:, None, :]]

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

    # each window's weighted dx, dy, |dx| and |dy|
    comps = np.empty((n, 4, scale, scale))
    dx = box(-hmar, hmar, 1, hmar) - box(-hmar, hmar, -hmar, -1)
    dy = box(1, hmar, -hmar, hmar) - box(-hmar, -1, -hmar, hmar)
    np.multiply(dx, weights, out=comps[:, 0])
    np.multiply(dy, weights, out=comps[:, 1])
    np.abs(comps[:, :2], out=comps[:, 2:])
    comps = comps.reshape(4 * n, -1)

    # Each product sums rows over their subregions. It takes at least the 4
    # rows of a window, as a one-row product would take BLAS's vector path,
    # and at most _ONE_THREAD_MADDS multiply-adds, well below the size where
    # OpenBLAS leaves its small-matrix kernel (about 10^6): both other paths
    # round otherwise, so a window's row has the same bits in any batch.
    onehot = _subregion_onehot(tuple(sub.tolist()))
    rows = 4 * max(1, _ONE_THREAD_MADDS // (4 * onehot.size))
    sums = np.empty((4 * n, 16))
    for s in range(0, 4 * n, rows):
        np.matmul(comps[s : s + rows], onehot, out=sums[s : s + rows])
    # column 4 j + c holds component c of subregion j
    out = sums.reshape(n, 4, 16).transpose(0, 2, 1).reshape(n, 64)
    norms = np.sqrt((out * out).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    return out / safe[:, None]


def _lab_bin_params(bins):
    """(lo, inv): the per-channel offset and scale that map a LAB value to
    its bin among `bins` equal bins of the channel's domain."""
    lo = np.array([d[0] for d in LAB_DOMAINS])
    inv = np.array([bins / (d[1] - d[0]) for d in LAB_DOMAINS])
    return lo, inv


def _lab_histograms(values, rows, n, lo, inv_width, bins):
    """(n, 3 * bins) histograms of channel-first LAB values (3, ...): each
    value goes to the row that `rows`, broadcast against values[0], gives
    it; values past a domain end go to its end bin, and each channel block
    is L1-normalized."""
    per_channel = (3,) + (1,) * (values.ndim - 1)
    scaled = values - lo.reshape(per_channel)
    scaled *= inv_width.reshape(per_channel)
    keys = scaled.astype(np.int64)
    np.clip(keys, 0, bins - 1, out=keys)
    # one bincount over (row, channel, bin)
    keys += np.arange(0, 3 * bins, bins).reshape(per_channel)
    keys += rows * (3 * bins)
    counts = np.bincount(keys.ravel(), minlength=n * 3 * bins)
    counts = counts.reshape(n, 3, bins).astype(np.float64)
    totals = counts.sum(axis=2, keepdims=True)
    return (counts / np.maximum(totals, 1.0)).reshape(n, 3 * bins)


def _local_hist_batch(lab, cxs, cys, scale, lo, inv_width):
    """(n, 24) LAB histograms, 8 bins per channel, of the kernel scopes
    centered at (cxs, cys), each of which lies inside `lab`; each channel
    block is L1-normalized."""
    n = cxs.shape[0]
    grid = np.arange(scale)
    ys = (cys - scale // 2)[:, None] + grid
    xs = (cxs - scale // 2)[:, None] + grid
    # (3, n, scale, scale): channel first, so the binning runs over long rows
    values = np.moveaxis(lab, 2, 0)[:, ys[:, :, None], xs[:, None, :]]
    rows = np.arange(n).reshape(n, 1, 1)
    return _lab_histograms(values, rows, n, lo, inv_width, LOCAL_BINS_PER_CHANNEL)


def histogram_from_pixels(lab: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """(n, 96) global histograms of the (..., 3) LAB pixels by their integer
    `labels` (...): row i bins the pixels labelled i + 1, into three
    concatenated 32-bin per-channel histograms, each L1-normalized; pixels
    labelled 0 are left out. A boolean mask labels its true pixels 1.
    Labels of another shape, and a row without pixels, raise ValueError."""
    labels = np.asarray(labels)
    if labels.shape != lab.shape[:-1]:
        raise ValueError(
            f"labels shape {labels.shape} does not match pixels {lab.shape[:-1]}"
        )
    keep = labels > 0
    owners = labels[keep].astype(np.int64) - 1
    if np.bincount(owners, minlength=n).min(initial=1) == 0:
        raise ValueError("empty mask region: no pixels to histogram")
    lo, inv = _lab_bin_params(GLOBAL_BINS_PER_CHANNEL)
    values = np.moveaxis(lab[keep], -1, 0)
    return _lab_histograms(values, owners, n, lo, inv, GLOBAL_BINS_PER_CHANNEL)


class SampleContext:
    """One frame's regions, prepared for `sample` and
    `histogram_from_pixels`: an RGB frame, its luma `gray`
    (`imaging.luma(frame.pixels)`), the sampling plan, and `regions`, a
    list of (mask, anchor) pairs as `sample_positions` takes them: a
    frame's blobs, or one all-true patch at (0, 0) in training.

    `placements` holds each region's kernel centers and `counts` its
    descriptor count. Each region with descriptors has a LAB window: its
    box grown on each side by the largest kernel's extent and clipped to
    the frame, which holds every scope its local histograms read. The
    windows' pixels are packed one after another in rows as wide as the
    frame and converted in one call; a pixel's LAB has the same bits in
    any such layout. `lab` is that (N, 3) array, `windows` holds each
    such region's (placements, x0, y0, LAB window) and `labels` the (N,)
    label of each LAB pixel for `histogram_from_pixels`: 1 + the rank
    among the regions with descriptors of the region whose mask marks it,
    0 for none.
    """

    def __init__(self, frame: Frame, gray: np.ndarray, plan: SamplingPlan, regions):
        if frame.space is not ColorSpace.RGB:
            raise ValueError(f"sampling expects an RGB frame, got {frame.space.value}")
        self.frame, self.gray, self.regions = frame, gray, regions
        self.placements = [sample_positions(frame, plan, m, a) for m, a in regions]
        self.counts = np.array(
            [sum(cxs.shape[0] for _, cxs, _ in p) for p in self.placements], dtype=np.int64
        )
        kept = [(r, p) for r, p, n in zip(regions, self.placements, self.counts) if n]
        largest = max(plan.scales)
        before, after = largest // 2, largest - 1 - largest // 2
        boxes = [
            (max(0, rx - before), max(0, ry - before),
             min(frame.width, rx + mask.shape[1] + after),
             min(frame.height, ry + mask.shape[0] + after))
            for (mask, (rx, ry)), _ in kept
        ]
        pixels = [frame.pixels[y0:y1, x0:x1].reshape(-1, 3) for x0, y0, x1, y1 in boxes]
        total = sum(p.shape[0] for p in pixels)
        self.lab = np.zeros((0, 3))
        if total:
            packed = np.zeros((-(-total // frame.width) * frame.width, 3), np.uint8)
            np.concatenate(pixels, out=packed[:total])
            rgb = Frame(packed.reshape(-1, frame.width, 3), ColorSpace.RGB, frame.index)
            self.lab = convert(rgb).reshape(-1, 3)[:total]
        self.labels = np.zeros(total, np.int64)
        self.windows = []
        start = 0
        for i, (((mask, (rx, ry)), placements), box) in enumerate(zip(kept, boxes)):
            x0, y0, x1, y1 = box
            shape, end = (y1 - y0, x1 - x0), start + (y1 - y0) * (x1 - x0)
            self.windows.append((placements, x0, y0, self.lab[start:end].reshape(*shape, 3)))
            labels = self.labels[start:end].reshape(shape)[ry - y0 :, rx - x0 :]
            labels[: mask.shape[0], : mask.shape[1]][mask] = i + 1
            start = end


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


def sample(ctx: SampleContext) -> np.ndarray:
    """(n, 88) local descriptors of the context's regions: the rows of
    each region, `ctx.counts` of them, follow those of the region before
    it, one row per kernel center of `sample_positions` in its order. The
    SURF vector fills columns 0:64 and the local color histogram 64:88.

    A region whose grid holds no fitting kernel yields no rows, as does a
    frame too small for any kernel. Each (region, scale) reads its SURF
    box sums from its own window of the integral table: the cells that
    its kernels read, computed with the full table's bits.
    """
    out = np.empty((int(ctx.counts.sum()), DESCRIPTOR_DIM))
    lo, inv = _lab_bin_params(LOCAL_BINS_PER_CHANNEL)
    row = 0
    for placements, x0, y0, lab in ctx.windows:
        for scale, cxs, cys in placements:
            n = cxs.shape[0]
            if n == 0:
                continue
            # every table cell the kernels read: a kernel reads the square
            # of side `cells` from its cell (cy - scale//2 - hmar, cx - ...)
            hmar = haar_margin(scale)
            cells = scale + 2 * hmar + 1
            top, left = cys.min() - scale // 2 - hmar, cxs.min() - scale // 2 - hmar
            bottom = cys.max() - scale // 2 - hmar + cells
            right = cxs.max() - scale // 2 - hmar + cells
            table = integral_window(ctx.gray, top, bottom, left, right)
            out[row : row + n, :SURF_DIM] = _surf_batch(
                table, cxs - left, cys - top, scale, hmar,
                _subregion_lut(scale), _gauss_weights(scale),
            )
            out[row : row + n, SURF_DIM:] = _local_hist_batch(
                lab, cxs - x0, cys - y0, scale, lo, inv
            )
            row += n
    return out
