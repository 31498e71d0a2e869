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


# A pixel's local key is its global key shifted right. fl(32 / d) is
# 4 fl(8 / d) exactly, so a value's 32-bin position is 4 times its 8-bin
# one, floor(floor(4 s) / 4) = floor(s) for s >= 0, and the clipped ends
# agree; a channel's column offset, a multiple of 32, shifts to its 8-bin
# offset.
LOCAL_KEY_SHIFT = 2
assert GLOBAL_BINS_PER_CHANNEL == LOCAL_BINS_PER_CHANNEL << LOCAL_KEY_SHIFT


@lru_cache(maxsize=None)
def _lab_bin_params(bins):
    """(lo, inv): the per-channel offset and scale that map a LAB value to
    its bin among `bins` equal bins of the channel's domain."""
    lo = np.array([d[0] for d in LAB_DOMAINS])
    inv = np.array([bins / (d[1] - d[0]) for d in LAB_DOMAINS])
    return _read_only(lo), _read_only(inv)


def _bin_keys(values, lo, inv_width, bins):
    """(3, ...) uint8 keys of (..., 3) LAB values: a value's bin among
    `bins` equal bins of its channel's domain plus `bins` times its
    channel, its column in three concatenated per-channel histograms;
    values past a domain end go to its end bin."""
    keys = np.empty((3,) + values.shape[:-1], np.uint8)
    for c in range(3):
        scaled = values[..., c] - lo[c]
        scaled *= inv_width[c]
        # clipped before the truncating cast: the bins of clipping after it
        keys[c] = np.clip(scaled, 0, bins - 1, out=scaled)
        keys[c] += c * bins
    return keys


def lab_bin_keys(lab: np.ndarray) -> np.ndarray:
    """(3, ...) uint8 keys of (..., 3) LAB pixels, channel first: channel
    c's key is 32 c + its bin among GLOBAL_BINS_PER_CHANNEL equal bins of
    its `LAB_DOMAINS` range, values past an end in its end bin. A key
    shifted right by LOCAL_KEY_SHIFT is 8 c + its bin among
    LOCAL_BINS_PER_CHANNEL."""
    lo, inv = _lab_bin_params(GLOBAL_BINS_PER_CHANNEL)
    return _bin_keys(lab, lo, inv, GLOBAL_BINS_PER_CHANNEL)


def _normalized(counts, n, width):
    """(n, width) float64 histograms of the (n * width,) pixel counts of n
    rows, each channel's block of width // 3 columns L1-normalized. A row
    without pixels raises ValueError."""
    counts = counts.reshape(n, 3, width // 3).astype(np.float64)
    # a pixel counts once in each channel
    totals = counts[:, :1].sum(axis=2, keepdims=True)
    if not totals.all():
        raise ValueError("empty mask region: no pixels to histogram")
    return (counts / totals).reshape(n, width)


def _scope_histograms(keys, corners, widths, scale):
    """(n, 24) local histograms of kernel scopes from the (3, N) global
    keys of pixels laid out in rows: scope i is the scale x scale square
    whose top-left pixel is keys[:, corners[i]], in rows `widths` pixels
    apart (one width per scope, or one for all)."""
    n = corners.shape[0]
    grid = np.arange(scale)
    idx = corners.reshape(n, 1, 1) + grid[:, None] * np.reshape(widths, (-1, 1, 1)) + grid
    local = keys[:, idx]
    local >>= LOCAL_KEY_SHIFT
    # one bincount over (scope, column)
    flat = np.arange(0, n * COLOR_DIM, COLOR_DIM).reshape(n, 1, 1) + local
    return _normalized(np.bincount(flat.ravel(), minlength=n * COLOR_DIM), n, COLOR_DIM)


def _local_hist_batch(lab, cxs, cys, scale, lo, inv_width):
    """(n, 24) LAB histograms, 8 bins per channel, of the kernel scopes
    centered at (cxs, cys), each of which lies inside the (h, w, 3) `lab`;
    `lo` and `inv_width` map a value to its 8-bin bin. Binned as `sample`
    bins: at 4 * inv_width into 32-bin keys, which the scopes shift."""
    width = lab.shape[1]
    keys = _bin_keys(lab, lo, 4 * inv_width, GLOBAL_BINS_PER_CHANNEL).reshape(3, -1)
    corners = (cys - scale // 2) * width + cxs - scale // 2
    return _scope_histograms(keys, corners, width, scale)


def histogram_from_pixels(keys: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """(n, 96) global histograms of the (3, ...) keys of LAB pixels
    (`lab_bin_keys`) by their non-negative integer `labels` (...): row i
    counts the pixels labelled i + 1, in three concatenated 32-bin
    per-channel histograms, each L1-normalized; pixels labelled 0 are left
    out. A boolean mask labels its true pixels 1. Labels of another shape
    or past n, and a row without pixels, raise ValueError."""
    labels = np.asarray(labels)
    if labels.shape != keys.shape[1:]:
        raise ValueError(
            f"labels shape {labels.shape} does not match pixels {keys.shape[1:]}"
        )
    # one bincount over (label, column); label 0 fills a row dropped here
    width = 3 * GLOBAL_BINS_PER_CHANNEL
    flat = labels.astype(np.int64) * width + keys
    counts = np.bincount(flat.ravel(), minlength=(n + 1) * width)[width:]
    return _normalized(counts, n, width)


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
    frame, converted in one call and binned once; a pixel's LAB has the
    same bits in any such layout. `keys` is the (3, N) `lab_bin_keys` of
    those pixels, `windows` holds each such region's (placements, x0, y0,
    width, start): its window's left column, top row and width in the
    frame, and the index in `keys` of its first pixel, and `labels` the
    (N,) label of each pixel for `histogram_from_pixels`: 1 + the rank
    among the regions with descriptors of the region whose mask marks it,
    0 for none.
    """

    def __init__(self, frame: Frame, gray: np.ndarray, plan: SamplingPlan, regions):
        if frame.space is not ColorSpace.RGB:
            raise ValueError(f"sampling expects an RGB frame, got {frame.space.value}")
        self.frame, self.gray, self.plan, self.regions = frame, gray, plan, regions
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
        self.keys = np.zeros((3, 0), np.uint8)
        if total:
            packed = np.zeros((-(-total // frame.width) * frame.width, 3), np.uint8)
            np.concatenate(pixels, out=packed[:total])
            rgb = Frame(packed.reshape(-1, frame.width, 3), ColorSpace.RGB, frame.index)
            self.keys = lab_bin_keys(convert(rgb)).reshape(3, -1)[:, :total]
        self.labels = np.zeros(total, np.int64)
        self.windows = []
        start = 0
        for i, (((mask, (rx, ry)), placements), box) in enumerate(zip(kept, boxes)):
            x0, y0, x1, y1 = box
            shape, end = (y1 - y0, x1 - x0), start + (y1 - y0) * (x1 - x0)
            self.windows.append((placements, x0, y0, x1 - x0, start))
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
    frame too small for any kernel. Each scale takes one SURF batch and
    one scope count for all regions. A region reads its SURF box sums
    from its own window of the integral table: the cells that its kernels
    read, computed with the full table's bits. The windows are stacked
    into one zero-padded table, each below the one before it, and no
    kernel reads past its own. The scopes count the context's keys
    shifted to their 8-bin keys.
    """
    out = np.empty((int(ctx.counts.sum()), DESCRIPTOR_DIM))
    scales = ctx.plan.scales
    # the first row of each (region, scale): rows go region, scale, center
    sizes = [cxs.shape[0] for placements, *_ in ctx.windows for _, cxs, _ in placements]
    firsts = np.cumsum([0] + sizes)[:-1].reshape(len(ctx.windows), len(scales))
    for j, scale in enumerate(scales):
        hmar, half = haar_margin(scale), scale // 2
        cells = scale + 2 * hmar + 1
        parts, tables, depth = [], [], 0
        for (placements, x0, y0, width, start), first in zip(ctx.windows, firsts[:, j]):
            _, cxs, cys = placements[j]
            n = cxs.shape[0]
            if n == 0:
                continue
            # every table cell the kernels read: a kernel reads the square
            # of side `cells` from its cell (cy - scale//2 - hmar, cx - ...)
            top, left = cys.min() - half - hmar, cxs.min() - half - hmar
            bottom, right = cys.max() - half - hmar + cells, cxs.max() - half - hmar + cells
            tables.append(integral_window(ctx.gray, top, bottom, left, right))
            parts.append((
                cxs - left, cys - top + depth,
                start + (cys - half - y0) * width + cxs - half - x0, np.full(n, width),
                np.arange(first, first + n),
            ))
            depth += bottom - top
        if not parts:
            continue
        cxs, cys, corners, widths, rows = map(np.concatenate, zip(*parts))
        table = np.zeros((depth, max(t.shape[1] for t in tables)))
        depth = 0
        for t in tables:
            table[depth : depth + t.shape[0], : t.shape[1]] = t
            depth += t.shape[0]
        out[rows, :SURF_DIM] = _surf_batch(
            table, cxs, cys, scale, hmar, _subregion_lut(scale), _gauss_weights(scale)
        )
        out[rows, SURF_DIM:] = _scope_histograms(ctx.keys, corners, widths, scale)
    return out
