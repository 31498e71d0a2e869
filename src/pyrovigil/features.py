"""Descriptor extraction: global color histograms, SURF texture vectors,
and the combined 88-dim local descriptor sampled densely or at keypoints.

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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import accel
from .accel import prange
from .imaging import (
    CHANNEL_DOMAINS,
    ColorSpace,
    Frame,
    IntegralImage,
    convert,
    integral,
)

SURF_DIM = 64
COLOR_DIM = 24
DESCRIPTOR_DIM = SURF_DIM + COLOR_DIM

GLOBAL_BINS_PER_CHANNEL = 32
LOCAL_BINS_PER_CHANNEL = 8

_WEIGHT_SIGMA_RATIO = 0.165


class SamplingMode(Enum):
    DENSE = "dense"
    KEYPOINT = "keypoint"


@dataclass(frozen=True)
class SamplingPlan:
    mode: SamplingMode = SamplingMode.DENSE
    interval: int = 9
    scales: tuple = (9,)
    hessian_threshold: float = 100.0

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if not self.scales:
            raise ValueError("scales must be non-empty")
        if any(s < 3 for s in self.scales):
            raise ValueError(f"kernel scales must be >= 3, got {self.scales}")
        if self.hessian_threshold <= 0:
            raise ValueError("hessian_threshold must be positive")

    def fingerprint(self) -> str:
        scales = ",".join(str(s) for s in self.scales)
        return (
            f"mode={self.mode.value};interval={self.interval};"
            f"scales={scales};hessian={self.hessian_threshold:g}"
        )


@dataclass(frozen=True)
class GlobalColorHistogram:
    """96 bins: three concatenated 32-bin per-channel histograms."""

    bins: np.ndarray
    space: ColorSpace
    normalized: bool = True


@dataclass(frozen=True)
class LocalDescriptor:
    center: tuple
    scale: int
    surf: np.ndarray  # (64,)
    color: np.ndarray  # (24,)

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.surf, self.color])


def haar_margin(scale: int) -> int:
    return max(1, int(scale / 9.0 + 0.5))


def window_origin(cx: int, cy: int, scale: int):
    return cx - scale // 2, cy - scale // 2


def kernel_fits(cx: int, cy: int, scale: int, width: int, height: int) -> bool:
    h = haar_margin(scale)
    x0, y0 = window_origin(cx, cy, scale)
    return (
        x0 - h >= 0
        and y0 - h >= 0
        and x0 + scale - 1 + h <= width - 1
        and y0 + scale - 1 + h <= height - 1
    )


def _subregion_lut(scale: int) -> np.ndarray:
    return np.minimum(3, (4 * np.arange(scale)) // scale).astype(np.int64)


def _gauss_weights(scale: int) -> np.ndarray:
    c = (scale - 1) / 2.0
    sigma = _WEIGHT_SIGMA_RATIO * scale
    d = np.arange(scale) - c
    g = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return np.outer(g, g)


@accel.njit(parallel=True)
def _surf_batch_jit(table, cxs, cys, scale, hmar, sub, weights):
    n = cxs.shape[0]
    out = np.zeros((n, 64), dtype=np.float64)
    half = scale // 2
    for j in prange(n):
        x0 = cxs[j] - half
        y0 = cys[j] - half
        acc = np.zeros(64, dtype=np.float64)
        for v in range(scale):
            py = y0 + v
            sv = sub[v]
            for u in range(scale):
                px = x0 + u
                su = sub[u]
                w = weights[v, u]
                right = (
                    table[py + hmar + 1, px + hmar + 1]
                    - table[py - hmar, px + hmar + 1]
                    - table[py + hmar + 1, px + 1]
                    + table[py - hmar, px + 1]
                )
                left = (
                    table[py + hmar + 1, px]
                    - table[py - hmar, px]
                    - table[py + hmar + 1, px - hmar]
                    + table[py - hmar, px - hmar]
                )
                dx = (right - left) * w
                bottom = (
                    table[py + hmar + 1, px + hmar + 1]
                    - table[py + 1, px + hmar + 1]
                    - table[py + hmar + 1, px - hmar]
                    + table[py + 1, px - hmar]
                )
                top = (
                    table[py, px + hmar + 1]
                    - table[py - hmar, px + hmar + 1]
                    - table[py, px - hmar]
                    + table[py - hmar, px - hmar]
                )
                dy = (bottom - top) * w
                base = (sv * 4 + su) * 4
                acc[base] += dx
                acc[base + 1] += dy
                acc[base + 2] += abs(dx)
                acc[base + 3] += abs(dy)
        norm = 0.0
        for d in range(64):
            norm += acc[d] * acc[d]
        if norm > 0.0:
            norm = math.sqrt(norm)
            for d in range(64):
                out[j, d] = acc[d] / norm
    return out


def _surf_batch_np(table, cxs, cys, scale, hmar, sub, weights):
    n = cxs.shape[0]
    if n == 0:
        return np.zeros((0, 64), dtype=np.float64)
    half = scale // 2
    grid = np.arange(scale)
    px = (cxs - half)[:, None, None] + grid[None, None, :]
    py = (cys - half)[:, None, None] + grid[None, :, None]
    px = np.broadcast_to(px, (n, scale, scale))
    py = np.broadcast_to(py, (n, scale, scale))

    def box(r0, r1, c0, c1):
        # inclusive row/col offsets relative to the sample point
        return (
            table[py + r1 + 1, px + c1 + 1]
            - table[py + r0, px + c1 + 1]
            - table[py + r1 + 1, px + c0]
            + table[py + r0, px + c0]
        )

    dx = box(-hmar, hmar, 1, hmar) - box(-hmar, hmar, -hmar, -1)
    dy = box(1, hmar, -hmar, hmar) - box(-hmar, -1, -hmar, hmar)
    dx = dx * weights
    dy = dy * weights

    sub_id = (sub[:, None] * 4 + sub[None, :]).ravel()  # (scale*scale,)
    onehot = np.zeros((scale * scale, 16), dtype=np.float64)
    onehot[np.arange(scale * scale), sub_id] = 1.0

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


_surf_batch = accel.pick(_surf_batch_jit, _surf_batch_np)


@accel.njit(parallel=True)
def _local_hist_batch_jit(lab, cxs, cys, scale, lo, inv_width):
    n = cxs.shape[0]
    height, width = lab.shape[0], lab.shape[1]
    out = np.zeros((n, 24), dtype=np.float64)
    half = scale // 2
    for j in prange(n):
        x0 = max(0, cxs[j] - half)
        y0 = max(0, cys[j] - half)
        x1 = min(width, cxs[j] - half + scale)
        y1 = min(height, cys[j] - half + scale)
        for y in range(y0, y1):
            for x in range(x0, x1):
                for c in range(3):
                    b = int((lab[y, x, c] - lo[c]) * inv_width[c])
                    if b < 0:
                        b = 0
                    elif b > 7:
                        b = 7
                    out[j, c * 8 + b] += 1.0
        for c in range(3):
            total = 0.0
            for b in range(8):
                total += out[j, c * 8 + b]
            if total > 0.0:
                for b in range(8):
                    out[j, c * 8 + b] /= total
    return out


def _local_hist_batch_np(lab, cxs, cys, scale, lo, inv_width):
    n = cxs.shape[0]
    height, width = lab.shape[0], lab.shape[1]
    out = np.zeros((n, 24), dtype=np.float64)
    half = scale // 2
    for j in range(n):
        x0 = max(0, cxs[j] - half)
        y0 = max(0, cys[j] - half)
        x1 = min(width, cxs[j] - half + scale)
        y1 = min(height, cys[j] - half + scale)
        patch = lab[y0:y1, x0:x1].reshape(-1, 3)
        for c in range(3):
            b = np.clip(((patch[:, c] - lo[c]) * inv_width[c]).astype(np.int64), 0, 7)
            counts = np.bincount(b, minlength=8).astype(np.float64)
            total = counts.sum()
            if total > 0:
                counts /= total
            out[j, c * 8 : c * 8 + 8] = counts
    return out


_local_hist_batch = accel.pick(_local_hist_batch_jit, _local_hist_batch_np)


def _lab_bin_params():
    domains = CHANNEL_DOMAINS[ColorSpace.LAB]
    lo = np.array([d[0] for d in domains])
    inv = np.array(
        [LOCAL_BINS_PER_CHANNEL / (d[1] - d[0]) for d in domains]
    )
    return lo, inv


def surf_descriptor(ii: IntegralImage, center, scale: int) -> np.ndarray:
    """Upright 64-dim SURF vector at one kernel placement."""
    cx, cy = center
    if not kernel_fits(cx, cy, scale, ii.width, ii.height):
        raise ValueError(
            f"SURF kernel (center=({cx}, {cy}), scale={scale}) exceeds "
            f"{ii.width}x{ii.height} image bounds"
        )
    cxs = np.array([cx], dtype=np.int64)
    cys = np.array([cy], dtype=np.int64)
    return _surf_batch(
        ii.table[0],
        cxs,
        cys,
        scale,
        haar_margin(scale),
        _subregion_lut(scale),
        _gauss_weights(scale),
    )[0]


def local_color_histogram(frame: Frame, center, scale: int) -> np.ndarray:
    """24-bin LAB histogram (8 per channel) over one kernel scope, clipped
    to the frame; each channel block L1-normalized. Only the scope's
    pixels are converted to LAB."""
    cx, cy = center
    x0, y0 = window_origin(cx, cy, scale)
    if (
        x0 + scale <= 0
        or y0 + scale <= 0
        or x0 >= frame.width
        or y0 >= frame.height
    ):
        raise ValueError(f"kernel scope at ({cx}, {cy}) misses the frame entirely")
    wx0, wy0 = max(0, x0), max(0, y0)
    lab = _lab_window(
        frame, wx0, wy0, min(frame.width, x0 + scale), min(frame.height, y0 + scale)
    )
    lo, inv = _lab_bin_params()
    return _local_hist_batch(
        lab,
        np.array([cx - wx0], dtype=np.int64),
        np.array([cy - wy0], dtype=np.int64),
        scale,
        lo,
        inv,
    )[0]


def _lab_window(frame: Frame, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """LAB pixels of the frame rectangle [x0, x1) x [y0, y1); an RGB frame
    has only those pixels converted, which gives the bits of the
    full-frame conversion's slice."""
    pixels = frame.pixels[y0:y1, x0:x1]
    if frame.space is ColorSpace.LAB:
        return pixels
    if frame.space is ColorSpace.RGB:
        crop = Frame(pixels, ColorSpace.RGB, frame.index)
        return convert(crop, ColorSpace.LAB).pixels
    raise ValueError(f"cannot derive LAB pixels from {frame.space.value} frame")


@accel.njit()
def _hist96_jit(values, lo, inv_width):
    out = np.zeros(96, dtype=np.float64)
    for i in range(values.shape[0]):
        for c in range(3):
            b = int((values[i, c] - lo[c]) * inv_width[c])
            if b < 0:
                b = 0
            elif b > 31:
                b = 31
            out[c * 32 + b] += 1.0
    return out


def _hist96_np(values, lo, inv_width):
    out = np.zeros(96, dtype=np.float64)
    for c in range(3):
        b = np.clip(
            ((values[:, c] - lo[c]) * inv_width[c]).astype(np.int64), 0, 31
        )
        out[c * 32 : c * 32 + 32] = np.bincount(b, minlength=32)
    return out


_hist96 = accel.pick(_hist96_jit, _hist96_np)


def histogram_from_pixels(
    pixels: np.ndarray,
    space: ColorSpace,
    mask: Optional[np.ndarray] = None,
    normalized: bool = True,
) -> GlobalColorHistogram:
    """96-bin histogram of (h, w, 3) pixels already in `space`."""
    if space is ColorSpace.GRAY:
        raise ValueError("global histogram needs a 3-channel color space")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != pixels.shape[:2]:
            raise ValueError(
                f"mask shape {m.shape} does not match pixels {pixels.shape[:2]}"
            )
        values = pixels[m]
        if values.shape[0] == 0:
            raise ValueError("empty mask region: no pixels to histogram")
    else:
        values = pixels.reshape(-1, 3)
    domains = CHANNEL_DOMAINS[space]
    lo = np.array([d[0] for d in domains])
    inv = np.array([GLOBAL_BINS_PER_CHANNEL / (d[1] - d[0]) for d in domains])
    counts = _hist96(np.ascontiguousarray(values), lo, inv)
    if normalized:
        bins = counts.copy()
        for c in range(3):
            block = bins[c * 32 : c * 32 + 32]
            total = block.sum()
            if total > 0:
                block /= total
        return GlobalColorHistogram(bins, space, True)
    return GlobalColorHistogram(counts, space, False)


def global_histogram(
    frame: Frame,
    space: ColorSpace,
    mask: Optional[np.ndarray] = None,
    normalized: bool = True,
) -> GlobalColorHistogram:
    """96-bin color histogram of a frame (or masked region) in `space`."""
    pixels = frame.pixels if frame.space is space else convert(frame, space).pixels
    return histogram_from_pixels(pixels, space, mask, normalized)


class SampleContext:
    """Per-frame precomputation shared by all descriptor extractions.

    The gray integral image covers the whole frame: SURF box sums over
    non-integer luma taken from a cropped cumulative sum would not give
    the same bits. LAB is converted per window (`lab`), because a region's
    descriptors and histogram read only the pixels around it.
    """

    def __init__(self, frame: Frame, *, _gray: Optional[np.ndarray] = None):
        # _gray: the frame's luma, when the caller has already computed it
        if frame.space is not ColorSpace.RGB:
            raise ValueError(f"sampling expects an RGB frame, got {frame.space.value}")
        self.frame = frame
        gray = (
            convert(frame, ColorSpace.GRAY)
            if _gray is None
            else Frame(_gray, ColorSpace.GRAY, frame.index)
        )
        self.gray_ii = integral(gray)
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
            self._lab = _lab_window(self.frame, x0, y0, x1, y1)
            self._window = (x0, y0, x1, y1)
            wx0, wy0 = x0, y0
        return self._lab[y0 - wy0 : y1 - wy0, x0 - wx0 : x1 - wx0]


def _dense_centers(width, height, scale, interval, anchor):
    ax, ay = anchor
    h = haar_margin(scale)
    half = scale // 2
    lo_x = h + half
    hi_x = width - 1 - h - (scale - 1 - half)
    lo_y = h + half
    hi_y = height - 1 - h - (scale - 1 - half)
    if hi_x < lo_x or hi_y < lo_y:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    jx0 = max(0, -(-(lo_x - ax) // interval))  # ceil division
    jy0 = max(0, -(-(lo_y - ay) // interval))
    xs = np.arange(ax + jx0 * interval, hi_x + 1, interval, dtype=np.int64)
    ys = np.arange(ay + jy0 * interval, hi_y + 1, interval, dtype=np.int64)
    xs = xs[xs >= lo_x]
    ys = ys[ys >= lo_y]
    gx, gy = np.meshgrid(xs, ys)  # row-major: y outer, x inner
    return gx.ravel(), gy.ravel()


def sample(
    frame: Frame,
    plan: SamplingPlan,
    mask: Optional[np.ndarray] = None,
    anchor=(0, 0),
    ctx: Optional[SampleContext] = None,
):
    """Extract LocalDescriptors per the plan.

    DENSE mode walks the anchor-aligned grid at `plan.interval` for every
    scale, keeping positions whose kernel (window + Haar margin) fits the
    frame. A mask is the boolean image of a region whose top-left pixel is
    `anchor` (a blob's local mask at its bbox origin); it restricts the
    centers to its true pixels. A mask that excludes everything yields an
    empty list, while a frame too small for any kernel raises.

    LAB is converted only over the region (the whole frame without a
    mask) grown on each side by the largest kernel's extent and clipped to
    the frame: the window every local color histogram reads from.
    """
    if ctx is None:
        ctx = SampleContext(frame)
    table = ctx.gray_ii.table[0]
    lo, inv = _lab_bin_params()

    if plan.mode is SamplingMode.DENSE:
        placements = [
            (s,) + _dense_centers(frame.width, frame.height, s, plan.interval, anchor)
            for s in plan.scales
        ]
    else:
        keypoints = fast_hessian(ctx.gray_ii, plan.hessian_threshold)
        per_scale = {}
        for x, y, size in keypoints:
            if kernel_fits(x, y, size, frame.width, frame.height):
                per_scale.setdefault(size, []).append((x, y))
        placements = [
            (
                s,
                np.array([p[0] for p in pts], dtype=np.int64),
                np.array([p[1] for p in pts], dtype=np.int64),
            )
            for s, pts in sorted(per_scale.items())
        ]

    if sum(cxs.shape[0] for _, cxs, _ in placements) == 0:
        raise ValueError("no valid sample positions")

    if mask is None:
        rx, ry, rw, rh = 0, 0, frame.width, frame.height
    else:
        mask = np.asarray(mask, dtype=bool)
        (rx, ry), (rh, rw) = anchor, mask.shape
    largest = max(s for s, _, _ in placements)
    x0 = max(0, rx - largest // 2)
    y0 = max(0, ry - largest // 2)
    x1 = min(frame.width, rx + rw + largest - 1 - largest // 2)
    y1 = min(frame.height, ry + rh + largest - 1 - largest // 2)

    descriptors = []
    for scale, cxs, cys in placements:
        if mask is not None:
            inside = (cxs >= rx) & (cxs < rx + rw) & (cys >= ry) & (cys < ry + rh)
            cxs, cys = cxs[inside], cys[inside]
            keep = mask[cys - ry, cxs - rx]
            cxs, cys = cxs[keep], cys[keep]
        if cxs.shape[0] == 0:
            continue
        surfs = _surf_batch(
            table,
            cxs,
            cys,
            scale,
            haar_margin(scale),
            _subregion_lut(scale),
            _gauss_weights(scale),
        )
        lab = ctx.lab(x0, y0, x1, y1)
        colors = _local_hist_batch(lab, cxs - x0, cys - y0, scale, lo, inv)
        for j in range(cxs.shape[0]):
            descriptors.append(
                LocalDescriptor(
                    (int(cxs[j]), int(cys[j])), scale, surfs[j], colors[j]
                )
            )
    return descriptors


def descriptor_matrix(descriptors: Sequence[LocalDescriptor]) -> np.ndarray:
    """(n, 88) matrix of descriptor vectors."""
    if not descriptors:
        return np.zeros((0, DESCRIPTOR_DIM), dtype=np.float64)
    return np.stack([d.vector for d in descriptors])


def dump_descriptors(descriptors, path) -> None:
    """Debug dump: one descriptor per line, `x y scale v1..v88`."""
    with open(path, "w") as f:
        for d in descriptors:
            vals = " ".join(format(v, ".9g") for v in d.vector)
            f.write(f"{d.center[0]} {d.center[1]} {d.scale} {vals}\n")


def fast_hessian(
    ii: IntegralImage,
    threshold: float = 100.0,
    filter_sizes=(9, 15, 21, 27),
):
    """Determinant-of-Hessian interest points via box filters.

    Returns (x, y, size) triples; responses are area-normalized so the
    threshold behaves consistently across filter sizes on 8-bit input.
    Maxima are taken over 3x3x3 neighborhoods across adjacent sizes, so
    only interior filter sizes produce detections.
    """
    table = ii.table[0]
    height, width = ii.height, ii.width
    responses = []
    for L in filter_sizes:
        lobe = L // 3
        border = L // 2
        resp = np.full((height, width), -np.inf)
        if height <= 2 * border or width <= 2 * border:
            responses.append(resp)
            continue

        ys = np.arange(border, height - border)
        xs = np.arange(border, width - border)
        py, px = np.meshgrid(ys, xs, indexing="ij")

        def box(r0, r1, c0, c1):
            return (
                table[py + r1 + 1, px + c1 + 1]
                - table[py + r0, px + c1 + 1]
                - table[py + r1 + 1, px + c0]
                + table[py + r0, px + c0]
            )

        half = (L - 1) // 2
        wch = lobe - 1  # chop for the 2*lobe-1 wide bands
        top = box(-half, -half + lobe - 1, -wch, wch)
        mid = box(-half + lobe, -half + 2 * lobe - 1, -wch, wch)
        bot = box(-half + 2 * lobe, half, -wch, wch)
        dyy = top + bot - 2.0 * mid
        left = box(-wch, wch, -half, -half + lobe - 1)
        cen = box(-wch, wch, -half + lobe, -half + 2 * lobe - 1)
        right = box(-wch, wch, -half + 2 * lobe, half)
        dxx = left + right - 2.0 * cen
        tl = box(-lobe, -1, -lobe, -1)
        tr = box(-lobe, -1, 1, lobe)
        bl = box(1, lobe, -lobe, -1)
        br = box(1, lobe, 1, lobe)
        dxy = tl + br - tr - bl

        inv_area = 1.0 / (L * L)
        dxx *= inv_area
        dyy *= inv_area
        dxy *= inv_area
        resp[border : height - border, border : width - border] = (
            dxx * dyy - (0.9 * dxy) ** 2
        )
        responses.append(resp)

    found = []
    for i in range(1, len(filter_sizes) - 1):
        det = responses[i]
        stack = np.stack([responses[i - 1], det, responses[i + 1]])
        ys, xs = np.nonzero(det >= threshold)
        for y, x in zip(ys, xs):
            if y < 1 or x < 1 or y >= height - 1 or x >= width - 1:
                continue
            patch = stack[:, y - 1 : y + 2, x - 1 : x + 2]
            if det[y, x] >= patch.max() and (patch == det[y, x]).sum() == 1:
                found.append((int(x), int(y), filter_sizes[i]))
    found.sort(key=lambda t: (t[2], t[1], t[0]))
    return found
