"""Candidate fire-region proposal: background subtraction for static
cameras, brightness thresholding against an adaptive ladder, and blob
extraction from the cleaned binary mask.

The threshold ladder descends with scene brightness: a dark scene gets
the top rung, a bright one the bottom, so bright backgrounds do not
flood the candidate mask while dim scenes still stay selective.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .imaging import ColorSpace, Frame, luma

DEFAULT_LADDER = (220.0, 190.0, 160.0)
REFERENCE_PIXELS = 320 * 240


@dataclass(frozen=True)
class CandidateMask:
    mask: np.ndarray
    threshold: float  # the ladder rung the brightness mask used


@dataclass(frozen=True)
class Blob:
    x: int
    y: int
    w: int
    h: int
    area: int
    perimeter: int
    centroid: tuple
    mask: np.ndarray  # (h, w) bool, local to the bounding box

    @property
    def bbox(self):
        return (self.x, self.y, self.w, self.h)


# ---------------------------------------------------------------------------
# background model


def _bg_update(mean, var, gray, rho, lam, var_floor, warmup_phase):
    d = gray - mean
    new = np.empty_like(mean)
    term = np.empty_like(mean)
    if warmup_phase:
        fg = np.zeros(gray.shape, dtype=bool)
        learn = True
    else:
        bound = np.sqrt(var, out=term)
        np.maximum(bound, var_floor, out=bound)
        bound *= lam
        fg = np.abs(d, out=new) > bound
        learn = ~fg
    # (1 - rho) * mean + rho * gray and (1 - rho) * var + rho * d**2 in
    # this operand order, which the bits depend on, over the whole frame;
    # written back only where the model learns
    np.multiply(mean, 1.0 - rho, out=new)
    np.multiply(gray, rho, out=term)
    new += term
    np.copyto(mean, new, where=learn)
    np.multiply(var, 1.0 - rho, out=new)
    np.square(d, out=term)
    term *= rho
    new += term
    np.copyto(var, new, where=learn)
    return fg


class BackgroundModel:
    """Per-pixel running Gaussian over intensity, single writer per stream.

    The learning rate widens to 1/t while the model is young, so the mean
    tracks the plain cumulative average until the configured rate takes
    over. After the warm-up only background pixels keep learning, which
    stops foreground objects from being absorbed.
    """

    def __init__(self, height, width, rho=0.01, lam=2.5, var_floor=4.0, warmup=25):
        if rho <= 0 or rho > 1:
            raise ValueError(f"rho must be in (0, 1], got {rho}")
        self.height = height
        self.width = width
        self.rho = float(rho)
        self.lam = float(lam)
        self.var_floor = float(var_floor)
        self.warmup = int(warmup)
        self.mean = np.zeros((height, width), dtype=np.float64)
        self.var = np.zeros((height, width), dtype=np.float64)
        self.frames_absorbed = 0

    def update(self, gray: np.ndarray) -> np.ndarray:
        """Absorb one intensity frame and return its foreground mask."""
        gray = np.ascontiguousarray(np.asarray(gray, dtype=np.float64))
        if gray.shape != (self.height, self.width):
            raise ValueError(
                f"frame shape {gray.shape} does not match model "
                f"{self.height}x{self.width}"
            )
        if self.frames_absorbed == 0:
            self.mean[:] = gray
            self.var[:] = self.var_floor * self.var_floor
            self.frames_absorbed = 1
            return np.zeros(gray.shape, dtype=bool)
        t = self.frames_absorbed + 1
        rho_eff = max(self.rho, 1.0 / t)
        warmup_phase = self.frames_absorbed < self.warmup
        fg = _bg_update(
            self.mean, self.var, gray, rho_eff, self.lam, self.var_floor,
            warmup_phase,
        )
        self.frames_absorbed = t
        return fg


# ---------------------------------------------------------------------------
# multi-level threshold


def pick_threshold(mean_intensity: float, ladder=DEFAULT_LADDER) -> float:
    """Rung for the scene: T1 - (T1 - TL) * q, q = mean/255, snapped to the
    nearest rung (ties toward the higher, more selective rung)."""
    rungs = sorted(ladder, reverse=True)
    t1, tl = rungs[0], rungs[-1]
    q = min(1.0, max(0.0, mean_intensity / 255.0))
    target = t1 - (t1 - tl) * q
    best = rungs[0]
    best_err = abs(target - rungs[0])
    for r in rungs[1:]:
        err = abs(target - r)
        if err < best_err:
            best = r
            best_err = err
    return best


def multi_level_threshold(
    gray: np.ndarray, mean_intensity: float, ladder=DEFAULT_LADDER
) -> CandidateMask:
    """Bright-pixel mask at the ladder rung chosen for a scene of the given
    mean intensity."""
    gray = np.asarray(gray, dtype=np.float64)
    t = pick_threshold(mean_intensity, ladder)
    return CandidateMask(gray >= t, t)


# ---------------------------------------------------------------------------
# morphology and connected components


def _pad1(mask):
    """`mask` inside a one-pixel border of background."""
    h, w = mask.shape
    canvas = np.zeros((h + 2, w + 2), dtype=bool)
    canvas[1:-1, 1:-1] = mask
    return canvas


def binary_open3(mask):
    """3x3 morphological open; pixels outside the frame read as background.

    Each 3x3 window is taken as a row of three, then a column of three of
    those rows: the same AND (erosion) and OR (dilation) of nine pixels."""
    p = _pad1(mask)
    rows = p[:, :-2] & p[:, 1:-1] & p[:, 2:]
    q = _pad1(rows[:-2] & rows[1:-1] & rows[2:])
    rows = q[:, :-2] | q[:, 1:-1] | q[:, 2:]
    return rows[:-2] | rows[1:-1] | rows[2:]


def label_components(mask):
    """8-connected labels of a boolean mask, numbered 1..count in the raster
    order of each component's first pixel.

    Works on horizontal runs, not pixels (He, Chao & Suzuki, IEEE TIP 2008).
    A run is a span [start, end) of flat indices in the mask padded with one
    background column; runs in adjacent rows touch when their spans overlap
    or meet diagonally. Roots hook to the smallest root they touch, so each
    component's root is its first run.
    """
    h, w = np.shape(mask)
    stride = w + 1
    # one leading background pixel, then the padded rows
    grid = np.zeros(h * stride + 1, dtype=bool)
    grid[1:].reshape(h, stride)[:, :w] = mask
    edges = np.flatnonzero(grid[1:] != grid[:-1])
    starts, ends = edges[::2], edges[1::2]
    # run i touches the next row's runs lo[i]..hi[i]-1: those with
    # end >= start[i] and start <= end[i], both one row further down
    lo = np.searchsorted(ends, starts + stride, side="left")
    hi = np.searchsorted(starts, ends + stride, side="right")
    links = hi - lo
    upper = np.repeat(np.arange(starts.size), links)
    lower = np.arange(upper.size) - np.repeat(np.cumsum(links) - links - lo, links)
    root = np.arange(starts.size)
    while not np.array_equal(root[upper], root[lower]):
        ru, rl = root[upper], root[lower]
        np.minimum.at(root, np.maximum(ru, rl), np.minimum(ru, rl))
        while not np.array_equal(root, root[root]):
            root = root[root]
    first = root == np.arange(starts.size)
    number = np.cumsum(first, dtype=np.int32)[root]
    # paint in the unpadded grid: drop one pad column per row above
    paint = np.zeros(h * w + 1, dtype=np.int32)
    paint[starts - starts // stride] = number
    paint[ends - ends // stride] -= number
    labels = np.cumsum(paint, out=paint)[:-1].reshape(h, w)
    return labels, int(first.sum())


def _blob_from_coords(ys, xs):
    x0, x1 = int(xs.min()), int(xs.max())
    y0, y1 = int(ys.min()), int(ys.max())
    bw, bh = x1 - x0 + 1, y1 - y0 + 1
    local = np.zeros((bh, bw), dtype=bool)
    local[ys - y0, xs - x0] = True
    p = _pad1(local)
    interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    perimeter = int((local & ~interior).sum())
    return Blob(
        x=x0,
        y=y0,
        w=bw,
        h=bh,
        area=int(ys.size),
        perimeter=perimeter,
        centroid=(float(xs.mean()), float(ys.mean())),
        mask=local,
    )


def extract_blobs(mask: np.ndarray, min_area: int = 1) -> List[Blob]:
    """8-connected components of a mask, small ones dropped, area-descending."""
    m = np.ascontiguousarray(np.asarray(mask, dtype=bool))
    labels, count = label_components(m)
    if count == 0:
        return []
    flat = labels.ravel()
    idx = np.nonzero(flat)[0]
    order = np.argsort(flat[idx], kind="stable")
    idx = idx[order]
    lbl = flat[idx]
    bounds = np.searchsorted(lbl, np.arange(1, count + 2))
    w = m.shape[1]
    blobs = []
    for i in range(count):
        seg = idx[bounds[i] : bounds[i + 1]]
        if seg.size < min_area:
            continue
        blobs.append(_blob_from_coords(seg // w, seg % w))
    blobs.sort(key=lambda b: (-b.area, b.y, b.x))
    return blobs


# ---------------------------------------------------------------------------
# the proposal stage


@dataclass
class ProposalConfig:
    camera: str = "static"  # static | moving
    ladder: Tuple[float, ...] = DEFAULT_LADDER
    min_blob_area: int = 64  # at 320x240; scaled by resolution ratio
    rho: float = 0.01
    lam: float = 2.5
    var_floor: float = 4.0
    warmup: int = 25
    stats_window: int = 25

    def scaled_min_area(self, width: int, height: int) -> int:
        return max(1, round(self.min_blob_area * (width * height) / REFERENCE_PIXELS))


def _intensity(frame: Frame) -> np.ndarray:
    if frame.space is ColorSpace.GRAY:
        return frame.pixels
    if frame.space is ColorSpace.RGB:
        return luma(frame.pixels)
    raise ValueError(f"cannot derive intensity from {frame.space.value} frame")


class ProposalEngine:
    """Stateful stage-1 wrapper: owns the background model (static camera)
    and the rolling brightness statistics for threshold selection.

    `gray` holds the luma of the last frame proposed, so that later stages
    of the same frame need not compute it again, and `index` its index."""

    def __init__(self, config: ProposalConfig, width: int, height: int):
        self.config = config
        self.width, self.height = width, height
        if config.camera not in ("static", "moving"):
            raise ValueError(f"camera must be 'static' or 'moving', got {config.camera!r}")
        self.model = (
            BackgroundModel(
                height, width, config.rho, config.lam, config.var_floor, config.warmup
            )
            if config.camera == "static"
            else None
        )
        self._recent_means: List[float] = []
        self.gray: Optional[np.ndarray] = None
        self.index: Optional[int] = None

    def propose(self, frame: Frame):
        """Candidate blobs of the frame plus the cleaned mask they came from.

        The brightness threshold is picked for the mean intensity of the
        last `stats_window` frames. With a background model the candidate
        mask is foreground AND bright; without one (moving camera) the
        brightness mask stands alone. The mask is cleaned by one 3x3
        morphological open before labeling.
        """
        self.gray = gray = _intensity(frame)
        self.index = frame.index
        self._recent_means.append(float(gray.mean()))
        if len(self._recent_means) > self.config.stats_window:
            self._recent_means.pop(0)
        mean_intensity = sum(self._recent_means) / len(self._recent_means)
        thr = multi_level_threshold(gray, mean_intensity, self.config.ladder)
        mask = thr.mask if self.model is None else self.model.update(gray) & thr.mask
        cleaned = binary_open3(np.ascontiguousarray(mask))
        min_area = self.config.scaled_min_area(frame.width, frame.height)
        return extract_blobs(cleaned, min_area), CandidateMask(cleaned, thr.threshold)
