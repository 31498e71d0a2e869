"""Candidate fire-region proposal: background subtraction for static
cameras, brightness thresholding against an adaptive ladder, and blob
extraction from the cleaned binary mask.

The threshold ladder descends with scene brightness: a dark scene gets
the top rung, a bright one the bottom, so bright backgrounds do not
flood the candidate mask while dim scenes still stay selective.
"""

import math
from collections import deque
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
    mask: np.ndarray  # (h, w) bool, local to the bounding box

    @property
    def bbox(self):
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class ProposalConfig:
    """Stage 1's settings, each range-checked when the config is built
    (ValueError)."""

    camera: str = "static"  # static | moving
    ladder: Tuple[float, ...] = DEFAULT_LADDER
    min_blob_area: int = 64  # at 320x240; scaled by resolution ratio
    rho: float = 0.01
    lam: float = 2.5
    var_floor: float = 4.0
    warmup: int = 25
    stats_window: int = 25

    def __post_init__(self):
        if self.camera not in ("static", "moving"):
            raise ValueError(f"camera must be static or moving, got {self.camera!r}")
        if not self.ladder:
            raise ValueError("threshold ladder must not be empty")
        if not all(0 < rung <= 255 for rung in self.ladder):
            raise ValueError(f"ladder rungs must be in (0, 255], got {self.ladder}")
        if not 0 < self.rho <= 1:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        # lam <= 0 marks every pixel foreground; NaN marks none
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not (math.isfinite(self.var_floor) and self.var_floor >= 0):
            raise ValueError(f"var_floor must be finite and >= 0, got {self.var_floor}")
        if self.stats_window < 1:
            raise ValueError(f"stats_window must be >= 1, got {self.stats_window}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.min_blob_area < 0:
            raise ValueError(f"min_blob_area must be >= 0, got {self.min_blob_area}")

    def scaled_min_area(self, width: int, height: int) -> int:
        return max(1, round(self.min_blob_area * (width * height) / REFERENCE_PIXELS))


# ---------------------------------------------------------------------------
# background model


def _bg_update(mean, var, gray, rho, lam, var_floor, warmup_phase, planes, fg):
    """One step of the running Gaussian, in place: `fg` (bool) receives the
    foreground mask, and `planes`, three planes of the frame's shape and
    of `mean`'s dtype, are scratch. The arithmetic keeps that dtype when
    `gray` holds it too and `rho`, `lam` and `var_floor` are numpy scalars
    of it."""
    d, a, b = planes
    np.subtract(gray, mean, out=d)
    if warmup_phase:
        fg.fill(False)
    else:
        bound = np.sqrt(var, out=a)
        np.maximum(bound, var_floor, out=bound)
        bound *= lam
        np.greater(np.abs(d, out=b), bound, out=fg)
    # foreground pixels keep their old values, written back after the update
    held = np.flatnonzero(fg)
    mean_flat, var_flat = mean.reshape(-1), var.reshape(-1)
    old_mean, old_var = mean_flat[held], var_flat[held]
    # (1 - rho) * mean + rho * gray and (1 - rho) * var + rho * d**2 in
    # this operand order, which the bits depend on
    np.multiply(mean, 1.0 - rho, out=mean)
    np.multiply(gray, rho, out=a)
    mean += a
    np.multiply(var, 1.0 - rho, out=var)
    np.square(d, out=a)
    a *= rho
    var += a
    mean_flat[held] = old_mean
    var_flat[held] = old_var
    return fg


class BackgroundModel:
    """Per-pixel running Gaussian over intensity, single writer per stream.

    The mean, the variance and the update are float32, as in Wallflower
    (Toyama et al., ICCV 1999): each frame's luma is cast once into a plane
    the model owns. A pixel is foreground when its deviation passes a bound
    of at least `lam * var_floor` grey levels, far above float32's rounding,
    and the model is not used in training.

    The learning rate widens to 1/t while the model is young, so the mean
    tracks the plain cumulative average until the configured rate takes
    over. After the warm-up only background pixels keep learning, which
    stops foreground objects from being absorbed.

    The model owns its scratch planes and its foreground mask: the mask
    `update` returns is overwritten by the next update.
    """

    def __init__(self, height, width, config: ProposalConfig = ProposalConfig()):
        self.height, self.width = height, width
        # numpy scalars, so the update stays float32 under any promotion rule
        self.rho = np.float32(config.rho)
        self.lam = np.float32(config.lam)
        self.var_floor = np.float32(config.var_floor)
        self.warmup = int(config.warmup)
        self.mean = np.zeros((height, width), dtype=np.float32)
        self.var = np.zeros((height, width), dtype=np.float32)
        self.frames_absorbed = 0
        self._gray = np.empty((height, width), dtype=np.float32)
        self._planes = tuple(np.empty((height, width), dtype=np.float32) for _ in range(3))
        self._fg = np.zeros((height, width), dtype=bool)

    def update(self, gray: np.ndarray) -> np.ndarray:
        """Absorb one intensity frame and return its foreground mask."""
        gray = np.asarray(gray)
        if gray.shape != (self.height, self.width):
            raise ValueError(
                f"frame shape {gray.shape} does not match model "
                f"{self.height}x{self.width}"
            )
        # the one cast of the frame, into the float32 plane the model owns
        np.copyto(self._gray, gray)
        gray = self._gray
        if self.frames_absorbed == 0:
            self.mean[:] = gray
            self.var[:] = self.var_floor * self.var_floor
            self.frames_absorbed = 1
            self._fg.fill(False)
            return self._fg
        t = self.frames_absorbed + 1
        rho_eff = max(self.rho, np.float32(1.0 / t))
        warmup_phase = self.frames_absorbed < self.warmup
        fg = _bg_update(
            self.mean, self.var, gray, rho_eff, self.lam, self.var_floor,
            warmup_phase, self._planes, self._fg,
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
    # min keeps the first of equally near rungs: the higher one
    return min(rungs, key=lambda r: abs(target - r))


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
    """8-connected components of a boolean mask as horizontal runs in raster
    order, (rows, starts, ends, labels, count): run i covers columns
    [starts[i], ends[i]) of row rows[i], and labels[i] numbers its component
    1..count in the raster order of each component's first pixel.

    Works on runs, not pixels (He, Chao & Suzuki, IEEE TIP 2008). A run is
    first a span of flat indices in the mask padded with one background
    column; runs in adjacent rows touch when their spans overlap or meet
    diagonally. Roots hook to the smallest root they touch, so each
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
    # a run ends at the latest in its row's pad column
    return starts // stride, starts % stride, ends % stride, number, int(first.sum())


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
        mask=local,
    )


def extract_blobs(mask: np.ndarray, min_area: int = 1) -> List[Blob]:
    """8-connected components of a mask, small ones dropped, area-descending."""
    rows, starts, ends, labels, count = label_components(np.asarray(mask, dtype=bool))
    lengths = ends - starts
    area = np.bincount(labels, weights=lengths, minlength=count + 1)
    # each component's runs, still in raster order
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(1, count + 2))
    blobs = []
    for i in np.flatnonzero(area[1:] >= min_area):
        seg = order[bounds[i] : bounds[i + 1]]
        n = lengths[seg]
        # the runs' pixels in raster order
        ys = np.repeat(rows[seg], n)
        xs = np.arange(ys.size) + np.repeat(starts[seg] - (np.cumsum(n) - n), n)
        blobs.append(_blob_from_coords(ys, xs))
    blobs.sort(key=lambda b: (-b.area, b.y, b.x))
    return blobs


# ---------------------------------------------------------------------------
# the proposal stage


class ProposalEngine:
    """Stateful stage-1 wrapper: owns the background model (static camera)
    and the rolling brightness statistics for threshold selection.

    Every frame must be absorbed, so that the background model and the
    rolling brightness see the whole stream; only the frames whose blobs
    are wanted need `propose`, which absorbs the frame itself.

    `gray` holds the luma of the last frame absorbed, so that later stages
    of the same frame need not compute it again, and `index` its index.
    The engine owns the luma planes: the next frame absorbed overwrites
    `gray`, as it does the foreground mask `absorb` returns."""

    def __init__(self, config: ProposalConfig, width: int, height: int):
        self.config = config
        self.width, self.height = width, height
        self.model = BackgroundModel(height, width, config) if config.camera == "static" else None
        self._recent_means = deque(maxlen=config.stats_window)
        self._luma_planes = (np.empty((height, width)), np.empty((height, width)))
        self.gray: Optional[np.ndarray] = None
        self.index: Optional[int] = None

    def absorb(self, frame: Frame) -> Optional[np.ndarray]:
        """Take in one RGB frame: its luma, its mean intensity for the rolling
        brightness, and a background model update. Returns the frame's
        foreground mask, or None without a background model."""
        if frame.space is not ColorSpace.RGB:
            raise ValueError(f"cannot derive intensity from {frame.space.value} frame")
        self.gray = luma(frame.pixels, *self._luma_planes)
        self.index = frame.index
        self._recent_means.append(float(self.gray.mean()))
        return None if self.model is None else self.model.update(self.gray)

    def propose(self, frame: Frame):
        """Absorb the frame; return its candidate blobs plus the cleaned
        mask they came from.

        The brightness threshold is picked for the mean intensity of the
        last `stats_window` frames. With a background model the candidate
        mask is foreground AND bright; without one (moving camera) the
        brightness mask stands alone. The mask is cleaned by one 3x3
        morphological open before labeling.
        """
        fg = self.absorb(frame)
        mean_intensity = sum(self._recent_means) / len(self._recent_means)
        thr = multi_level_threshold(self.gray, mean_intensity, self.config.ladder)
        mask = thr.mask if fg is None else fg & thr.mask
        cleaned = binary_open3(np.ascontiguousarray(mask))
        min_area = self.config.scaled_min_area(frame.width, frame.height)
        return extract_blobs(cleaned, min_area), CandidateMask(cleaned, thr.threshold)
