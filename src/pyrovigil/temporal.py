"""Temporal verification: track classified blobs and decide fire vs.
rigid confuser from shape-variation statistics over a 25-sample window.

Per window the tracker measures mean/stddev of perimeter and area plus
the summed stddev of the four bounding-box quadrant pixel counts. A
track whose ratios all sit below t1 is a static object (lamp); one with
any ratio above t2 is a transient; the moderate band in between is the
flame signature and confirms fire. Both comparisons are strict.
"""

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import List

import numpy as np

from .proposal import Blob

WINDOW = 25

# (t1, t2) per scene; outdoor flames are pushed around by airflow, so
# wider bands
_PRESETS = {"indoor": (0.15, 0.40), "outdoor": (0.25, 0.60)}


class TrackState(Enum):
    PENDING = "pending"
    FIRE_CONFIRMED = "fire_confirmed"
    REJECTED = "rejected"


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class StabilityThresholds:
    t1: float
    t2: float

    def __post_init__(self):
        if not 0 < self.t1 < self.t2:
            raise ValueError(f"need 0 < t1 < t2, got t1={self.t1}, t2={self.t2}")

    @classmethod
    def preset(cls, name: str):
        try:
            return cls(*_PRESETS[name.lower()])
        except KeyError:
            raise ValueError(f"unknown thresholds preset {name!r}") from None


@dataclass
class BlobTrack:
    track_id: int
    state: TrackState = TrackState.PENDING
    samples: deque = field(default_factory=lambda: deque(maxlen=WINDOW))
    last_seen: int = -1
    bbox: tuple = (0, 0, 0, 0)
    last_margin: float = 0.0

    def add_sample(self, blob: Blob, frame_index: int, margin: float = 0.0):
        d = spatial_distribution(blob)
        self.samples.append(
            (float(blob.perimeter), float(blob.area), float(d[0]), float(d[1]),
             float(d[2]), float(d[3]))
        )
        self.last_seen = frame_index
        self.bbox = blob.bbox
        self.last_margin = margin

    @property
    def buffer_full(self) -> bool:
        return len(self.samples) == self.samples.maxlen


def spatial_distribution(blob: Blob):
    """Blob pixel counts in the four equal quadrants of its bounding box
    (d1 top-left, d2 top-right, d3 bottom-left, d4 bottom-right). Odd
    box dimensions give the extra row/column to the lower/right half."""
    hx = blob.w // 2
    hy = blob.h // 2
    m = blob.mask
    d1 = int(m[:hy, :hx].sum())
    d2 = int(m[:hy, hx:].sum())
    d3 = int(m[hy:, :hx].sum())
    d4 = int(m[hy:, hx:].sum())
    return d1, d2, d3, d4


def window_stats(samples):
    """(mu_p, sd_p, mu_a, sd_a, sd_d) over a sample window; population
    standard deviations; sd_d is the sum of the four quadrant stddevs."""
    arr = np.asarray(samples, dtype=np.float64)
    mu_p = float(arr[:, 0].mean())
    sd_p = float(arr[:, 0].std())
    mu_a = float(arr[:, 1].mean())
    sd_a = float(arr[:, 1].std())
    sd_d = float(sum(arr[:, 2 + i].std() for i in range(4)))
    return mu_p, sd_p, mu_a, sd_a, sd_d


def classify_stability(
    mu_p, sd_p, mu_a, sd_a, sd_d, thresholds: StabilityThresholds
) -> Stability:
    """Strict-inequality band test on the window statistics.

    Stable when every ratio is under t1 (the third clause compares the
    quadrant stddev against the area mean); otherwise unstable when any
    exceeds t2.
    """
    t1, t2 = thresholds.t1, thresholds.t2
    if sd_p < t1 * mu_p and sd_a < t1 * mu_a and sd_d < t1 * mu_a:
        return Stability.STABLE
    if sd_p > t2 * mu_p or sd_a > t2 * mu_a or sd_d > t2 * mu_a:
        return Stability.UNSTABLE
    return Stability.UNDECIDED


def bbox_iou(a, b) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


class Tracker:
    """Stage 3: follows classifier-positive blobs across decision frames
    and gives each track one verdict once its window is full."""

    def __init__(
        self,
        thresholds: StabilityThresholds,
        iou_threshold: float = 0.3,
        max_gap: int = 5,
    ):
        self.thresholds = thresholds
        self.iou_threshold = iou_threshold
        self.max_gap = max_gap
        self.tracks: List[BlobTrack] = []
        self._next_id = 1

    def update(self, blobs, frame_index, margins=None):
        """Feed one frame of classifier-positive blobs. Returns tracks
        newly confirmed as fire on this frame.

        Blobs go onto live tracks greedily by best IoU (at least
        `iou_threshold`); an unmatched blob starts a new PENDING track,
        and a track unseen for `max_gap` frames is dropped (a vanished
        blob is not fire). The pipeline passes its decision frames as
        0, 1, 2, ..., so `max_gap` counts decisions. A track whose window
        fills at this frame is confirmed when its shape variation sits in
        the flame band and rejected when it is stable or unstable.
        """
        if margins is None:
            margins = [0.0] * len(blobs)
        tracks = self.tracks
        pairs = []
        for ti, tr in enumerate(tracks):
            for bi, blob in enumerate(blobs):
                iou = bbox_iou(tr.bbox, blob.bbox)
                if iou >= self.iou_threshold:
                    pairs.append((-iou, ti, bi))
        pairs.sort()
        used_t = set()
        used_b = set()
        for _, ti, bi in pairs:
            if ti in used_t or bi in used_b:
                continue
            used_t.add(ti)
            used_b.add(bi)
            tracks[ti].add_sample(blobs[bi], frame_index, margins[bi])
        for bi, blob in enumerate(blobs):
            if bi in used_b:
                continue
            tr = BlobTrack(track_id=self._next_id)
            self._next_id += 1
            tr.add_sample(blob, frame_index, margins[bi])
            tracks.append(tr)
        self.tracks = [tr for tr in tracks if frame_index - tr.last_seen < self.max_gap]
        confirmed = []
        for tr in self.tracks:
            # a window fills only at a frame that adds to it, and is
            # judged there
            if tr.state is not TrackState.PENDING or not tr.buffer_full:
                continue
            stab = classify_stability(*window_stats(tr.samples), self.thresholds)
            if stab is Stability.UNDECIDED:
                tr.state = TrackState.FIRE_CONFIRMED
                confirmed.append(tr)
            else:
                tr.state = TrackState.REJECTED
        return confirmed
