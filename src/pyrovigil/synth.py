"""Deterministic synthetic imagery: training patches and a benchmark
scene with a flickering flame, a static lamp, and a moving car light.

Everything is random-access reproducible: frame t of a scene depends
only on the scene seed and t, so re-running a detection produces
bit-identical input.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .imaging import ColorSpace, Frame


def _rng(seed, *salts):
    mixed = np.random.SeedSequence([seed, *salts])
    return np.random.default_rng(mixed)


def _value_noise(rng, h, w, cell, lo, hi):
    """Blocky low-frequency noise: coarse grid upsampled by replication."""
    gh = h // cell + 1
    gw = w // cell + 1
    g = rng.uniform(lo, hi, (gh, gw))
    return g.repeat(cell, axis=0).repeat(cell, axis=1)[:h, :w]


def _rgb_frame(px, index=0):
    """An RGB frame of `px` rounded to the nearest 8-bit value and clipped
    to [0, 255]; `px` is rounded in place."""
    np.clip(np.rint(px, out=px), 0, 255, out=px)
    return Frame(px.astype(np.uint8), ColorSpace.RGB, index)


def _ellipse(h, w, cx, cy, rx, ry):
    """(ys, xs) of the pixels of an h x w frame inside the ellipse, tested
    in its bounding box clipped to the frame: every pixel outside that box
    lies a whole pixel beyond the ellipse."""
    y0, x0 = max(0, math.floor(cy - ry)), max(0, math.floor(cx - rx))
    y1, x1 = min(h, math.ceil(cy + ry) + 1), min(w, math.ceil(cx + rx) + 1)
    yy, xx = np.ogrid[y0:y1, x0:x1]
    ys, xs = np.nonzero(((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0)
    return ys + y0, xs + x0


def _paint_fire(rng, h, w, ys, xs):
    """Bright yellow RGB texture at pixels (ys, xs) of an h x w image: every
    painted pixel clears the 220 luma bar. Each noise grid is drawn whole,
    which keeps the rng stream."""
    cells = (h // 5 + 1, w // 5 + 1)
    green = rng.uniform(0.0, 12.0, cells)[ys // 5, xs // 5]
    blue = rng.uniform(0.0, 90.0, cells)[ys // 5, xs // 5]
    px = np.empty(green.shape + (3,))
    px[..., 0] = 255.0
    px[..., 1] = 240.0 + green
    px[..., 2] = 90.0 + blue
    return px


# ---------------------------------------------------------------------------
# training patches


def fire_patch(seed, size: int = 64) -> Frame:
    rng = _rng(seed, 0xF1FE)
    ys, xs = np.ogrid[:size, :size]
    return _rgb_frame(_paint_fire(rng, size, size, ys, xs))


def lamp_patch(seed, size: int = 64) -> Frame:
    rng = _rng(seed, 0x1A3B)
    px = np.empty((size, size, 3))
    base = rng.uniform(244.0, 252.0)
    for c in range(3):
        px[:, :, c] = base + _value_noise(rng, size, size, 8, -3.0, 3.0)
    px[:, :, 2] -= rng.uniform(0.0, 6.0)
    return _rgb_frame(px)


def carlight_patch(seed, size: int = 64) -> Frame:
    rng = _rng(seed, 0xCA51)
    px = np.empty((size, size, 3))
    px[:, :, 0] = 252.0 + _value_noise(rng, size, size, 8, -2.0, 3.0)
    px[:, :, 1] = 246.0 + _value_noise(rng, size, size, 8, -4.0, 3.0)
    px[:, :, 2] = 212.0 + _value_noise(rng, size, size, 8, -8.0, 8.0)
    return _rgb_frame(px)


def cool_patch(seed, size: int = 64) -> Frame:
    rng = _rng(seed, 0xC001)
    kind = int(rng.integers(3))
    px = np.empty((size, size, 3))
    if kind == 0:  # bluish
        px[:, :, 0] = _value_noise(rng, size, size, 6, 10.0, 90.0)
        px[:, :, 1] = _value_noise(rng, size, size, 6, 30.0, 120.0)
        px[:, :, 2] = _value_noise(rng, size, size, 6, 120.0, 240.0)
    elif kind == 1:  # greenish
        px[:, :, 0] = _value_noise(rng, size, size, 6, 20.0, 90.0)
        px[:, :, 1] = _value_noise(rng, size, size, 6, 110.0, 220.0)
        px[:, :, 2] = _value_noise(rng, size, size, 6, 20.0, 100.0)
    else:  # gray clutter
        g = _value_noise(rng, size, size, 6, 40.0, 180.0)
        for c in range(3):
            px[:, :, c] = g + _value_noise(rng, size, size, 8, -10.0, 10.0)
    return _rgb_frame(px)


def dark_patch(seed, size: int = 64) -> Frame:
    rng = _rng(seed, 0xDA2C)
    px = np.empty((size, size, 3))
    for c in range(3):
        px[:, :, c] = _value_noise(rng, size, size, 8, 10.0, 60.0)
    return _rgb_frame(px)


def nonfire_patch(seed, size: int = 64) -> Frame:
    makers = (lamp_patch, carlight_patch, cool_patch, cool_patch, dark_patch)
    return makers[seed % len(makers)](seed, size)


# ---------------------------------------------------------------------------
# benchmark scene


@dataclass(frozen=True)
class SceneSpec:
    width: int = 320
    height: int = 240
    seed: int = 7
    flame_onset: int = 100
    flame_base: Tuple[int, int] = (80, 205)  # bottom-center anchor
    flame_size: Tuple[int, int] = (30, 46)  # nominal width, height
    sway_amp: float = 6.0
    lamp_center: Tuple[int, int] = (244, 58)
    lamp_radius: int = 12
    car_enter: int = 35
    car_exit: int = 175
    car_y: int = 182
    car_speed: float = 2.5
    car_radius: Tuple[int, int] = (11, 7)
    with_flame: bool = True
    with_lamp: bool = True
    with_car: bool = True


class SyntheticScene:
    """320x240 surveillance scene; frame(t) is pure in (spec.seed, t)."""

    def __init__(self, spec: SceneSpec = SceneSpec()):
        self.spec = spec
        rng = _rng(spec.seed, 0xBA5E)
        base = _value_noise(rng, spec.height, spec.width, 16, 22.0, 38.0)
        self._base = np.stack([base, base * 0.97, base * 0.94], axis=2)

    def flame_mask(self, t: int) -> np.ndarray:
        """Flame silhouette at frame t: a swaying, breathing three-lobe
        union whose quadrant balance churns frame to frame."""
        spec = self.spec
        rng = _rng(spec.seed, 0xF1A, t)
        h, w = spec.height, spec.width
        fx, fy = spec.flame_base
        fw, fh = spec.flame_size
        phase = 2.0 * np.pi * t / 13.0
        sway = spec.sway_amp * np.sin(phase) + rng.uniform(-2.0, 2.0)
        grow = 1.0 + rng.uniform(-0.05, 0.05)
        body = _ellipse(h, w, fx, fy - 0.32 * fh, 0.50 * fw * grow, 0.40 * fh * grow)
        tip = _ellipse(
            h, w, fx + sway, fy - 0.74 * fh, 0.30 * fw * grow, 0.34 * fh * grow
        )
        lick = _ellipse(
            h, w,
            fx + 0.6 * sway + rng.uniform(-3.0, 3.0),
            fy - 0.52 * fh,
            0.36 * fw * grow,
            0.30 * fh * grow,
        )
        mask = np.zeros((h, w), dtype=bool)
        for lobe in (body, tip, lick):
            mask[lobe] = True
        return mask

    def frame(self, t: int) -> Frame:
        spec = self.spec
        rng = _rng(spec.seed, 0xFA0, t)
        h, w = spec.height, spec.width
        px = self._base + rng.uniform(-1.5, 1.5, (h, w, 1))
        if spec.with_lamp:
            lamp = _ellipse(h, w, *spec.lamp_center, spec.lamp_radius, spec.lamp_radius)
            px[lamp] = np.array([249.0, 249.0, 242.0]) + rng.uniform(-2, 2, 3)
        if spec.with_car and spec.car_enter <= t <= spec.car_exit:
            cx = -20.0 + spec.car_speed * (t - spec.car_enter)
            # its colour is drawn even off the frame, which keeps the rng stream
            car = _ellipse(h, w, cx, spec.car_y, *spec.car_radius)
            px[car] = np.array([253.0, 247.0, 213.0]) + rng.uniform(-2, 2, 3)
        if spec.with_flame and t >= spec.flame_onset:
            ys, xs = np.nonzero(self.flame_mask(t))
            px[ys, xs] = _paint_fire(rng, h, w, ys, xs)
        return _rgb_frame(px, t)

    def frames(self, count: int, start: int = 0):
        for t in range(start, start + count):
            yield self.frame(t)

    def flame_region(self) -> Tuple[int, int, int, int]:
        """Generous bbox containing the flame at any frame."""
        spec = self.spec
        fx, fy = spec.flame_base
        fw, fh = spec.flame_size
        margin = int(spec.sway_amp + 0.6 * fw + 6)
        x0 = max(0, fx - margin)
        y0 = max(0, fy - fh - 10)
        return (x0, y0, 2 * margin, fh + 16)
