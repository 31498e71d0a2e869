"""Reference helpers that tests check the package against; none of them is
on a detection or training path."""

from pathlib import Path

import numpy as np

from pyrovigil.features import haar_margin
from pyrovigil.pipeline import AlarmEvent


def kernel_fits(cx, cy, scale, width, height):
    """The fit rule: a kernel placement is valid when its window plus the
    Haar margin lies fully inside the frame."""
    h = haar_margin(scale)
    x0, y0 = cx - scale // 2, cy - scale // 2
    return (
        x0 - h >= 0
        and y0 - h >= 0
        and x0 + scale - 1 + h <= width - 1
        and y0 + scale - 1 + h <= height - 1
    )


def paint_runs(shape, rows, starts, ends, labels):
    """The label image of `label_components` runs: run i paints columns
    [starts[i], ends[i]) of row rows[i] with labels[i]; 0 elsewhere."""
    image = np.zeros(shape, dtype=np.int32)
    for r, a, b, n in zip(rows, starts, ends, labels):
        image[r, a:b] = n
    return image


def corner_sum(table, x, y, w, h):
    """Sum of the w*h source rectangle with top-left (x, y), read from the
    four corners of one (h+1, w+1) integral-image plane."""
    return float(table[y + h, x + w] - table[y, x + w] - table[y + h, x] + table[y, x])


def parse_alarm_log(path):
    """AlarmEvents of an alarm log of `format_alarm` lines."""
    alarms = []
    for line in Path(path).read_text().splitlines():
        video, frame, track, bbox, margin = line.split()
        box = tuple(int(v) for v in bbox.split(","))
        alarms.append(AlarmEvent(video, int(frame), int(track), box, float(margin)))
    return alarms
