"""Reference helpers that tests check the package against; none of them is
on a detection or training path."""

from pathlib import Path

import numpy as np

from pyrovigil.classifier import (
    KernelKind,
    _base_matrix,
    _bias,
    _class_weights,
    _smo_solve,
    stratified_folds,
)
import pyrovigil.classifier as cl
import pyrovigil.codebook as cb
from pyrovigil.features import (
    LOCAL_BINS_PER_CHANNEL,
    _gauss_weights,
    _lab_bin_params,
    _local_hist_batch,
    _subregion_lut,
    _surf_batch,
    haar_margin,
    histogram_from_pixels,
    sample_positions,
)
from pyrovigil.imaging import (
    _D65, _SRGB_TO_XYZ, _lab_f, _srgb_channel_to_linear, integral_table, rgb_to_lab,
)
from pyrovigil.pipeline import AlarmEvent
from pyrovigil.proposal import ProposalConfig, _bg_update


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


def rgb_to_lab_float(px):
    """CIELAB of (h, w, 3) sRGB values as float64 arithmetic from start to
    end: the expression `imaging.rgb_to_lab` replaced with a table lookup
    for 8-bit input, which must keep its bits."""
    px = np.asarray(px, dtype=np.float64)
    lin = _srgb_channel_to_linear(px)
    wide = lin if lin.shape[1] > 1 else np.concatenate([lin, lin], axis=1)
    xyz = (wide @ _SRGB_TO_XYZ.T)[:, : lin.shape[1]]
    fx = _lab_f(xyz[:, :, 0] / _D65[0])
    fy = _lab_f(xyz[:, :, 1] / _D65[1])
    fz = _lab_f(xyz[:, :, 2] / _D65[2])
    out = np.empty_like(px)
    out[:, :, 0] = 116.0 * fy - 16.0
    out[:, :, 1] = 500.0 * (fx - fy)
    out[:, :, 2] = 200.0 * (fy - fz)
    return out


def luma_float(px):
    """BT.601 luma of (h, w, 3) pixels widened to float64 first, in the
    operand order `imaging.luma` keeps."""
    px = np.asarray(px, dtype=np.float64)
    return px[:, :, 0] * 0.299 + px[:, :, 1] * 0.587 + px[:, :, 2] * 0.114


class BackgroundModelFloat64:
    """`proposal.BackgroundModel` in float64 from end to end: the model the
    float32 one replaced, whose foreground masks it must keep. Duck-types
    as a `ProposalEngine`'s model."""

    def __init__(self, height, width, config=ProposalConfig()):
        self.height, self.width = height, width
        self.rho, self.lam = float(config.rho), float(config.lam)
        self.var_floor = float(config.var_floor)
        self.warmup = int(config.warmup)
        self.mean = np.zeros((height, width))
        self.var = np.zeros((height, width))
        self.frames_absorbed = 0
        self._planes = tuple(np.empty((height, width)) for _ in range(3))
        self._fg = np.zeros((height, width), dtype=bool)

    def update(self, gray):
        gray = np.ascontiguousarray(np.asarray(gray, dtype=np.float64))
        if self.frames_absorbed == 0:
            self.mean[:] = gray
            self.var[:] = self.var_floor * self.var_floor
            self.frames_absorbed = 1
            self._fg.fill(False)
            return self._fg
        t = self.frames_absorbed + 1
        fg = _bg_update(
            self.mean, self.var, gray, max(self.rho, 1.0 / t), self.lam,
            self.var_floor, self.frames_absorbed < self.warmup, self._planes, self._fg,
        )
        self.frames_absorbed = t
        return fg


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


def integral_loops(gray):
    """The (h+1, w+1) integral table of a 2-d array by double loops: each
    column's running sum down the rows, then each row's running sum of
    those across, one addition at a time, in the order of the two
    cumsums of `imaging.integral_table`."""
    h, w = gray.shape
    px = np.asarray(gray, dtype=np.float64).tolist()
    down = [[0.0] * w for _ in range(h + 1)]
    for r in range(h):
        for c in range(w):
            down[r + 1][c] = down[r][c] + px[r][c]
    table = np.zeros((h + 1, w + 1))
    for r in range(1, h + 1):
        acc = 0.0
        for c in range(w):
            acc += down[r][c]
            table[r, c + 1] = acc
    return table


def decide_per_blob(pipeline, frame, gray, blobs):
    """`DetectionPipeline.decide` one blob at a time, as it ran before it
    took a frame's blobs together: SURF from the full frame's integral
    table, one LAB conversion of each blob's window, and one neighbor
    query and one encoding per blob. (fire blobs, their margins)."""
    table = integral_table(gray[np.newaxis])[0]
    plan = pipeline.plan
    largest = max(plan.scales)
    before, after = largest // 2, largest - 1 - largest // 2
    lo, inv = _lab_bin_params(LOCAL_BINS_PER_CHANNEL)
    fire, margins = [], []
    for blob in blobs:
        x0, y0 = max(0, blob.x - before), max(0, blob.y - before)
        x1 = min(frame.width, blob.x + blob.w + after)
        y1 = min(frame.height, blob.y + blob.h + after)
        lab = rgb_to_lab(frame.pixels[y0:y1, x0:x1])
        rows = [
            np.hstack([
                _surf_batch(table, cxs, cys, scale, haar_margin(scale),
                            _subregion_lut(scale), _gauss_weights(scale)),
                _local_hist_batch(lab, cxs - x0, cys - y0, scale, lo, inv),
            ])
            for scale, cxs, cys in sample_positions(frame, plan, blob.mask, (blob.x, blob.y))
            if len(cxs)
        ]
        if not rows:
            continue
        descs = np.concatenate(rows)
        box = lab[blob.y - y0 : blob.y - y0 + blob.h, blob.x - x0 : blob.x - x0 + blob.w]
        ghist = histogram_from_pixels(box, blob.mask, 1)
        row = cb.encode(descs, [len(descs)], pipeline.index, pipeline.params, ghist)[0]
        label, margin = cl.predict(pipeline.model, row)
        if label > 0:
            fire.append(blob)
            margins.append(margin)
    return fire, margins


def plusplus_seed_loop(X, k, rng):
    """k-means++ seeding as one full pass over X per chosen center: the loop
    `codebook._plusplus_seed` replaced, whose centers it must keep bit for
    bit, and so every draw from `rng`."""
    n = X.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        probs = d2 / total
        chosen[i] = int(rng.choice(n, p=probs))
        d2 = np.minimum(d2, ((X - X[chosen[i]]) ** 2).sum(axis=1))
    return X[chosen].copy()


def surf_batch_gathers(table, cxs, cys, scale, hmar, sub, weights):
    """`features._surf_batch` with one fancy-index gather of the table per
    box corner, 16 in all, and one subregion product per window: the body
    its one patch gather and its blocked products replaced, whose bits it
    must keep."""
    n = cxs.shape[0]
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

    # each window's dx, dy, |dx| and |dy| rows in a product of their own:
    # the bits a window has in a batch of any size
    out = np.empty((n, 64), dtype=np.float64)
    for i in range(n):
        comps = np.stack((dx[i], dy[i], np.abs(dx[i]), np.abs(dy[i]))).reshape(4, -1)
        out[i] = (comps @ onehot).T.ravel()  # column 4 j + c: component c, subregion j
    norms = np.sqrt((out * out).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    return out / safe[:, None]


def squared_distances_expr(X, Y):
    """`codebook.squared_distances` as the one expression it evaluates in
    blocks, floored at 0."""
    d2 = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def chi2_distance_expr(X, Y):
    """`classifier.chi2_distance_matrix` as one expression over (nx, ny, d)
    temporaries: sum((x - y)^2 / (x + y)) with 0/0 terms as 0."""
    diff = X[:, None, :] - Y[None, :, :]
    den = X[:, None, :] + Y[None, :, :]
    terms = np.where(den != 0.0, diff * diff / np.where(den == 0.0, 1.0, den), 0.0)
    return terms.sum(axis=2)


def cross_validate_cells(X, y, kind, folds, c_values, gamma_values, seed, tol, max_iter):
    """`classifier.cross_validate`'s accuracy grid as one loop per (C, gamma)
    cell, each gathering its folds' kernel blocks and fitting them by hand:
    the body that one shared fit and per-gamma blocks replaced."""
    base = _base_matrix(kind, X, X)
    fold_idx = stratified_folds(y, folds, seed)
    acc = np.zeros((len(c_values), len(gamma_values)))
    for gi, gamma in enumerate(gamma_values):
        K_full = base if kind is KernelKind.LINEAR else np.exp(-gamma * base)
        for ci, C in enumerate(c_values):
            correct = 0
            total = 0
            for f in range(folds):
                te = fold_idx[f]
                tr = np.setdiff1d(np.arange(X.shape[0]), te)
                K_tr = np.ascontiguousarray(K_full[np.ix_(tr, tr)])
                y_tr = y[tr]
                w_pos, w_neg = _class_weights(y_tr)
                Cvec = np.where(y_tr > 0, C * w_pos, C * w_neg)
                alpha, G, _, _, _ = _smo_solve(K_tr, y_tr, Cvec, tol, max_iter)
                b = _bias(alpha, y_tr, G, Cvec)
                margins = (alpha * y_tr) @ K_full[np.ix_(tr, te)] + b
                pred = np.where(margins >= 0.0, 1.0, -1.0)
                correct += int((pred == y[te]).sum())
                total += te.size
            acc[ci, gi] = correct / total
    return acc


def parse_alarm_log(path):
    """AlarmEvents of an alarm log of `format_alarm` lines."""
    alarms = []
    for line in Path(path).read_text().splitlines():
        video, frame, track, bbox, margin = line.split()
        box = tuple(int(v) for v in bbox.split(","))
        alarms.append(AlarmEvent(video, int(frame), int(track), box, float(margin)))
    return alarms
