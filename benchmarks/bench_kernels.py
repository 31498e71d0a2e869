#!/usr/bin/env python3
"""Time the numpy kernels and, when numba is active, their numba twins.

Workloads are sized to a 320x240 detection frame; the LAB conversion is
also timed on a 60x60 blob window. Each kernel is warmed once before
timing, so JIT compilation is not counted. Without numba (or with
PYROVIGIL_NO_NUMBA=1) only the numpy column is filled.

    python benchmarks/bench_kernels.py [--repeats 20]
"""

import argparse
import time

import numpy as np

from pyrovigil import accel
from pyrovigil.classifier import (
    Kernel,
    KernelKind,
    _chi2_dist_jit,
    _chi2_dist_np,
    _smo_jit,
    _smo_np,
    kernel_matrix,
)
from pyrovigil.features import (
    _gauss_weights,
    _hist96_jit,
    _hist96_np,
    _local_hist_batch_jit,
    _local_hist_batch_np,
    _subregion_lut,
    _surf_batch_jit,
    _surf_batch_np,
    haar_margin,
)
from pyrovigil.imaging import (
    ColorSpace,
    Frame,
    integral,
    _integral_jit,
    _integral_np,
    _rgb_to_lab_jit,
    _rgb_to_lab_np,
)
from pyrovigil.proposal import (
    _bg_update_jit,
    _bg_update_np,
    _open3_jit,
    _open3_np,
)

H, W = 240, 320


def build_cases(rng):
    cases = []

    rgb = rng.integers(0, 256, (H, W, 3)).astype(float)
    cases.append(("rgb_to_lab (320x240 frame)", _rgb_to_lab_jit, _rgb_to_lab_np, (rgb,)))
    window = np.ascontiguousarray(rgb[90:150, 130:190])
    cases.append(("rgb_to_lab (60x60 window)", _rgb_to_lab_jit, _rgb_to_lab_np, (window,)))

    ch = rng.integers(0, 256, (1, H, W)).astype(float)
    cases.append(("integral image", _integral_jit, _integral_np, (ch,)))

    gray = rng.integers(0, 256, (H, W)).astype(float)
    table = integral(Frame(gray, ColorSpace.GRAY)).table[0]
    n_pos = 600
    cxs = rng.integers(10, W - 10, n_pos).astype(np.int64)
    cys = rng.integers(10, H - 10, n_pos).astype(np.int64)
    scale = 9
    cases.append((
        "surf batch (600 kernels)",
        _surf_batch_jit, _surf_batch_np,
        (table, cxs, cys, scale, haar_margin(scale), _subregion_lut(scale),
         _gauss_weights(scale)),
    ))

    lab = np.dstack([
        rng.uniform(0, 100, (H, W)),
        rng.uniform(-128, 127, (H, W)),
        rng.uniform(-128, 127, (H, W)),
    ])
    lo = np.array([0.0, -128.0, -128.0])
    inv = np.array([8 / 100.0, 8 / 255.0, 8 / 255.0])
    cases.append((
        "local color hists (600)",
        _local_hist_batch_jit, _local_hist_batch_np,
        (lab, cxs, cys, scale, lo, inv),
    ))

    values = np.ascontiguousarray(rng.uniform(0, 255, (H * W, 3)))
    lo96 = np.zeros(3)
    inv96 = np.full(3, 32 / 255.0)
    cases.append(("global hist binning", _hist96_jit, _hist96_np, (values, lo96, inv96)))

    Xs = rng.normal(size=(300, 60))
    ys = np.where(Xs[:, 0] > 0, 1.0, -1.0)
    K = kernel_matrix(Kernel(KernelKind.RBF, 0.5), Xs)
    Cvec = np.full(300, 5.0)
    cases.append(("SMO solve (300 samples)", _smo_jit, _smo_np,
                  (K, ys, Cvec, 1e-3, 100_000)))

    A = rng.random((300, 596))
    B = rng.random((300, 596))
    cases.append(("chi2 distance matrix", _chi2_dist_jit, _chi2_dist_np, (A, B)))

    mean = rng.uniform(0, 255, (H, W))
    var = rng.uniform(1, 50, (H, W))
    cases.append((
        "background update",
        lambda g: _bg_update_jit(mean.copy(), var.copy(), g, 0.01, 2.5, 4.0, False),
        lambda g: _bg_update_np(mean.copy(), var.copy(), g, 0.01, 2.5, 4.0, False),
        (gray,),
    ))

    mask = np.ascontiguousarray(rng.random((H, W)) > 0.6)
    cases.append(("morphological open 3x3", _open3_jit, _open3_np, (mask,)))
    return cases


def bench(fn, args, repeats):
    fn(*args)  # warm-up (JIT compile / cache load)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=10)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    cases = build_cases(rng)
    name_w = max(len(c[0]) for c in cases)
    print(f"{'kernel':<{name_w}}  {'numpy ms':>10}  {'numba ms':>10}  {'speedup':>8}")
    print("-" * (name_w + 34))
    for name, jit_fn, np_fn, fargs in cases:
        t_np = bench(np_fn, fargs, args.repeats) * 1e3
        if not accel.NUMBA_ACTIVE:
            # the "twin" is then the plain-Python loop: not worth timing
            print(f"{name:<{name_w}}  {t_np:>10.3f}  {'-':>10}  {'-':>8}")
            continue
        t_jit = bench(jit_fn, fargs, args.repeats) * 1e3
        print(f"{name:<{name_w}}  {t_np:>10.3f}  {t_jit:>10.3f}  {t_np / t_jit:>7.1f}x")


if __name__ == "__main__":
    main()
