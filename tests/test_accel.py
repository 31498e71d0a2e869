"""Numba kernels and their numpy fallbacks must agree. These tests pit
each pair against each other on random inputs; they are skipped when the
numpy path is the only one available."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pyrovigil import accel

pytestmark = pytest.mark.skipif(
    not accel.NUMBA_ACTIVE, reason="numba path disabled or unavailable"
)


def test_rgb_to_lab_paths_agree(rng):
    from pyrovigil.imaging import _rgb_to_lab_jit, _rgb_to_lab_np

    px = rng.integers(0, 256, (31, 17, 3)).astype(float)
    assert np.allclose(_rgb_to_lab_jit(px), _rgb_to_lab_np(px), atol=1e-12)


def test_integral_paths_agree(rng):
    from pyrovigil.imaging import _integral_jit, _integral_np

    ch = rng.integers(0, 256, (3, 23, 29)).astype(float)
    assert np.array_equal(_integral_jit(ch), _integral_np(ch))


def test_surf_batch_paths_agree(rng):
    from pyrovigil.features import (
        _gauss_weights,
        _subregion_lut,
        _surf_batch_jit,
        _surf_batch_np,
        haar_margin,
    )
    from pyrovigil.imaging import ColorSpace, Frame, integral

    px = rng.integers(0, 256, (50, 60)).astype(float)
    table = integral(Frame(px, ColorSpace.GRAY)).table[0]
    cxs = rng.integers(10, 50, 40).astype(np.int64)
    cys = rng.integers(10, 40, 40).astype(np.int64)
    for scale in (9, 12):
        args = (table, cxs, cys, scale, haar_margin(scale),
                _subregion_lut(scale), _gauss_weights(scale))
        assert np.allclose(_surf_batch_jit(*args), _surf_batch_np(*args), atol=1e-10)


def test_local_hist_paths_agree(rng):
    from pyrovigil.features import _lab_bin_params, _local_hist_batch_jit, _local_hist_batch_np

    lab = rng.uniform(-120, 120, (40, 40, 3))
    lab[:, :, 0] = rng.uniform(0, 100, (40, 40))
    cxs = rng.integers(0, 40, 25).astype(np.int64)
    cys = rng.integers(0, 40, 25).astype(np.int64)
    lo, inv = _lab_bin_params()
    a = _local_hist_batch_jit(lab, cxs, cys, 9, lo, inv)
    b = _local_hist_batch_np(lab, cxs, cys, 9, lo, inv)
    assert np.allclose(a, b, atol=1e-12)


def test_hist96_paths_agree(rng):
    from pyrovigil.features import _hist96_jit, _hist96_np

    values = np.ascontiguousarray(rng.uniform(0, 255, (500, 3)))
    lo = np.zeros(3)
    inv = np.full(3, 32 / 255.0)
    assert np.array_equal(_hist96_jit(values, lo, inv), _hist96_np(values, lo, inv))


def test_smo_paths_agree(rng):
    from pyrovigil.classifier import Kernel, KernelKind, _smo_jit, _smo_np, kernel_matrix

    X = rng.normal(size=(50, 6))
    y = np.where(X[:, 0] + 0.2 * rng.normal(size=50) > 0, 1.0, -1.0)
    y[:2], y[2:4] = 1.0, -1.0
    K = kernel_matrix(Kernel(KernelKind.RBF, 0.8), X)
    Cvec = np.full(50, 2.0)
    aj, gj, itj, vj, tj = _smo_jit(K, y, Cvec, 1e-3, 10_000)
    an, gn, itn, vn, tn = _smo_np(K, y, Cvec, 1e-3, 10_000)
    assert itj == itn
    assert np.allclose(aj, an, atol=1e-10)
    assert np.allclose(tj, tn, atol=1e-9)


def test_chi2_paths_agree(rng):
    from pyrovigil.classifier import _chi2_dist_jit, _chi2_dist_np

    X = rng.random((30, 40))
    Y = rng.random((25, 40))
    assert np.allclose(_chi2_dist_jit(X, Y), _chi2_dist_np(X, Y), atol=1e-12)


def test_bg_update_paths_agree(rng):
    from pyrovigil.proposal import _bg_update_jit, _bg_update_np

    gray = rng.uniform(0, 255, (30, 40))
    mean1 = rng.uniform(0, 255, (30, 40))
    var1 = rng.uniform(1, 50, (30, 40))
    mean2, var2 = mean1.copy(), var1.copy()
    f1 = _bg_update_jit(mean1, var1, gray, 0.05, 2.5, 4.0, False)
    f2 = _bg_update_np(mean2, var2, gray, 0.05, 2.5, 4.0, False)
    assert np.array_equal(f1, f2)
    assert np.allclose(mean1, mean2, atol=1e-12)
    assert np.allclose(var1, var2, atol=1e-12)


def test_morphology_paths_agree(rng):
    from pyrovigil.proposal import _open3_jit, _open3_np

    mask = np.ascontiguousarray(rng.random((40, 50)) > 0.45)
    assert np.array_equal(_open3_jit(mask), _open3_np(mask))


def test_env_flag_selects_numpy_path():
    code = (
        "from pyrovigil import accel; "
        "from pyrovigil import features; "
        "print(accel.NUMBA_ACTIVE, features._surf_batch is features._surf_batch_np)"
    )
    env = dict(os.environ, PYROVIGIL_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
