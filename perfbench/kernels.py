"""Kernel layer view: each hot numpy kernel timed on its own, with inputs
of the sizes a 320x240 frame gives (the cases of
``benchmarks/bench_kernels.py``, which needs numba and so cannot run on
the numpy path).

Each value is the median wall time of one call, in ms, under the name of
the module the kernel lives in.
"""

import statistics
from time import perf_counter

import numpy as np

H, W = 240, 320
MIN_REPEATS = 3
MAX_REPEATS = 9
BUDGET_S = 1.0  # per kernel, after the untimed first call


def _cases(rng):
    from pyrovigil import classifier, codebook, features, imaging, proposal

    mask = np.ascontiguousarray(rng.random((H, W)) > 0.6)
    gray = rng.integers(0, 256, (H, W)).astype(np.float64)
    rgb = rng.integers(0, 256, (H, W, 3)).astype(np.float64)
    model = proposal.BackgroundModel(H, W)
    model.update(rng.uniform(0, 255, (H, W)))
    model.frames_absorbed = model.warmup + 1  # past warm-up: full update rule

    table = imaging.integral(imaging.Frame(gray, imaging.ColorSpace.GRAY)).table[0]
    cxs = rng.integers(10, W - 10, 600).astype(np.int64)
    cys = rng.integers(10, H - 10, 600).astype(np.int64)
    scale = 9
    lab = np.dstack([
        rng.uniform(0, 100, (H, W)),
        rng.uniform(-128, 127, (H, W)),
        rng.uniform(-128, 127, (H, W)),
    ])
    lo = np.array([0.0, -128.0, -128.0])
    inv = np.array([8 / 100.0, 8 / 255.0, 8 / 255.0])
    centers = rng.normal(size=(500, 88))
    queries = rng.normal(size=(500, 88))
    nn_index = codebook.NNIndex(centers)
    xs = rng.normal(size=(300, 60))
    ys = np.where(xs[:, 0] > 0, 1.0, -1.0)
    gram = classifier.kernel_matrix(classifier.Kernel(classifier.KernelKind.RBF, 0.5), xs)
    cvec = np.full(300, 5.0)
    hist_a = rng.random((300, 596))
    hist_b = rng.random((300, 596))

    def surf_batch():
        return features._surf_batch(
            table, cxs, cys, scale, features.haar_margin(scale),
            features._subregion_lut(scale), features._gauss_weights(scale),
        )

    return (
        ("proposal.kernel_label_ms", lambda: proposal.label_components(mask)),
        ("proposal.kernel_open3_ms", lambda: proposal.binary_open3(mask)),
        ("proposal.kernel_bg_update_ms", lambda: model.update(gray)),
        ("imaging.kernel_rgb_to_lab_ms", lambda: imaging.rgb_to_lab(rgb)),
        ("imaging.kernel_integral_ms", lambda: imaging.integral_table(gray[None])),
        ("features.kernel_surf_batch_ms", surf_batch),
        ("features.kernel_local_hist_ms",
         lambda: features._local_hist_batch(lab, cxs, cys, scale, lo, inv)),
        ("codebook.kernel_nn_query_ms", lambda: nn_index.query_batch(queries, 10)),
        ("classifier.kernel_smo_ms",
         lambda: classifier._smo_solve(gram, ys, cvec, 1e-3, 100_000)),
        ("classifier.kernel_chi2_ms",
         lambda: classifier.chi2_distance_matrix(hist_a, hist_b)),
    )


def kernel_metrics(seed):
    """{metric name: median ms per call} for every kernel case."""
    out = {}
    for name, call in _cases(np.random.default_rng(seed)):
        call()
        times = []
        spent = 0.0
        while len(times) < MAX_REPEATS and (len(times) < MIN_REPEATS or spent < BUDGET_S):
            t0 = perf_counter()
            call()
            times.append(perf_counter() - t0)
            spent += times[-1]
        out[name] = statistics.median(times) * 1e3
    return out
