"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6 is the
full synthetic end-to-end (scene generation, training, detection) and
dominates the runtime; everything else is property-based and fast.
"""

import time

import numpy as np

from pyrovigil import codebook as cb
from pyrovigil import classifier as cl
from pyrovigil.features import SamplingPlan, histogram_from_pixels, lab_bin_keys
from pyrovigil.frameio import write_ppm
from pyrovigil.imaging import ColorSpace, Frame, convert, integral
from pyrovigil.pipeline import (
    DetectionPipeline,
    EvalReport,
    PipelineConfig,
    format_alarm,
    train_codebook,
    train_model,
)
from pyrovigil.synth import SceneSpec, SyntheticScene, fire_patch, nonfire_patch
from pyrovigil.temporal import (
    Stability,
    StabilityThresholds,
    Tracker,
    TrackState,
    classify_stability,
    spatial_distribution,
    window_stats,
)
from pyrovigil.proposal import extract_blobs

from oracles import corner_sum
from test_codebook import brute_force_nn, encode_oracle
from test_temporal import (
    GAP,
    IOU,
    flame_band_blobs,
    flame_band_samples,
    samples_of,
    square_blob,
    verdict_frame,
)


def _report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[PASS] {name}{suffix}")


def test_criterion_1_metric_arithmetic():
    report = EvalReport(tp=361, tn=305, fp=27, fn=81)
    precision_pct = 100.0 * report.precision
    recall_pct = 100.0 * report.recall
    assert abs(precision_pct - 93.04) <= 0.01
    assert abs(recall_pct - 81.67) <= 0.01
    table = report.format_table()
    assert "93.04%" in table and "81.67%" in table
    _report(
        "criterion 1: metric arithmetic",
        f"precision {precision_pct:.4f}%, recall {recall_pct:.4f}%",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # NN index vs linear scan: 500 centers, 200 random 88-dim queries
    centers = rng.normal(size=(500, 88))
    nn = cb.NNIndex(centers)
    for _ in range(200):
        q = rng.normal(size=88)
        (got_i,), (got_d,) = nn.query_batch(q[None], 10)
        want_i, want_d = brute_force_nn(centers, q, 10)
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_d, want_d)

    # integral-image rectangle sums vs double loops, exact
    px = rng.integers(0, 256, (24, 31)).astype(float)
    ii = integral(Frame(px, ColorSpace.GRAY))
    for _ in range(50):
        x, y = int(rng.integers(0, 31)), int(rng.integers(0, 24))
        w = int(rng.integers(0, 31 - x + 1))
        h = int(rng.integers(0, 24 - y + 1))
        brute = 0.0
        for yy in range(y, y + h):
            for xx in range(x, x + w):
                brute += px[yy, xx]
        assert corner_sum(ii.table[0], x, y, w, h) == brute

    # soft-assignment encoding vs linear-scan accumulation
    centers10 = rng.normal(size=(10, 88))
    nn10 = cb.NNIndex(centers10)
    D = rng.normal(size=(5, 88))
    [got] = cb.raw_bow_histogram(D, [5], nn10, cb.EncoderParams(m=3, sigma=0.8))
    want = encode_oracle(D, centers10, 3, 0.8)
    assert np.allclose(got, want, atol=1e-9)

    _report("criterion 2: oracle equivalence suite", f"{time.perf_counter() - t0:.2f}s")


def test_criterion_3_svm_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)

    # analytic 2-point case
    X = np.array([[1.0, 0.5], [-1.0, -0.5]])
    y = np.array([1.0, -1.0])
    model = cl.train(X, y, kernel=cl.Kernel(cl.KernelKind.LINEAR), C=1e4)
    margins = cl.decision_function(model, X)
    assert abs(margins[0] - 1.0) <= 1e-6 and abs(margins[1] + 1.0) <= 1e-6
    assert model.support_vectors.shape[0] == 2

    # XOR with RBF: 100% training accuracy
    Xx = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    yx = np.array([1.0, 1.0, -1.0, -1.0])
    mx = cl.train(Xx, yx, kernel=cl.Kernel(cl.KernelKind.RBF, 1.0), C=10.0)
    assert all(cl.predict(mx, xi)[0] == yi for xi, yi in zip(Xx, yx))

    # dual objective monotone non-decreasing on every iteration
    Xr = rng.normal(size=(60, 8))
    yr = np.where(Xr[:, 0] + 0.5 * rng.normal(size=60) > 0, 1.0, -1.0)
    yr[:2], yr[2:4] = 1.0, -1.0
    mr = cl.train(Xr, yr, kernel=cl.Kernel(cl.KernelKind.RBF, 0.5), C=5.0)
    assert np.all(np.diff(mr.objective_trace) >= -1e-9)

    # Gram PSD spot check
    G = cl.kernel_matrix(cl.Kernel(cl.KernelKind.RBF, 1.5), rng.random((20, 10)))
    assert np.linalg.eigvalsh(G).min() >= -1e-8

    _report("criterion 3: SVM correctness", f"{time.perf_counter() - t0:.2f}s")


def test_criterion_4_normalization_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    centers = rng.normal(size=(120, 88))
    nn = cb.NNIndex(centers)
    params = cb.EncoderParams(m=10, sigma=0.7)
    for trial in range(100):
        img = rng.integers(0, 256, (20, 24, 3)).astype(np.uint8)
        lab = convert(Frame(img, ColorSpace.RGB))
        hist = histogram_from_pixels(lab_bin_keys(lab), np.ones((20, 24), dtype=bool), 1)
        assert abs(hist.sum() - 3.0) <= 1e-9
        n = int(rng.integers(1, 60))
        D = rng.normal(size=(n, 88))
        raw = cb.raw_bow_histogram(D, [n], nn, params)
        assert abs(raw.sum() - n) <= 1e-9
        bow = cb.encode(D, [n], nn, params, hist)[0, :120]
        assert abs(bow.sum() - 1.0) <= 1e-9
        assert (bow >= 0).all()
    _report(
        "criterion 4: normalization invariants",
        f"100 random blobs, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_5_temporal_logic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)

    # constant blob: STABLE for any t1 > 0, and the tracker rejects it
    for t1 in (1e-9, 1e-3, 0.1, 0.9):
        th = StabilityThresholds(t1, t1 * 2)
        window = [(60.0, 300.0, 75.0, 75.0, 75.0, 75.0)] * 25
        assert classify_stability(*window_stats(window), th) is Stability.STABLE
        tracker = Tracker(th, IOU, GAP)
        assert verdict_frame(tracker, [square_blob(20, 20, 12)] * 25) == (None, [])
        assert tracker.tracks[0].state is TrackState.REJECTED

    # strict-inequality boundaries
    th = StabilityThresholds(0.15, 0.5)
    assert classify_stability(1.0, 0.15, 1.0, 0.0, 0.0, th) is not Stability.STABLE
    assert classify_stability(1.0, 0.15 - 1e-12, 1.0, 0.0, 0.0, th) is Stability.STABLE
    assert classify_stability(1.0, 0.0, 1.0, 0.5, 0.0, th) is not Stability.UNSTABLE
    assert (
        classify_stability(1.0, 0.0, 1.0, 0.5 + 1e-12, 0.0, th) is Stability.UNSTABLE
    )

    # a 25-frame window in the flame band confirms fire: the hand-built
    # one and the one a tracker holds after flickering blobs
    th = StabilityThresholds(0.15, 0.40)
    for window in (flame_band_samples(), samples_of(flame_band_blobs())):
        assert classify_stability(*window_stats(window), th) is Stability.UNDECIDED
    tracker = Tracker(th, IOU, GAP)
    first, confirmed = verdict_frame(tracker, flame_band_blobs())
    assert first == 24 and confirmed == tracker.tracks
    assert confirmed[0].state is TrackState.FIRE_CONFIRMED

    # quadrant counts partition the area for arbitrary blobs
    for _ in range(50):
        m = rng.random((int(rng.integers(2, 15)), int(rng.integers(2, 15)))) > 0.45
        for blob in extract_blobs(m, min_area=1):
            assert sum(spatial_distribution(blob)) == blob.area

    _report("criterion 5: temporal logic", f"{time.perf_counter() - t0:.2f}s")


def test_criterion_6_end_to_end_synthetic(synth_artifacts):
    t0 = time.perf_counter()
    spec = SceneSpec(seed=7, flame_onset=100)
    scene = SyntheticScene(spec)
    config = PipelineConfig(
        codebook_path=str(synth_artifacts["codebook_path"]),
        model_path=str(synth_artifacts["model_path"]),
        decision_stride=1,  # every frame decides: the 25-sample window
        # fills within 25 frames of first detection
    ).validate()
    assert synth_artifacts["train_report"].held_out_accuracy == 1.0
    pipeline = DetectionPipeline(config)
    alarms = list(pipeline.run(scene.frames(500), "acceptance"))

    fx, fy, fw, fh = scene.flame_region()
    assert alarms, "expected at least one alarm on the flame"
    for a in alarms:
        ax, ay, aw, ah = a.bbox
        assert a.frame_index >= spec.flame_onset, "alarm before flame onset"
        assert fx <= ax and ax + aw <= fx + fw and fy <= ay and ay + ah <= fy + fh, (
            f"alarm bbox {a.bbox} outside the flame region: lamp or car light"
        )
    assert min(a.frame_index for a in alarms) <= spec.flame_onset + 50
    elapsed = time.perf_counter() - t0 + synth_artifacts["train_seconds"]
    _report(
        "criterion 6: end-to-end synthetic",
        f"first alarm {min(a.frame_index for a in alarms) - spec.flame_onset} "
        f"frames after onset, {elapsed:.1f}s including training",
    )


def test_criterion_7_realtime_throughput(synth_artifacts):
    spec = SceneSpec(seed=19, flame_onset=20)
    scene = SyntheticScene(spec)
    frames = [scene.frame(t) for t in range(120)]
    config = PipelineConfig(
        codebook_path=str(synth_artifacts["codebook_path"]),
        model_path=str(synth_artifacts["model_path"]),
        decision_stride=5,
    ).validate()
    pipeline = DetectionPipeline(config)
    list(pipeline.run(frames[:10], "warmup"))  # warm caches before timing
    t0 = time.perf_counter()
    list(pipeline.run(frames, "fps"))
    elapsed = time.perf_counter() - t0
    fps = len(frames) / elapsed
    assert fps >= 15.0, f"only {fps:.1f} fps on 320x240"
    _report("criterion 7: real-time throughput", f"{fps:.1f} fps at 320x240")


def test_criterion_8_determinism(synth_artifacts, tmp_path):
    # bit-identical codebook + model files from two identically-seeded
    # training runs, and bit-identical alarm logs from two detections
    fire_dir = tmp_path / "fire"
    non_dir = tmp_path / "nonfire"
    fire_dir.mkdir()
    non_dir.mkdir()
    for i in range(30):
        write_ppm(fire_dir / f"{i:06d}.ppm", fire_patch(i + 500).pixels)
        write_ppm(non_dir / f"{i:06d}.ppm", nonfire_patch(i + 500).pixels)

    paths = []
    for run in ("one", "two"):
        cb_path = tmp_path / f"cb_{run}.pvcb"
        model_path = tmp_path / f"model_{run}.pvsm"
        book = train_codebook(
            [fire_dir, non_dir], SamplingPlan(), k=128, iterations=15, seed=17,
            out_path=cb_path, log=None,
        )
        train_model(
            fire_dir, non_dir, book, seed=17, out_path=model_path, log=None
        )
        paths.append((cb_path, model_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    scene = SyntheticScene(SceneSpec(seed=7, flame_onset=60))
    config = PipelineConfig(
        codebook_path=str(paths[0][0]),
        model_path=str(paths[0][1]),
        decision_stride=1,
    ).validate()
    logs = []
    for run in ("one", "two"):
        pipeline = DetectionPipeline(config)
        alarms = list(pipeline.run(scene.frames(150), "det"))
        log_path = tmp_path / f"alarms_{run}.log"
        log_path.write_text("".join(format_alarm(a) + "\n" for a in alarms))
        logs.append(log_path.read_bytes())
    assert logs[0] == logs[1]
    _report("criterion 8: determinism", "codebook, model, alarm log bit-identical")
