"""Built-in sanity run: oracle spot checks plus a miniature end-to-end
detection on the synthetic scene. Prints one PASS/FAIL line per check."""

import tempfile
import time
from pathlib import Path

import numpy as np

from . import codebook as cb
from .features import SamplingPlan
from .frameio import write_ppm
from .imaging import integral_window
from .pipeline import DetectionPipeline, PipelineConfig, train_codebook, train_model
from .synth import SceneSpec, SyntheticScene, fire_patch, nonfire_patch


def _check(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    return bool(ok)


# [r0, r1) x [c0, c1) windows of a 16x16 frame's 17x17 integral table: at
# the origin, away from it, at the right edge and at the bottom edge
_INTEGRAL_WINDOWS = ((0, 6, 0, 9), (5, 12, 3, 10), (2, 9, 11, 17), (11, 17, 4, 13))


def _integral_check(rng):
    """Cells of the integral-table windows that detection reads
    (`integral_window`) against brute-force sums of the pixels."""
    px = rng.integers(0, 256, (16, 16)).astype(np.float64)
    for r0, r1, c0, c1 in _INTEGRAL_WINDOWS:
        t = integral_window(px, r0, r1, c0, c1)
        for r in range(r0, r1):
            for c in range(c0, c1):
                if t[r - r0, c - c0] != px[:r, :c].sum():
                    return False
    return True


def _nn_index_check(rng):
    pts = rng.normal(size=(200, 16))
    idx = cb.NNIndex(pts)
    queries = rng.normal(size=(30, 16))
    for q, got in zip(queries, idx.query_batch(queries, 5)[0]):
        d2 = ((pts - q) ** 2).sum(axis=1)
        want = np.lexsort((np.arange(200), d2))[:5]
        if not np.array_equal(got, want):
            return False
    return True


def run_selftest(quick: bool = False) -> int:
    rng = np.random.default_rng(1234)
    ok = True
    ok &= _check("integral-table windows vs brute-force sums", _integral_check(rng))
    ok &= _check("NN index vs linear scan", _nn_index_check(rng))

    n_patch = 20 if quick else 60
    frames = 180 if quick else 260
    k = 64 if quick else 128
    spec = SceneSpec(seed=11, flame_onset=60)
    scene = SyntheticScene(spec)

    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fire_dir = tmp / "fire"
        non_dir = tmp / "nonfire"
        fire_dir.mkdir()
        non_dir.mkdir()
        for i in range(n_patch):
            write_ppm(fire_dir / f"{i:06d}.ppm", fire_patch(i).pixels)
            write_ppm(non_dir / f"{i:06d}.ppm", nonfire_patch(i).pixels)
        plan = SamplingPlan()
        book = train_codebook(
            [fire_dir, non_dir], plan, k=k, iterations=20, seed=3,
            out_path=tmp / "cb.pvcb", log=None,
        )
        model, report = train_model(
            fire_dir, non_dir, book, seed=3, out_path=tmp / "model.pvsm", log=None,
        )
        ok &= _check(
            "synthetic patch classifier held-out accuracy >= 0.9",
            report.held_out_accuracy >= 0.9,
            f"accuracy {report.held_out_accuracy:.3f}",
        )

        config = PipelineConfig(
            codebook_path=str(tmp / "cb.pvcb"),
            model_path=str(tmp / "model.pvsm"),
            decision_stride=1,
            warmup=20,
        ).validate()
        pipeline = DetectionPipeline(config)
        alarms = list(pipeline.run(scene.frames(frames), "selftest"))
        fx, fy, fw, fh = scene.flame_region()
        in_region = [
            a for a in alarms
            if fx <= a.bbox[0] <= fx + fw and a.frame_index >= spec.flame_onset
        ]
        ok &= _check(
            "flame alarm raised within 50 frames of onset",
            any(a.frame_index <= spec.flame_onset + 50 for a in in_region),
            f"{len(alarms)} alarm(s)",
        )
        ok &= _check(
            "no alarms outside the flame region",
            len(in_region) == len(alarms),
        )
    print(f"selftest completed in {time.time() - t0:.1f}s")
    return 0 if ok else 1
