"""Golden replay: the trained files and the detector's outputs on the
reference scene stay bit for bit the same.

The trained-file digests and the alarm lines are those of
`perfbench/reference.json` (seed 7, `SceneSpec(seed=7, flame_onset=100)`,
500 frames, the `conftest.py` training recipe). An alarm log can stay the
same while margins drift, so each workload also pins one digest over every
classified blob's frame, bbox and margin. A change that alters outputs on
purpose updates these constants and says why for each one.
"""

import hashlib

import pytest

import pyrovigil.classifier as cl
import pyrovigil.pipeline as pipeline_module
from pyrovigil.pipeline import DetectionPipeline, PipelineConfig, format_alarm
from pyrovigil.synth import SceneSpec, SyntheticScene, fire_patch, nonfire_patch

CODEBOOK_SHA256 = "42aad5a2deb104f23db9902b920452ed2de822285fd33cc334d15c6b52365620"
MODEL_SHA256 = "7ab11b5d03ef6d1279f1310bc4535f66e484608577e677acdd025b0721e47439"
SCENE_FRAMES = 500

# workload -> (camera, decision_stride, alarm lines, classified-blob digest)
WORKLOADS = {
    "static_stride5": (
        "static", 5, ["scene 220 1 65,156,31,53 0.721099594"],
        "b5778da8c59abfddb45ba5e866b0844d1540ce572bd99edfc494b2f4bc1a3bd2",
    ),
    "moving_stride1": (
        "moving", 1, ["scene 124 1 66,157,29,52 0.681535266"],
        "d4222e65c2fa23f2f927f5dfe84ca29611d395738770d8dc9e548f344abaecf3",
    ),
    "static_stride1": (
        "static", 1, ["scene 124 1 66,157,29,52 0.681535266"],
        "673cda25ff5161e28db358ff937b2d75b5f76ada274b307bf3813c4a305fafe3",
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_trained_files_match_reference(synth_artifacts):
    assert _sha256(synth_artifacts["codebook_path"]) == CODEBOOK_SHA256
    assert _sha256(synth_artifacts["model_path"]) == MODEL_SHA256


# SHA-256 over the uint8 bytes of frames 0, 13, ..., 390 of
# SceneSpec(seed, flame_onset=0, flame_base): the flame burns in every
# frame, at the default base, touching the lamp, and clipped by the
# top-left and by the bottom-right corner
SCENE_PIXELS = {
    (7, None): "837b0638c754d3b8c3856b129ca709e884971f7afb91f22f017d948c879dbc6f",
    (7, (200, 120)): "2c2579cd9f64b936a24bc9d31dd813bfcf6f1784e561357e2f47108fcfaef822",
    (7, (5, 30)): "8a10b7bd2d32e2f052865dd450df68bfdb2bcb0d6105fff3ca91c372be0de9c6",
    (7, (318, 239)): "534c3bb9822e46af6b1f377fe38b44942c35ae6382549a6be39ffde744f2c960",
    (11, None): "3a64d710a98c441f6dab6d74ec37ec4de90e5ce756e40efb643edfca32966929",
    (11, (200, 120)): "6e2816220e7e50366d12986312ee56aa1215eba68c6e09915b3093704e36ecab",
    (11, (5, 30)): "7c0aed64626e711cd301e268fc2a1237c69e7d396032f91bbccee20154d18525",
    (11, (318, 239)): "6ced52c375f443d2dbea8d50cfca034bd0b25132f164871860f32a78cd579c75",
}
# SHA-256 over fire_patch(i) then nonfire_patch(i), for i < 40
PATCH_PIXELS = "0073f9ed168d5842654a3ace31d39d4d76222e59ebe917893cb3168bfbea51c6"


@pytest.mark.parametrize("seed,base", sorted(SCENE_PIXELS, key=str))
def test_scene_pixels(seed, base):
    kwargs = {} if base is None else {"flame_base": base}
    scene = SyntheticScene(SceneSpec(seed=seed, flame_onset=0, **kwargs))
    digest = hashlib.sha256()
    for t in range(0, 400, 13):
        digest.update(scene.frame(t).pixels.tobytes())
    assert digest.hexdigest() == SCENE_PIXELS[seed, base]


def test_patch_pixels():
    digest = hashlib.sha256()
    for i in range(40):
        digest.update(fire_patch(i).pixels.tobytes())
        digest.update(nonfire_patch(i).pixels.tobytes())
    assert digest.hexdigest() == PATCH_PIXELS


@pytest.fixture(scope="module")
def reference_frames():
    # rendered once for every workload (115 MB), as 8-bit frames like the
    # ones the benchmark reads back from PPM files
    return list(SyntheticScene(SceneSpec(seed=7, flame_onset=100)).frames(SCENE_FRAMES))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_scene_replay(synth_artifacts, reference_frames, monkeypatch, workload):
    camera, stride, want_alarms, want_digest = WORKLOADS[workload]
    # each classified blob: the (frame, bbox) its descriptors were sampled
    # for, then the margin the classifier gave it
    sampled, classified = [], []
    sample, predict = pipeline_module.sample, cl.predict

    def sample_recorded(frame, plan, mask, anchor, ctx):
        h, w = mask.shape
        sampled.append(f"{frame.index} {anchor[0]},{anchor[1]},{w},{h}")
        return sample(frame, plan, mask=mask, anchor=anchor, ctx=ctx)

    def predict_recorded(model, row):
        label, margin = predict(model, row)
        classified.append(f"{sampled[-1]} {float(margin).hex()}\n")
        return label, margin

    monkeypatch.setattr(pipeline_module, "sample", sample_recorded)
    monkeypatch.setattr(cl, "predict", predict_recorded)
    config = PipelineConfig(
        codebook_path=str(synth_artifacts["codebook_path"]),
        model_path=str(synth_artifacts["model_path"]),
        camera=camera,
        decision_stride=stride,
    ).validate()
    pipeline = DetectionPipeline(config)
    alarms = [format_alarm(a) for a in pipeline.run(reference_frames, "scene")]
    assert pipeline.stats.frames == SCENE_FRAMES
    assert alarms == want_alarms
    assert len(classified) == pipeline.stats.classifier_calls
    assert hashlib.sha256("".join(classified).encode()).hexdigest() == want_digest
