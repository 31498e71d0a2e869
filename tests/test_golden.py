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

import numpy as np
import pytest

import pyrovigil.classifier as cl
import pyrovigil.pipeline as pipeline_module
from pyrovigil.imaging import Frame
from pyrovigil.pipeline import DetectionPipeline, PipelineConfig, format_alarm
from pyrovigil.synth import SceneSpec, SyntheticScene

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


@pytest.fixture(scope="module")
def reference_frames():
    # 8-bit, as the benchmark reads the scene back from PPM files; rendered
    # once for every workload (115 MB)
    scene = SyntheticScene(SceneSpec(seed=7, flame_onset=100))
    return [
        Frame(f.pixels.astype(np.uint8), f.space, f.index)
        for f in scene.frames(SCENE_FRAMES)
    ]


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
