import time
from dataclasses import fields, replace

import numpy as np
import pytest

from pyrovigil.errors import ConfigError, DataError
from pyrovigil.features import SamplingPlan
from pyrovigil.frameio import write_ppm
from pyrovigil.imaging import ColorSpace, Frame
from pyrovigil.pipeline import (
    AlarmEvent,
    DetectionPipeline,
    EvalReport,
    PipelineConfig,
    SectionLabel,
    evaluate,
    evaluate_sections,
    format_alarm,
    parse_alarm_log,
    parse_labels,
    train_codebook,
    train_model,
    write_alarm_log,
)
from pyrovigil.synth import (
    SceneSpec,
    SyntheticScene,
    blue_noise_patch,
    fire_patch,
    red_noise_patch,
)


class TestConfig:
    def test_parse_full_file(self, tmp_path, synth_artifacts):
        cfg_text = f"""
# detection settings
codebook={synth_artifacts['codebook_path']}
model={synth_artifacts['model_path']}
camera=static
decision_stride=3
interval=9
scales=9,12
m=8
ladder=220,190,160
t1=0.2
t2=0.5
"""
        path = tmp_path / "pipe.cfg"
        path.write_text(cfg_text)
        cfg = PipelineConfig.from_file(path)
        assert cfg.decision_stride == 3
        assert cfg.scales == (9, 12)
        assert cfg.m == 8
        assert cfg.t1 == 0.2 and cfg.t2 == 0.5

    def test_preset_thresholds(self, tmp_path, synth_artifacts):
        path = tmp_path / "pipe.cfg"
        path.write_text(
            f"codebook={synth_artifacts['codebook_path']}\n"
            f"model={synth_artifacts['model_path']}\n"
            "preset=outdoor\n"
        )
        cfg = PipelineConfig.from_file(path)
        assert (cfg.t1, cfg.t2) == (0.25, 0.60)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_setting=1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            PipelineConfig.from_file(path)

    def test_missing_file_reference(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("codebook=/nonexistent.pvcb\nmodel=/nonexistent.pvsm\n")
        with pytest.raises(ConfigError, match="not found"):
            PipelineConfig.from_file(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        with pytest.raises(ConfigError, match="cannot read config"):
            PipelineConfig.from_file(path)
        path.write_bytes(b"camera=\xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            PipelineConfig.from_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("decision_stride=often\n")
        with pytest.raises(ConfigError, match="bad value"):
            PipelineConfig.from_file(path)

    def test_every_field_is_a_key(self, tmp_path, synth_artifacts):
        want = {
            "codebook_path": str(synth_artifacts["codebook_path"]),
            "model_path": str(synth_artifacts["model_path"]),
            "camera": "moving",
            "ladder": (230.0, 200.0),
            "min_blob_area": 32,
            "rho": 0.05,
            "lam": 3.5,
            "var_floor": 2.0,
            "warmup": 10,
            "stats_window": 12,
            "decision_stride": 2,
            "interval": 7,
            "scales": (9, 15),
            "m": 6,
            "t1": 0.1,
            "t2": 0.3,
            "iou_threshold": 0.5,
            "track_max_gap": 3,
            "mask_dump_dir": "masks",
            "track_log": "tracks.log",
        }
        assert set(want) == {f.name for f in fields(PipelineConfig)}
        default = PipelineConfig()
        assert all(v != getattr(default, k) for k, v in want.items())
        text = (
            f"codebook={want['codebook_path']}\nmodel={want['model_path']}\n"
            "camera=moving\nladder=230,200\nmin_blob_area=32\nrho=0.05\n"
            "lam=3.5\nvar_floor=2\nwarmup=10\nstats_window=12\n"
            "decision_stride=2\ninterval=7\nscales=9,15\nm=6\nt1=0.1\n"
            "t2=0.3\niou_threshold=0.5\n"
            "track_max_gap=3\nmask_dump_dir=masks\ntrack_log=tracks.log\n"
        )
        path = tmp_path / "pipe.cfg"
        path.write_text(text)
        cfg = PipelineConfig.from_file(path)
        assert {k: getattr(cfg, k) for k in want} == want
        for key in ("sigma", "unstable_area_inverted", "codebook_path", "model_path"):
            path.write_text(f"{text}{key}=1\n")
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                PipelineConfig.from_file(path)
        path.write_text(f"{text}preset=\n")
        with pytest.raises(ConfigError, match="bad value for preset"):
            PipelineConfig.from_file(path)

    def test_threshold_order_enforced(self, tmp_path, synth_artifacts):
        path = tmp_path / "bad.cfg"
        path.write_text(
            f"codebook={synth_artifacts['codebook_path']}\n"
            f"model={synth_artifacts['model_path']}\n"
            "t1=0.5\nt2=0.2\n"
        )
        with pytest.raises(ConfigError, match="t1"):
            PipelineConfig.from_file(path)


class TestLabelsAndAlarms:
    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "# comment\n"
            "vid1 0 200 nofire\n"
            "vid1 200 400 fire\n"
            "vid2 0 200 fire\n"
        )
        labels = parse_labels(path)
        assert len(labels) == 3
        assert labels[1] == SectionLabel("vid1", 200, 400, True)

    def test_overlapping_sections_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("v 0 200 fire\nv 100 300 nofire\n")
        with pytest.raises(DataError, match="overlap"):
            parse_labels(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("v 0 200 maybe\n")
        with pytest.raises(DataError, match="fire|nofire"):
            parse_labels(path)

    def test_bad_frame_number(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("v1 0 200 nofire\nv1 0 x fire\n")
        with pytest.raises(DataError, match=f"{path}:2: expected"):
            parse_labels(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        with pytest.raises(DataError, match="cannot read labels"):
            parse_labels(path)
        path.write_bytes(b"v 0 200 fire\n\xff\n")
        with pytest.raises(DataError, match="cannot read labels"):
            parse_labels(path)

    def test_alarm_log_roundtrip(self, tmp_path):
        alarms = [
            AlarmEvent("vid1", 123, 4, (10, 20, 30, 40), 1.23456789),
            AlarmEvent("vid2", 7, 1, (0, 0, 5, 5), -0.5),
        ]
        path = tmp_path / "alarms.log"
        write_alarm_log(alarms, path)
        assert parse_alarm_log(path) == alarms

    def test_alarm_format(self):
        a = AlarmEvent("v", 9, 2, (1, 2, 3, 4), 0.25)
        assert format_alarm(a) == "v 9 2 1,2,3,4 0.25"


class TestEvalReport:
    def test_from_counts_arithmetic(self):
        report = EvalReport.from_counts(tp=361, tn=305, fp=27, fn=81)
        assert abs(100 * report.precision - 93.04) <= 0.01
        assert abs(100 * report.recall - 81.67) <= 0.01

    def test_degenerate_no_alarms(self):
        labels = [SectionLabel("v", 0, 200, False), SectionLabel("v", 200, 400, False)]
        report = evaluate_sections([], labels)
        assert report.precision is None
        assert report.recall is None
        assert report.fp == 0 and report.tn == 2
        table = report.format_table()
        assert "n/a" in table

    def test_table_rows(self):
        table = EvalReport.from_counts(361, 305, 27, 81).format_table()
        assert "True positive   361" in table.replace("  ", " ").replace("  ", " ") or "361" in table
        assert "93.04%" in table
        assert "81.67%" in table

    def test_sectioning(self):
        labels = [
            SectionLabel("v", 0, 200, False),
            SectionLabel("v", 200, 400, True),
            SectionLabel("w", 0, 200, True),
        ]
        alarms = [AlarmEvent("v", 250, 1, (0, 0, 1, 1), 1.0)]
        report = evaluate_sections(alarms, labels)
        assert (report.tp, report.tn, report.fp, report.fn) == (1, 1, 0, 1)

    def test_alarm_on_boundary_frames(self):
        labels = [SectionLabel("v", 0, 200, True), SectionLabel("v", 200, 400, True)]
        r1 = evaluate_sections([AlarmEvent("v", 199, 1, (0, 0, 1, 1), 0.1)], labels)
        assert (r1.tp, r1.fn) == (1, 1)
        r2 = evaluate_sections([AlarmEvent("v", 200, 1, (0, 0, 1, 1), 0.1)], labels)
        assert (r2.tp, r2.fn) == (1, 1)
        assert r2.per_section[1][1] is True

    def test_rerunning_on_saved_alarms_is_bitwise_stable(self, tmp_path):
        labels = [SectionLabel("v", 0, 200, True)]
        alarms = [AlarmEvent("v", 10, 1, (1, 1, 2, 2), 0.75)]
        path = tmp_path / "alarms.log"
        write_alarm_log(alarms, path)
        r1 = evaluate_sections(parse_alarm_log(path), labels)
        r2 = evaluate_sections(parse_alarm_log(path), labels)
        assert r1.format_table() == r2.format_table()


class TestCascade:
    def test_black_video_short_circuits(self, synth_artifacts):
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        pipeline = DetectionPipeline(config)
        frames = (
            Frame(np.zeros((60, 80, 3)), ColorSpace.RGB, index=i) for i in range(30)
        )
        alarms = list(pipeline.run(frames))
        assert alarms == []
        assert pipeline.stats.classifier_calls == 0
        assert pipeline.stats.frames == 30

    def test_fire_colored_static_lamp_rejected_by_temporal(self, synth_artifacts):
        # moving-camera config (no background absorption), so a static
        # fire-colored disk reaches the classifier every frame; the
        # temporal stage must reject it as rigid
        spec = SceneSpec(
            seed=5, with_flame=False, with_car=False, with_lamp=False
        )
        scene = SyntheticScene(spec)
        fire_px = fire_patch(3, 64).pixels

        def frames():
            for t in range(60):
                base = scene.frame(t).pixels.copy()
                base[100:130, 150:180] = fire_px[:30, :30]
                yield Frame(base, ColorSpace.RGB, index=t)

        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
            decision_stride=1,
        ).validate()
        pipeline = DetectionPipeline(config)
        alarms = list(pipeline.run(frames()))
        assert alarms == []
        assert pipeline.stats.classifier_calls > 25  # it was classified...
        # ...but the track ended REJECTED, not confirmed

    def test_mismatched_model_codebook_fatal(self, synth_artifacts, tmp_path, rng):
        from pyrovigil.codebook import Codebook, write_codebook

        other = Codebook(rng.normal(size=(500, 88)), sigma=0.5)
        other_path = tmp_path / "other.pvcb"
        write_codebook(other, other_path)
        config = PipelineConfig(
            codebook_path=str(other_path),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        with pytest.raises(DataError, match="pairing"):
            DetectionPipeline(config)

    @pytest.mark.parametrize("sigma", [0.0, float("nan")])
    def test_codebook_sigma_not_positive_is_data_error(self, synth_artifacts, sigma):
        from pyrovigil.classifier import read_model
        from pyrovigil.codebook import read_codebook

        book = read_codebook(synth_artifacts["codebook_path"])
        book = replace(book, sigma=sigma)
        model = replace(
            read_model(synth_artifacts["model_path"]),
            codebook_fingerprint=book.fingerprint(),
        )
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        with pytest.raises(DataError, match="codebook sigma"):
            DetectionPipeline(config, codebook=book, model=model)

    @pytest.mark.parametrize("camera", ["static", "moving"])
    def test_frame_size_change_is_data_error(self, synth_artifacts, camera):
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera=camera,
        ).validate()
        pipeline = DetectionPipeline(config)
        frames = [
            Frame(np.zeros((60, 80, 3)), ColorSpace.RGB, index=0),
            Frame(np.zeros((60, 80, 3)), ColorSpace.RGB, index=1),
            Frame(np.zeros((40, 80, 3)), ColorSpace.RGB, index=2),
        ]
        with pytest.raises(DataError, match="frame 2 is 80x40"):
            list(pipeline.run(frames))

    def test_gray_frame_is_data_error(self, synth_artifacts):
        # a bright square reaches the classifier stage on the first frame
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
        ).validate()
        px = np.full((60, 80), 40.0)
        px[20:40, 30:50] = 250.0
        frames = [Frame(px, ColorSpace.GRAY, index=0)]
        with pytest.raises(DataError, match="frame 0 is gray"):
            list(DetectionPipeline(config).run(frames))

    @pytest.mark.parametrize("indices", [(0, 1, 1), (0, 5, 3)])
    def test_non_increasing_index_is_data_error(self, synth_artifacts, indices):
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        frames = [
            Frame(np.zeros((60, 80, 3)), ColorSpace.RGB, index=i) for i in indices
        ]
        with pytest.raises(DataError, match=f"frame {indices[2]} follows frame {indices[1]}"):
            list(DetectionPipeline(config).run(frames))

    @pytest.mark.parametrize("camera,start", [("static", 70), ("moving", 100)])
    def test_luma_once_per_frame(self, synth_artifacts, monkeypatch, camera, start):
        # proposal computes each frame's luma; sampling its blobs reuses it
        import pyrovigil.imaging as imaging
        import pyrovigil.proposal as proposal

        original = imaging.luma
        calls = []

        def counted(pixels):
            calls.append(pixels.shape)
            return original(pixels)

        monkeypatch.setattr(imaging, "luma", counted)
        monkeypatch.setattr(proposal, "luma", counted)
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera=camera,
            decision_stride=1,
        ).validate()
        pipeline = DetectionPipeline(config)
        list(pipeline.run(SyntheticScene(SceneSpec(seed=7)).frames(40, start)))
        assert pipeline.stats.classifier_calls > 10
        assert len(calls) == pipeline.stats.frames == 40

    def test_total_time_excludes_consumer_pauses(self, synth_artifacts):
        # the flame burns from frame 0 and is confirmed at frame 24
        spec = SceneSpec(seed=5, flame_onset=0, with_car=False, with_lamp=False)
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
            decision_stride=1,
        ).validate()
        pipeline = DetectionPipeline(config)
        pause = 0.5
        alarms = 0
        t0 = time.perf_counter()
        for _ in pipeline.run(SyntheticScene(spec).frames(30)):
            alarms += 1
            time.sleep(pause)
        wall = time.perf_counter() - t0
        assert alarms >= 1
        assert 0.0 < pipeline.stats.total_s <= wall - alarms * pause

    def test_mask_dump(self, synth_artifacts, tmp_path):
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            mask_dump_dir=str(tmp_path / "masks"),
        ).validate()
        pipeline = DetectionPipeline(config)
        frames = (
            Frame(np.zeros((40, 60, 3)), ColorSpace.RGB, index=i) for i in range(3)
        )
        list(pipeline.run(frames))
        dumped = sorted(p.name for p in (tmp_path / "masks").iterdir())
        assert dumped == ["mask_000000.pbm", "mask_000001.pbm", "mask_000002.pbm"]

    def test_alarms_reconstructable_from_track_log(self, synth_artifacts, tmp_path):
        scene = SyntheticScene(SceneSpec(seed=7, flame_onset=40))
        log_path = tmp_path / "tracks.log"
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            decision_stride=1,
            warmup=20,
            track_log=str(log_path),
        ).validate()
        pipeline = DetectionPipeline(config)
        alarms = list(pipeline.run(scene.frames(120), "log"))
        assert alarms
        rows = [line.split() for line in log_path.read_text().splitlines()]
        for a in alarms:
            history = [r for r in rows if int(r[1]) == a.track_id]
            at_alarm = [r for r in history if int(r[0]) == a.frame_index]
            assert len(history) >= 25  # a full verification window
            assert at_alarm and at_alarm[0][2] == "fire_confirmed"

    def test_track_log_format(self, synth_artifacts, tmp_path):
        spec = SceneSpec(seed=5, flame_onset=0, with_car=False, with_lamp=False)
        scene = SyntheticScene(spec)
        log_path = tmp_path / "tracks.log"
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
            decision_stride=1,
            track_log=str(log_path),
        ).validate()
        pipeline = DetectionPipeline(config)
        list(pipeline.run(scene.frames(10)))
        lines = log_path.read_text().splitlines()
        assert lines
        fields = lines[0].split()
        assert len(fields) == 9  # frame id state p a d1 d2 d3 d4
        assert sum(float(v) for v in fields[5:9]) == float(fields[4])

    @pytest.mark.parametrize(
        "camera",
        [
            "moving",
            pytest.param(
                "static",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="warm-up blindness: a flame burning through the "
                    "background warm-up is absorbed into the background",
                ),
            ),
        ],
    )
    def test_flame_from_first_frame_alarms(self, synth_artifacts, camera):
        scene = SyntheticScene(SceneSpec(seed=7, flame_onset=0))
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera=camera,
            decision_stride=1,
        ).validate()
        alarms = list(DetectionPipeline(config).run(scene.frames(150)))
        fx, fy, fw, fh = scene.flame_region()
        on_flame = [
            a for a in alarms
            if fx <= a.bbox[0] and a.bbox[0] + a.bbox[2] <= fx + fw
            and fy <= a.bbox[1] and a.bbox[1] + a.bbox[3] <= fy + fh
        ]
        assert on_flame, f"no alarm on the flame; alarms: {alarms}"


class TestDecide:
    """The decision stage on its own: one frame's blobs in, the fire blobs
    and their SVM margins out."""

    def _pipeline(self, synth_artifacts):
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        return DetectionPipeline(config)

    def test_no_blobs_no_work(self, synth_artifacts, monkeypatch):
        import pyrovigil.classifier as cl
        import pyrovigil.pipeline as pipeline_module

        def forbidden(*args, **kwargs):
            raise AssertionError("decide did work for a frame without blobs")

        monkeypatch.setattr(pipeline_module, "SampleContext", forbidden)
        monkeypatch.setattr(cl, "predict", forbidden)
        pipeline = self._pipeline(synth_artifacts)
        frame = Frame(np.zeros((60, 80, 3)), ColorSpace.RGB)
        assert pipeline.decide(frame, None, []) == ([], [])
        assert pipeline.stats.classifier_calls == 0

    @pytest.mark.parametrize("camera", ["static", "moving"])
    def test_margins_match_per_blob_oracle(self, synth_artifacts, camera):
        import pyrovigil.classifier as cl
        import pyrovigil.codebook as cb
        from pyrovigil.features import histogram_from_pixels, sample
        from pyrovigil.imaging import convert

        from test_features import _scene_blobs

        book, model = synth_artifacts["codebook"], synth_artifacts["model"]
        index = cb.NNIndex(book.centers)
        params = cb.EncoderParams(m=10, sigma=book.sigma)
        pipeline = self._pipeline(synth_artifacts)
        classified = positives = 0
        for frame, blobs, gray in _scene_blobs(camera, SceneSpec(seed=7)):
            lab = convert(frame, ColorSpace.LAB).pixels
            want_blobs, want_margins = [], []
            for blob in blobs:
                descs = sample(
                    frame, pipeline.plan, mask=blob.mask, anchor=(blob.x, blob.y)
                )
                if len(descs) == 0:
                    continue
                x, y, w, h = blob.bbox
                ghist = histogram_from_pixels(
                    lab[y : y + h, x : x + w], ColorSpace.LAB, blob.mask
                )
                row = cb.encode(descs, index, params, ghist)
                margin = float(cl.decision_function(model, row))
                classified += 1
                if margin >= 0.0:
                    want_blobs.append(blob)
                    want_margins.append(margin)
            got_blobs, got_margins = pipeline.decide(frame, gray, blobs)
            assert [id(b) for b in got_blobs] == [id(b) for b in want_blobs]
            assert np.array_equal(
                np.array(got_margins).view(np.uint64),
                np.array(want_margins).view(np.uint64),
            )
            positives += len(want_blobs)
        assert pipeline.stats.classifier_calls == classified
        assert 0 < positives < classified


def test_benchmark_trace_targets_exist(monkeypatch):
    # perfbench/tracing.py wraps these functions by name from outside; a
    # renamed or inlined target must fail here rather than silently drop
    # its span from the per-layer view
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


class TestTrainCodebook:
    def test_uniform_patch_insufficient(self, tmp_path):
        d = tmp_path / "patches"
        d.mkdir()
        write_ppm(d / "000000.ppm", np.full((64, 64, 3), 128, np.uint8))
        with pytest.raises(DataError, match="insufficient descriptors"):
            train_codebook([d], SamplingPlan(), k=50, log=None)

    def test_seed_determinism_bit_identical(self, tmp_path):
        d = tmp_path / "patches"
        d.mkdir()
        for i in range(12):
            write_ppm(d / f"{i:06d}.ppm", red_noise_patch(i, 64).pixels)
        p1, p2 = tmp_path / "a.pvcb", tmp_path / "b.pvcb"
        train_codebook([d], SamplingPlan(), k=40, iterations=10, seed=5,
                       out_path=p1, log=None)
        train_codebook([d], SamplingPlan(), k=40, iterations=10, seed=5,
                       out_path=p2, log=None)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sse_trace_monotone(self, tmp_path):
        d = tmp_path / "patches"
        d.mkdir()
        for i in range(10):
            write_ppm(d / f"{i:06d}.ppm", blue_noise_patch(i, 64).pixels)
        book = train_codebook([d], SamplingPlan(), k=10, iterations=12, seed=1,
                              log=None)
        assert np.all(np.diff(book.sse_trace) <= 1e-9)
        assert book.trained_on.startswith("patches=10;")


@pytest.fixture(scope="module")
def noise_codebook(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("noisecb")
    d = tmp / "patches"
    d.mkdir()
    for i in range(15):
        write_ppm(d / f"{i:06d}.ppm", red_noise_patch(i, 48).pixels)
        write_ppm(d / f"{i + 50:06d}.ppm", blue_noise_patch(i, 48).pixels)
    return train_codebook([d], SamplingPlan(), k=60, iterations=15, seed=2, log=None)


class TestTrainModel:
    def _noise_dirs(self, tmp_path, shuffled=False, n=20, seed=0):
        rng = np.random.default_rng(seed)
        patches = [("red", red_noise_patch(i, 48)) for i in range(n)]
        patches += [("blue", blue_noise_patch(i, 48)) for i in range(n)]
        if shuffled:
            kinds = [k for k, _ in patches]
            rng.shuffle(kinds)
            patches = [(k, p) for k, (_, p) in zip(kinds, patches)]
        fire_dir = tmp_path / "fire"
        non_dir = tmp_path / "nonfire"
        fire_dir.mkdir()
        non_dir.mkdir()
        ni = mi = 0
        for kind, patch in patches:
            if kind == "red":
                write_ppm(fire_dir / f"{ni:06d}.ppm", patch.pixels)
                ni += 1
            else:
                write_ppm(non_dir / f"{mi:06d}.ppm", patch.pixels)
                mi += 1
        return fire_dir, non_dir

    def test_separable_noise_perfect_holdout(self, tmp_path, noise_codebook):
        fire_dir, non_dir = self._noise_dirs(tmp_path)
        model, report = train_model(
            fire_dir, non_dir, noise_codebook, seed=4, log=None
        )
        assert report.held_out_accuracy == 1.0
        assert report.n_train == 32 and report.n_test == 8

    def test_shuffled_labels_near_chance(self, tmp_path, noise_codebook):
        fire_dir, non_dir = self._noise_dirs(tmp_path, shuffled=True, seed=3)
        model, report = train_model(
            fire_dir, non_dir, noise_codebook, seed=4, log=None
        )
        assert report.held_out_accuracy <= 0.65

    def test_split_is_seed_deterministic(self):
        from pyrovigil.pipeline import split_train_test

        y = np.concatenate([np.ones(20), -np.ones(20)])
        a1, b1 = split_train_test(y, seed=11)
        a2, b2 = split_train_test(y, seed=11)
        a3, b3 = split_train_test(y, seed=12)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert not np.array_equal(b1, b3)
        assert set(a1) | set(b1) == set(range(40))
        assert not set(a1) & set(b1)

    def test_too_few_patches(self, tmp_path, noise_codebook):
        fire_dir = tmp_path / "fire"
        non_dir = tmp_path / "nonfire"
        fire_dir.mkdir()
        non_dir.mkdir()
        for i in range(3):
            write_ppm(fire_dir / f"{i:06d}.ppm", red_noise_patch(i, 48).pixels)
            write_ppm(non_dir / f"{i:06d}.ppm", blue_noise_patch(i, 48).pixels)
        with pytest.raises(DataError, match="at least 5"):
            train_model(fire_dir, non_dir, noise_codebook, log=None)

    def test_each_patch_converted_to_lab_once(self, tmp_path, noise_codebook, monkeypatch):
        import pyrovigil.codebook as cb
        import pyrovigil.imaging as imaging
        from pyrovigil.pipeline import encode_patches

        fire_dir, _ = self._noise_dirs(tmp_path, n=6)
        original = imaging.rgb_to_lab
        converted = []

        def counted(px):
            converted.append(px.shape)
            return original(px)

        monkeypatch.setattr(imaging, "rgb_to_lab", counted)
        params = cb.EncoderParams(m=10, sigma=noise_codebook.sigma)
        feats, failures = encode_patches(
            fire_dir, cb.NNIndex(noise_codebook.centers), params, SamplingPlan()
        )
        assert len(feats) == 6 and failures == []
        assert converted == [(48, 48, 3)] * 6

    def test_cv_path(self, tmp_path, noise_codebook):
        fire_dir, non_dir = self._noise_dirs(tmp_path, n=15)
        model, report = train_model(
            fire_dir, non_dir, noise_codebook, cv=True, folds=3, seed=4, log=None
        )
        assert report.cv is not None
        assert report.cv.best_accuracy >= 0.9
        assert report.C == report.cv.best_c


class TestEvaluateEndToEnd:
    def test_two_video_dataset(self, synth_artifacts, tmp_path):
        # video A: 400 frames, flame from 250 -> sections nofire + fire
        # video B: 200 frames, lamp + car light only -> nofire
        root = tmp_path / "dataset"
        va = root / "vidA"
        vb = root / "vidB"
        va.mkdir(parents=True)
        vb.mkdir()
        scene_a = SyntheticScene(SceneSpec(seed=21, flame_onset=250))
        for t in range(400):
            write_ppm(va / f"{t:06d}.ppm", scene_a.frame(t).pixels)
        scene_b = SyntheticScene(SceneSpec(seed=22, with_flame=False))
        for t in range(200):
            write_ppm(vb / f"{t:06d}.ppm", scene_b.frame(t).pixels)
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text(
            "vidA 0 200 nofire\nvidA 200 400 fire\nvidB 0 200 nofire\n"
        )
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            decision_stride=1,
        ).validate()
        report, alarms = evaluate(root, config, parse_labels(labels_path))
        assert (report.tp, report.tn, report.fp, report.fn) == (1, 2, 0, 0)
        assert report.precision == 1.0 and report.recall == 1.0
        assert all(a.video_id == "vidA" for a in alarms)

    def test_missing_video_dir(self, synth_artifacts, tmp_path):
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        labels = [SectionLabel("ghost", 0, 200, True)]
        with pytest.raises(DataError, match="missing"):
            evaluate(tmp_path, config, labels)

    def test_uncovered_frames_rejected(self, synth_artifacts, tmp_path):
        root = tmp_path / "ds"
        vdir = root / "v"
        vdir.mkdir(parents=True)
        for t in range(5):
            write_ppm(vdir / f"{t:06d}.ppm", np.zeros((20, 20, 3), np.uint8))
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        labels = [SectionLabel("v", 0, 3, True)]
        with pytest.raises(DataError, match="not covered"):
            evaluate(root, config, labels)
