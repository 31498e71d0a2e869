import io
import json
import time
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from pyrovigil.codebook import Codebook
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
    check_dataset,
    evaluate_clips,
    evaluate_sections,
    format_alarm,
    parse_labels,
    train_codebook,
    train_model,
)
from pyrovigil.proposal import ProposalConfig
from pyrovigil.synth import SceneSpec, SyntheticScene, fire_patch

from noise_patches import blue_noise_patch, red_noise_patch
from oracles import decide_per_blob, parse_alarm_log


def _trace_records(trace):
    return [json.loads(line) for line in trace.getvalue().splitlines()]


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
            "track_max_gap=3\n"
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


# Settings that crashed the library path, or silently stopped detection
# from ever alarming: each is refused when its config is built.
BAD_SETTINGS = [
    ("camera", "ptz"),
    ("rho", 0.0),
    ("rho", 2.0),
    ("stats_window", 0),
    ("ladder", (300.0,)),  # every rung above 8-bit intensity: no blob
    ("ladder", ()),
    ("lam", -1.0),  # every pixel foreground: background subtraction off
    ("lam", 0.0),
    ("lam", float("nan")),  # no pixel foreground: no blob
    ("var_floor", float("nan")),
    ("warmup", -3),  # silently no warm-up
    ("min_blob_area", -5),  # silently an area of 1
    ("decision_stride", 0),
    ("track_max_gap", 0),
    ("iou_threshold", 0.0),
    ("iou_threshold", 1.5),  # no blob ever matches a track
    ("t1", 0.5),  # above the default t2
    ("m", 0),
    ("interval", 0),
    ("scales", (2,)),
]


@pytest.mark.parametrize("key, value", BAD_SETTINGS, ids=lambda v: str(v))
def test_bad_setting_raises_when_config_built(key, value):
    named = rf"\b{key}\b"
    with pytest.raises(ValueError, match=named):
        PipelineConfig(**{key: value})
    if key in {f.name for f in fields(ProposalConfig)}:
        with pytest.raises(ValueError, match=named):
            ProposalConfig(**{key: value})


def test_zero_warmup_and_blob_area_accepted():
    config = ProposalConfig(warmup=0, min_blob_area=0)
    assert config.scaled_min_area(320, 240) == 1


@pytest.mark.parametrize("cls", [ProposalConfig, PipelineConfig])
def test_built_config_is_frozen(cls):
    config = cls()
    with pytest.raises(FrozenInstanceError):
        config.rho = 0.5


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

    @pytest.mark.parametrize("end", [100, 99])
    def test_empty_section_rejected(self, tmp_path, end):
        path = tmp_path / "labels.txt"
        path.write_text(f"v 0 100 fire\nv 100 {end} nofire\n")
        with pytest.raises(DataError, match=f"{path}: empty section"):
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
        path.write_text("".join(format_alarm(a) + "\n" for a in alarms))
        assert parse_alarm_log(path) == alarms

    def test_alarm_format(self):
        a = AlarmEvent("v", 9, 2, (1, 2, 3, 4), 0.25)
        assert format_alarm(a) == "v 9 2 1,2,3,4 0.25"


class TestEvalReport:
    def test_from_counts_arithmetic(self):
        report = EvalReport(tp=361, tn=305, fp=27, fn=81)
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
        table = EvalReport(361, 305, 27, 81).format_table()
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

    def test_alarm_in_nofire_section_is_false_positive(self):
        labels = [
            SectionLabel("v", 0, 200, False),
            SectionLabel("v", 200, 400, True),
            SectionLabel("w", 0, 200, False),
        ]
        alarms = [
            AlarmEvent("v", 150, 1, (0, 0, 1, 1), 0.5),
            AlarmEvent("v", 300, 2, (0, 0, 1, 1), 0.5),
        ]
        report = evaluate_sections(alarms, labels)
        assert (report.tp, report.tn, report.fp, report.fn) == (1, 1, 1, 0)
        assert report.precision == 0.5 and report.recall == 1.0
        assert [predicted for _, predicted in report.per_section] == [True, True, False]
        assert "50.00%" in report.format_table()

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
        path.write_text("".join(format_alarm(a) + "\n" for a in alarms))
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
            Frame(np.zeros((60, 80, 3), np.uint8), ColorSpace.RGB, index=i) for i in range(30)
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

    def test_model_without_fingerprint_is_data_error(self, synth_artifacts, rng):
        from pyrovigil.classifier import train

        # the model takes the codebook's k + 96 features, but carries no
        # fingerprint: it is not known to pair with this codebook
        book = synth_artifacts["codebook"]
        y = np.repeat([1.0, -1.0], 5)
        model = train(rng.normal(size=(10, book.k + 96)), y)
        assert model.codebook_fingerprint is None
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        with pytest.raises(DataError, match="pairing"):
            DetectionPipeline(config, codebook=book, model=model)

    @pytest.mark.parametrize("book_dim, model_dim, message", [
        (88, 50, "model takes 50 features, but the codebook's 500 words give 596"),
        (50, 596, "codebook words are 50-dim, descriptors 88-dim"),
    ], ids=["model", "codebook"])
    def test_wrong_sized_model_or_codebook_is_data_error(
        self, synth_artifacts, rng, book_dim, model_dim, message
    ):
        from pyrovigil.classifier import train
        from pyrovigil.codebook import Codebook

        # each model carries its codebook's fingerprint, so only the sizes
        # tell the mismatch
        book = Codebook(rng.normal(size=(500, book_dim)), sigma=0.5)
        model = train(rng.normal(size=(10, model_dim)), np.repeat([1.0, -1.0], 5),
                      codebook_fingerprint=book.fingerprint())
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        with pytest.raises(DataError, match=message):
            DetectionPipeline(config, codebook=book, model=model)

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
            Frame(np.zeros((60, 80, 3), np.uint8), ColorSpace.RGB, index=0),
            Frame(np.zeros((60, 80, 3), np.uint8), ColorSpace.RGB, index=1),
            Frame(np.zeros((40, 80, 3), np.uint8), ColorSpace.RGB, index=2),
        ]
        with pytest.raises(DataError, match="frame 2 is 80x40"):
            list(pipeline.run(frames))

    def test_no_kernel_fits_first_frame_is_config_error(self, synth_artifacts):
        # a 251-pixel kernel does not fit 320x240; without the check the
        # stream ran with no blob ever classified
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
            scales=(251,),
        ).validate()
        pulled = []

        def frames():
            for frame in SyntheticScene(SceneSpec(seed=7)).frames(5):
                pulled.append(frame.index)
                yield frame

        with pytest.raises(ConfigError, match=r"scales \[251\] fits a 320x240 frame"):
            list(DetectionPipeline(config).run(frames()))
        assert pulled == [0]

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
            Frame(np.zeros((60, 80, 3), np.uint8), ColorSpace.RGB, index=i) for i in indices
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

        def counted(pixels, *planes):
            calls.append(pixels.shape)
            return original(pixels, *planes)

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

    def test_trace_on_decision_frames_only(self, synth_artifacts):
        # a record per decision frame; the background model absorbs every
        # frame, so it has seen 1 frame at frame 0 and 6 at frame 5
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            decision_stride=5,
        ).validate()
        pipeline = DetectionPipeline(config)
        frames = (
            Frame(np.zeros((40, 60, 3), np.uint8), ColorSpace.RGB, index=i) for i in range(6)
        )
        trace = io.StringIO()
        list(pipeline.run(frames, "dark", trace))
        records = _trace_records(trace)
        assert [(r["video"], r["frame"], r["bg_frames"]) for r in records] == [
            ("dark", 0, 1), ("dark", 5, 6),
        ]
        assert all(r["blobs"] == r["fire"] == r["tracks"] == [] for r in records)
        assert all(r["threshold"] == 220.0 for r in records)  # a dark scene: top rung
        assert pipeline.stats.frames == 6

    @pytest.mark.parametrize("camera", ["static", "moving"])
    def test_blobs_extracted_on_decision_frames_only(
        self, synth_artifacts, monkeypatch, camera
    ):
        # every frame is absorbed; blobs are proposed every 5th frame,
        # counted by position in the stream, not by frame index
        from pyrovigil.proposal import ProposalEngine

        calls = {"absorb": [], "propose": []}
        proposed = []
        for name in calls:
            original = getattr(ProposalEngine, name)

            def counted(engine, frame, _name=name, _original=original):
                calls[_name].append(frame.index)
                result = _original(engine, frame)
                if _name == "propose":
                    proposed.extend(result[0])
                return result

            monkeypatch.setattr(ProposalEngine, name, counted)
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera=camera,
            decision_stride=5,
        ).validate()
        pipeline = DetectionPipeline(config)
        list(pipeline.run(SyntheticScene(SceneSpec(seed=7)).frames(12, 103)))
        assert calls["propose"] == [103, 108, 113]
        assert calls["absorb"] == list(range(103, 115))
        assert pipeline.stats.frames == 12
        assert pipeline.stats.blobs_proposed == len(proposed)

    def test_track_gap_counts_decisions_not_frame_numbers(self, synth_artifacts):
        # frames numbered 0, 10, 20, ... alarm as frames numbered 0, 1, 2, ...
        # do: a track missed on one decision frame is kept, so the flame
        # alarms once, not once per track it was split into
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            decision_stride=1,
        ).validate()
        scene = SyntheticScene(SceneSpec(seed=7))
        want = [(a.frame_index * 10, a.track_id, a.bbox, a.margin)
                for a in DetectionPipeline(config).run(scene.frames(300))]
        assert [(f, t) for f, t, _, _ in want] == [(1240, 1)]
        spread = (Frame(f.pixels, ColorSpace.RGB, f.index * 10) for f in scene.frames(300))
        trace = io.StringIO()
        got = list(DetectionPipeline(config).run(spread, trace=trace))
        assert [(a.frame_index, a.track_id, a.bbox, a.margin) for a in got] == want
        at_alarm = next(r for r in _trace_records(trace) if r["frame"] == 1240)
        assert [row[:2] for row in at_alarm["tracks"]] == [[1, "fire_confirmed"]]

    def test_alarms_reconstructable_from_track_log(self, synth_artifacts):
        # the trace's track rows hold each track's history up to its verdict
        scene = SyntheticScene(SceneSpec(seed=7, flame_onset=40))
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            decision_stride=1,
            warmup=20,
        ).validate()
        pipeline = DetectionPipeline(config)
        trace = io.StringIO()
        alarms = list(pipeline.run(scene.frames(120), "log", trace))
        assert alarms
        records = _trace_records(trace)
        assert {r["video"] for r in records} == {"log"}
        for a in alarms:
            states = [
                row[1]
                for r in records if r["frame"] <= a.frame_index
                for row in r["tracks"] if row[0] == a.track_id
            ]
            assert len(states) >= 25  # a full verification window
            assert states[-1] == "fire_confirmed"
            assert set(states[:-1]) == {"pending"}
            at_alarm = next(r for r in records if r["frame"] == a.frame_index)
            assert [*a.bbox, a.margin] in at_alarm["fire"]

    def test_track_log_format(self, synth_artifacts):
        spec = SceneSpec(seed=5, flame_onset=0, with_car=False, with_lamp=False)
        scene = SyntheticScene(spec)
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
            decision_stride=1,
        ).validate()
        pipeline = DetectionPipeline(config)
        trace = io.StringIO()
        list(pipeline.run(scene.frames(10), trace=trace))
        records = _trace_records(trace)
        assert [r["frame"] for r in records] == list(range(10))
        keys = {"video", "frame", "threshold", "bg_frames", "blobs", "fire", "tracks"}
        rows = []
        for r in records:
            assert set(r) == keys
            assert r["video"] == "stream" and r["bg_frames"] is None
            assert r["threshold"] in config.ladder
            boxes = [b[:4] for b in r["blobs"]]
            assert all(len(b) == 5 and b[4] >= config.min_blob_area for b in r["blobs"])
            assert all(len(f) == 5 and f[:4] in boxes and f[4] >= 0 for f in r["fire"])
            rows += r["tracks"]
        assert sum(len(r["blobs"]) for r in records) == pipeline.stats.blobs_proposed
        assert rows
        for track_id, state, p, a, d1, d2, d3, d4 in rows:
            assert state in ("pending", "fire_confirmed", "rejected")
            assert 0 < p <= a
            assert d1 + d2 + d3 + d4 == a

    def test_untraced_run_builds_no_record(self, synth_artifacts, monkeypatch):
        import pyrovigil.pipeline as pipeline_module

        def forbidden(*args):
            raise AssertionError("a trace record was built without a trace")

        monkeypatch.setattr(pipeline_module, "_trace_record", forbidden)
        spec = SceneSpec(seed=5, flame_onset=0, with_car=False, with_lamp=False)
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
            decision_stride=1,
        ).validate()
        pipeline = DetectionPipeline(config)
        list(pipeline.run(SyntheticScene(spec).frames(5)))
        assert pipeline.stats.classifier_calls > 0
        with pytest.raises(AssertionError, match="trace record"):
            list(pipeline.run(SyntheticScene(spec).frames(5), trace=io.StringIO()))

    def test_trace_leaves_alarms_unchanged(self, synth_artifacts):
        # the flame burns from frame 0 and is confirmed at frame 24
        spec = SceneSpec(seed=5, flame_onset=0, with_car=False, with_lamp=False)
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
            camera="moving",
            decision_stride=1,
        ).validate()
        pipeline = DetectionPipeline(config)
        plain = [format_alarm(a) for a in pipeline.run(SyntheticScene(spec).frames(30))]
        trace = io.StringIO()
        traced = [
            format_alarm(a) for a in pipeline.run(SyntheticScene(spec).frames(30), trace=trace)
        ]
        assert plain and traced == plain
        assert len(_trace_records(trace)) == 30

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
        frame = Frame(np.zeros((60, 80, 3), np.uint8), ColorSpace.RGB)
        assert pipeline.decide(frame, None, []) == ([], [])
        assert pipeline.stats.classifier_calls == 0

    def test_patch_row_is_the_row_of_a_blob_covering_it(self, synth_artifacts, monkeypatch):
        # training and detection describe a region by one function: a
        # patch's training row is the row `decide` classifies for it
        import pyrovigil.classifier as cl
        from pyrovigil.frameio import frame_dir_source
        from pyrovigil.imaging import luma
        from pyrovigil.pipeline import encode_patches
        from pyrovigil.proposal import Blob

        pipeline = self._pipeline(synth_artifacts)
        rows, predict = [], cl.predict

        def predict_recorded(model, row):
            rows.append(row)
            return predict(model, row)

        monkeypatch.setattr(cl, "predict", predict_recorded)
        for name in ("fire_dir", "nonfire_dir"):
            want = encode_patches(
                synth_artifacts[name], pipeline.index, pipeline.params, pipeline.plan
            )
            rows.clear()
            for frame in frame_dir_source(synth_artifacts[name]):
                w, h = frame.width, frame.height
                blob = Blob(0, 0, w, h, w * h, 0, np.ones((h, w), dtype=bool))
                pipeline.decide(frame, luma(frame.pixels), [blob])
            assert len(rows) == len(want) == 100
            for got, row in zip(rows, want):
                assert np.array_equal(got.view(np.uint64), row.view(np.uint64))

    @pytest.mark.parametrize("camera", ["static", "moving"])
    def test_margins_match_per_blob_oracle(self, synth_artifacts, camera):
        from test_features import _scene_blobs

        pipeline = self._pipeline(synth_artifacts)
        classified = positives = 0
        for frame, blobs, gray in _scene_blobs(camera, SceneSpec(seed=7)):
            want_blobs, want_margins = decide_per_blob(pipeline, frame, gray, blobs)
            before = pipeline.stats.classifier_calls
            got_blobs, got_margins = pipeline.decide(frame, gray, blobs)
            assert [id(b) for b in got_blobs] == [id(b) for b in want_blobs]
            assert np.array_equal(
                np.array(got_margins).view(np.uint64),
                np.array(want_margins).view(np.uint64),
            )
            classified += pipeline.stats.classifier_calls - before
            positives += len(want_blobs)
        assert 0 < positives < classified

    def test_frame_batches_match_per_blob_oracle(self, synth_artifacts):
        # moving camera, seed 7: the lamp alone, then with the car light,
        # then with the flame; then a blob with no descriptor between two
        # with some, and blobs whose LAB windows and table windows overlap
        from pyrovigil.features import sample_positions
        from pyrovigil.proposal import Blob, ProposalEngine

        pipeline = self._pipeline(synth_artifacts)
        scene = SyntheticScene(SceneSpec(seed=7))
        engine = ProposalEngine(ProposalConfig("moving"), 320, 240)
        cases = {}
        for t in range(140):
            frame = scene.frame(t)
            blobs, _ = engine.propose(frame)
            if t in (20, 60, 130):
                cases[len(blobs)] = (frame, blobs, engine.gray.copy())
        assert sorted(cases) == [1, 2, 3]
        frame, blobs, gray = cases[3]
        speck = Blob(318, 0, 2, 2, 4, 0, np.ones((2, 2), dtype=bool))
        halves = []
        for blob in blobs:
            left = blob.w // 2
            for x0, x1 in ((0, left), (left, blob.w)):
                mask = blob.mask[:, x0:x1]
                if mask.any():
                    halves.append(Blob(blob.x + x0, blob.y, x1 - x0, blob.h,
                                       int(mask.sum()), 0, mask.copy()))
        # the speck sits right before the fire blob, so a fire row paired
        # with the wrong blob shows
        [fire], _ = decide_per_blob(pipeline, frame, gray, blobs)
        others = [b for b in blobs if b is not fire]
        cases["speck"] = (frame, [others[0], speck, fire, others[1]], gray)
        cases["halves"] = (frame, halves, gray)
        positives = 0
        for name, (frame, blobs, gray) in cases.items():
            want_blobs, want_margins = decide_per_blob(pipeline, frame, gray, blobs)
            before = pipeline.stats.classifier_calls
            got_blobs, got_margins = pipeline.decide(frame, gray, blobs)
            assert [id(b) for b in got_blobs] == [id(b) for b in want_blobs], name
            assert np.array_equal(
                np.array(got_margins).view(np.uint64),
                np.array(want_margins).view(np.uint64),
            ), name
            sampled = [
                any(len(cxs) for _, cxs, _ in sample_positions(
                    frame, pipeline.plan, b.mask, (b.x, b.y)))
                for b in blobs
            ]
            assert pipeline.stats.classifier_calls - before == sum(sampled), name
            if name == "speck":
                assert sampled == [True, False, True, True]
            positives += len(got_blobs)
        assert positives > 0


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


def test_benchmark_kernel_cases_run(monkeypatch):
    # perfbench/kernels.py calls module-private kernels by name, and
    # perfbench/run.py records `accel.NUMBA_ACTIVE`; a deleted or renamed
    # one must fail here rather than end a benchmark run before it measures
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from kernels import _cases
    from pyrovigil.accel import NUMBA_ACTIVE

    assert NUMBA_ACTIVE in (False, True)
    for _, call in _cases(np.random.default_rng(7)):
        call()


@pytest.mark.parametrize("workload", ["static_stride5", "moving_stride1"])
def test_benchmark_end_to_end_run(tmp_path, workload):
    # a failure in perfbench's input writers, its training child, its
    # end-to-end path or its reference check must fail here rather than
    # only in a benchmark run; the run writes under its checkout's
    # .perfbench/, so it runs from a copy and leaves the repository's
    # measured results alone
    import json
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    for part in ("perfbench", "src"):
        shutil.copytree(
            root / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__")
        )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


class TestTrainCodebook:
    def test_uniform_patch_insufficient(self, tmp_path):
        d = tmp_path / "patches"
        d.mkdir()
        write_ppm(d / "000000.ppm", np.full((64, 64, 3), 128, np.uint8))
        with pytest.raises(DataError, match="insufficient descriptors"):
            train_codebook([d], SamplingPlan(), k=50, log=None)

    def test_directory_without_patches_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no .ppm/.png frames found"):
            train_codebook([tmp_path], SamplingPlan(), k=5, log=None)

    @pytest.mark.parametrize("size", [8, 12])
    def test_patch_without_descriptor_is_data_error(self, tmp_path, size):
        # it used to be counted, and its directory trained on
        for i in range(3):
            write_ppm(tmp_path / f"{i:06d}.ppm", red_noise_patch(i, 48).pixels)
        write_ppm(tmp_path / "000007.ppm", red_noise_patch(7, size).pixels)
        with pytest.raises(DataError, match=f"patch 7 \\({size}x{size}\\) gives no descriptor"):
            train_codebook([tmp_path], SamplingPlan(), k=5, log=None)

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
        feats = encode_patches(
            fire_dir, cb.NNIndex(noise_codebook.centers), params, SamplingPlan()
        )
        assert len(feats) == 6
        assert converted == [(48, 48, 3)] * 6

    def test_codebook_of_other_words_is_data_error(self, tmp_path, noise_codebook):
        fire_dir, non_dir = self._noise_dirs(tmp_path, n=6)
        book = Codebook(noise_codebook.centers[:, :50], noise_codebook.sigma)
        with pytest.raises(DataError, match="codebook words are 50-dim, descriptors 88-dim"):
            train_model(fire_dir, non_dir, book, log=None)

    def test_cv_path(self, tmp_path, noise_codebook):
        fire_dir, non_dir = self._noise_dirs(tmp_path, n=15)
        model, report = train_model(
            fire_dir, non_dir, noise_codebook, cv=True, folds=3, seed=4, log=None
        )
        assert report.cv is not None
        assert report.cv.best_accuracy >= 0.9
        assert model.C == report.cv.best_c


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
        labels = parse_labels(labels_path)
        clips = check_dataset(root, labels)
        assert clips == [("vidA", va), ("vidB", vb)]
        report, alarms = evaluate_clips(clips, DetectionPipeline(config), labels)
        assert (report.tp, report.tn, report.fp, report.fn) == (1, 2, 0, 0)
        assert report.precision == 1.0 and report.recall == 1.0
        assert all(a.video_id == "vidA" for a in alarms)

    def test_missing_video_dir(self, tmp_path):
        labels = [SectionLabel("ghost", 0, 200, True)]
        with pytest.raises(DataError, match="missing"):
            check_dataset(tmp_path, labels)

    def test_every_clip_checked_before_one_runs(self, synth_artifacts, tmp_path):
        # clip "a" sorts first and used to run, and trace, before "b" was found missing
        vdir = tmp_path / "a"
        vdir.mkdir()
        for t in range(6):
            write_ppm(vdir / f"{t:06d}.ppm", np.zeros((20, 20, 3), np.uint8))
        config = PipelineConfig(
            codebook_path=str(synth_artifacts["codebook_path"]),
            model_path=str(synth_artifacts["model_path"]),
        ).validate()
        labels = [SectionLabel("a", 0, 200, False), SectionLabel("b", 0, 200, True)]
        trace = io.StringIO()
        with pytest.raises(DataError, match="labels reference video 'b'"):
            clips = check_dataset(tmp_path, labels)
            evaluate_clips(clips, DetectionPipeline(config), labels, trace)
        assert trace.getvalue() == ""

    def test_uncovered_frames_rejected(self, tmp_path):
        root = tmp_path / "ds"
        vdir = root / "v"
        vdir.mkdir(parents=True)
        for t in range(5):
            write_ppm(vdir / f"{t:06d}.ppm", np.zeros((20, 20, 3), np.uint8))
        labels = [SectionLabel("v", 0, 3, True)]
        with pytest.raises(DataError, match="not covered"):
            check_dataset(root, labels)
