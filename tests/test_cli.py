import json

import numpy as np
import pytest

from pyrovigil.classifier import read_model, train, write_model
from pyrovigil.cli import main
from pyrovigil.codebook import Codebook, write_codebook
from pyrovigil.frameio import write_ppm
from pyrovigil.synth import SceneSpec, SyntheticScene, fire_patch, nonfire_patch

from noise_patches import blue_noise_patch, red_noise_patch
from oracles import parse_alarm_log


def _write_patches(tmp_path):
    fire_dir = tmp_path / "fire"
    non_dir = tmp_path / "nonfire"
    fire_dir.mkdir()
    non_dir.mkdir()
    for i in range(10):
        write_ppm(fire_dir / f"{i:06d}.ppm", red_noise_patch(i, 48).pixels)
        write_ppm(non_dir / f"{i:06d}.ppm", blue_noise_patch(i, 48).pixels)
    return fire_dir, non_dir


def test_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_thing=1\n")
    code = main(["detect", "--config", str(cfg), "--frames", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_data_error(tmp_path, capsys):
    fire_dir, non_dir = _write_patches(tmp_path)
    # corrupt codebook file -> data error (exit 3)
    bad = tmp_path / "bad.pvcb"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main([
        "train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
        "--codebook", str(bad), "--out", str(tmp_path / "m.pvsm"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_train_detect_roundtrip(tmp_path, capsys):
    fire_dir, non_dir = _write_patches(tmp_path)
    cb_path = tmp_path / "cb.pvcb"
    model_path = tmp_path / "model.pvsm"
    code = main([
        "train-codebook", "--patches", str(fire_dir), "--patches", str(non_dir),
        "--out", str(cb_path), "--k", "40", "--iterations", "8", "--seed", "5",
    ])
    assert code == 0
    assert cb_path.is_file()
    code = main([
        "train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
        "--codebook", str(cb_path), "--out", str(model_path), "--seed", "5",
    ])
    assert code == 0
    assert model_path.is_file()

    # a short red-noise-free scene: no alarms expected, exit 0
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    scene = SyntheticScene(SceneSpec(seed=9, with_flame=False, with_car=False))
    for t in range(12):
        write_ppm(frames_dir / f"{t:06d}.ppm", scene.frame(t).pixels)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={cb_path}\nmodel={model_path}\ndecision_stride=2\n"
    )
    alarms_path = tmp_path / "alarms.log"
    code = main([
        "detect", "--config", str(cfg), "--frames", str(frames_dir),
        "--video-id", "clip", "--alarms", str(alarms_path),
    ])
    assert code == 0
    assert parse_alarm_log(alarms_path) == []
    err = capsys.readouterr().err
    assert "frames=12" in err


def test_set_overrides_config(tmp_path, capsys):
    fire_dir, non_dir = _write_patches(tmp_path)
    cb_path = tmp_path / "cb.pvcb"
    model_path = tmp_path / "model.pvsm"
    main(["train-codebook", "--patches", str(fire_dir), "--out", str(cb_path),
          "--k", "30", "--iterations", "5", "--seed", "1"])
    main(["train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
          "--codebook", str(cb_path), "--out", str(model_path), "--seed", "1"])
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for t in range(4):
        write_ppm(frames_dir / f"{t:06d}.ppm", np.zeros((20, 30, 3), np.uint8))
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"codebook={cb_path}\nmodel={model_path}\ndecision_stride=5\n")
    code = main(["detect", "--config", str(cfg), "--frames", str(frames_dir),
                 "--set", "decision_stride=oops"])
    assert code == 2  # override reaches the parser and fails loudly
    capsys.readouterr()
    code = main(["detect", "--config", str(cfg), "--frames", str(frames_dir),
                 "--set", "decision_stride=2", "--set", "camera=moving"])
    assert code == 0


@pytest.mark.parametrize("camera", ["static", "moving"])
def test_detect_frame_size_change_is_data_error(tmp_path, capsys, synth_artifacts, camera):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    write_ppm(frames_dir / "000000.ppm", np.zeros((60, 80, 3), np.uint8))
    write_ppm(frames_dir / "000001.ppm", np.zeros((40, 80, 3), np.uint8))
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\ncamera={camera}\n"
    )
    code = main(["detect", "--config", str(cfg), "--frames", str(frames_dir)])
    assert code == 3
    assert "data error: frame 1 is 80x40" in capsys.readouterr().err


def test_detect_skips_directory_named_like_a_frame(tmp_path, capsys, synth_artifacts, caplog):
    # a directory is not a frame: it is logged and skipped like an
    # undecodable one, not a raw IsADirectoryError
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for t in (0, 1, 2):
        write_ppm(frames_dir / f"{t:06d}.ppm", np.zeros((60, 80, 3), np.uint8))
    (frames_dir / "000009.ppm").mkdir()
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    with caplog.at_level("WARNING", logger="pyrovigil.frameio"):
        code = main(["detect", "--config", str(cfg), "--frames", str(frames_dir)])
    err = capsys.readouterr().err
    assert code == 0
    assert "frames=3" in err
    assert "000009.ppm" in caplog.text


def test_bad_scales_flag_is_config_error(tmp_path, capsys):
    fire_dir, non_dir = _write_patches(tmp_path)
    code = main([
        "train-codebook", "--patches", str(fire_dir),
        "--out", str(tmp_path / "cb.pvcb"), "--scales", "nine",
    ])
    assert code == 2


# Out-of-range numbers on the training commands: each must stop with exit
# code 2 before any work, never with a traceback.
BAD_NUMBERS = [
    ("train-codebook", "--k", "0"),
    ("train-codebook", "--iterations", "0"),
    ("train-codebook", "--seed", "-1"),
    ("train-model", "--m", "0"),
    ("train-model", "--C", "-1"),
    ("train-model", "--gamma", "0"),
    ("train-model", "--C", "inf"),  # raised ValueError after encoding every patch
    ("train-model", "--gamma", "inf"),
    ("train-model", "--cv", "--folds", "0"),
    ("train-model", "--cv", "--folds", "1"),
    ("train-model", "--seed", "-1"),
]


@pytest.mark.parametrize("case", BAD_NUMBERS, ids=" ".join)
def test_bad_number_exits_2(tmp_path, capsys, synth_artifacts, case):
    command, *flags = case
    fire_dir = str(synth_artifacts["fire_dir"])
    non_dir = str(synth_artifacts["nonfire_dir"])
    if command == "train-codebook":
        argv = ["train-codebook", "--patches", fire_dir, "--patches", non_dir,
                "--k", "30", "--iterations", "5"]
    else:
        argv = ["train-model", "--fire", fire_dir, "--nonfire", non_dir,
                "--codebook", str(synth_artifacts["codebook_path"])]
    argv += ["--out", str(tmp_path / "out.bin"), *flags]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code == 2
    assert flags[-2] in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


# Config values that crashed detection with a traceback, or silently
# stopped it from ever alarming: each must be a config error (exit 2).
BAD_CONFIG = [
    ("rho=0",),
    ("rho=2",),
    ("stats_window=0",),
    ("m=600", "camera=moving"),  # more neighbors than the 500 codebook words
    ("track_max_gap=0",),
    ("unstable_area_inverted=0",),  # not a config key
    ("iou_threshold=1.5",),  # no blob ever matches a track
    ("iou_threshold=0",),
    ("ladder=300",),  # every rung above 8-bit intensity: no blob
    ("lam=-1",),  # every pixel foreground: background subtraction off
    ("lam=0",),
    ("lam=nan",),  # no pixel foreground: no blob
    ("var_floor=nan",),
    ("warmup=-1",),
    ("min_blob_area=-5",),
    ("preset=space",),
    ("track_log=x",),  # keys of old config files, now the --trace option
    ("mask_dump_dir=x",),
]


@pytest.mark.parametrize("overrides", BAD_CONFIG, ids=" ".join)
def test_bad_config_value_exits_2(tmp_path, capsys, synth_artifacts, overrides):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    scene = SyntheticScene(SceneSpec(seed=7))
    for t in range(3):
        write_ppm(frames_dir / f"{t:06d}.ppm", scene.frame(t).pixels)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\ndecision_stride=1\n"
    )
    argv = ["detect", "--config", str(cfg), "--frames", str(frames_dir)]
    for item in overrides:
        argv += ["--set", item]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and overrides[0].split("=")[0] in err


def test_detect_with_no_fitting_scale_exits_2(tmp_path, capsys, synth_artifacts):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    scene = SyntheticScene(SceneSpec(seed=7))
    for t in range(3):
        write_ppm(frames_dir / f"{t:06d}.ppm", scene.frame(t).pixels)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    code = main([
        "detect", "--config", str(cfg), "--frames", str(frames_dir),
        "--set", "scales=251",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: no kernel of scales [251] fits a 320x240 frame" in err
    assert "Traceback" not in err


# An output path that cannot be written is a config error (exit 2) found
# before the first frame: the frames here would stop detection with a
# data error (exit 3) at frame 1.
BAD_OUTPUTS = [
    ("detect", "--trace", "{tmp}/nodir/t.jsonl"),
    ("evaluate", "--trace", "{tmp}/a_file/t.jsonl"),
    ("detect", "--alarms", "{tmp}/nodir/a.log"),
    ("evaluate", "--alarms-out", "{tmp}/nodir/a.log"),
]


def _output_argv(tmp_path, synth_artifacts, command):
    """`detect` or `evaluate` argv up to its output flags, over one clip
    whose second frame changes size."""
    frames_dir = tmp_path / "ds" / "clip"
    frames_dir.mkdir(parents=True)
    write_ppm(frames_dir / "000000.ppm", np.zeros((60, 80, 3), np.uint8))
    write_ppm(frames_dir / "000001.ppm", np.zeros((40, 80, 3), np.uint8))
    (tmp_path / "a_file").write_text("")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\ndecision_stride=1\n"
    )
    if command == "detect":
        argv = ["detect", "--frames", str(frames_dir)]
    else:
        labels = tmp_path / "labels.txt"
        labels.write_text("clip 0 200 fire\n")
        argv = ["evaluate", "--labels", str(labels), "--dataset", str(tmp_path / "ds")]
    return argv + ["--config", str(cfg)]


@pytest.mark.parametrize("case", BAD_OUTPUTS, ids=lambda c: " ".join(c[:2]))
def test_unwritable_output_exits_2(tmp_path, capsys, synth_artifacts, case):
    command, flag, value = case
    argv = _output_argv(tmp_path, synth_artifacts, command)
    code = main(argv + [flag, value.format(tmp=tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: cannot write" in err


@pytest.mark.parametrize("command, alarms_flag", [
    ("detect", "--alarms"), ("evaluate", "--alarms-out"),
])
def test_unwritable_trace_keeps_alarm_log(tmp_path, capsys, synth_artifacts,
                                          command, alarms_flag):
    # every output path is checked before any is opened, so a command that
    # stops on an unwritable trace leaves an earlier alarm log as it was
    alarms = tmp_path / "alarms.log"
    alarms.write_text("scene 220 1 65,156,31,53 0.721099594\n")
    argv = _output_argv(tmp_path, synth_artifacts, command)
    argv += [alarms_flag, str(alarms), "--trace", str(tmp_path / "nodir" / "t.jsonl")]
    assert main(argv) == 2
    assert "config error: cannot write trace" in capsys.readouterr().err
    assert alarms.read_text() == "scene 220 1 65,156,31,53 0.721099594\n"


def _dark_clip(frames_dir, count):
    frames_dir.mkdir(parents=True)
    for t in range(count):
        write_ppm(frames_dir / f"{t:06d}.ppm", np.zeros((60, 80, 3), np.uint8))


def _trace_keys(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [(r["video"], r["frame"]) for r in records]


def test_detect_trace(tmp_path, capsys, synth_artifacts):
    _dark_clip(tmp_path / "frames", 6)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    trace = tmp_path / "t.jsonl"
    code = main(["detect", "--config", str(cfg), "--frames", str(tmp_path / "frames"),
                 "--video-id", "clip", "--trace", str(trace)])
    assert code == 0
    assert _trace_keys(trace) == [("clip", 0), ("clip", 5)]  # decision frames


def test_evaluate_trace_keeps_every_clip(tmp_path, capsys, synth_artifacts):
    # one trace over the whole run: each clip's records, tagged with its id
    for vid in ("a", "b"):
        _dark_clip(tmp_path / "ds" / vid, 6)
    labels = tmp_path / "labels.txt"
    labels.write_text("a 0 200 nofire\nb 0 200 nofire\n")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    trace = tmp_path / "t.jsonl"
    code = main(["evaluate", "--config", str(cfg), "--labels", str(labels),
                 "--dataset", str(tmp_path / "ds"), "--trace", str(trace)])
    assert code == 0
    assert _trace_keys(trace) == [("a", 0), ("a", 5), ("b", 0), ("b", 5)]


# Training checks its output path before any work: the inputs here would
# stop training with a data error (exit 3).
BAD_TRAIN_OUTPUTS = [
    ("train-codebook", "--patches", "{tmp}/empty", "--out", "{tmp}/nodir/cb.pvcb"),
    ("train-codebook", "--patches", "{tmp}/empty", "--out", "{tmp}"),
    ("train-model", "--fire", "{tmp}/empty", "--nonfire", "{tmp}/empty",
     "--codebook", "{tmp}/missing.pvcb", "--out", "{tmp}/nodir/m.pvsm"),
]


@pytest.mark.parametrize(
    "argv", BAD_TRAIN_OUTPUTS, ids=["codebook nodir", "codebook dir", "model nodir"]
)
def test_unwritable_training_output_exits_2(tmp_path, capsys, argv):
    (tmp_path / "empty").mkdir()
    code = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: cannot write" in err


def test_failed_training_leaves_no_output(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    out = tmp_path / "cb.pvcb"
    code = main([
        "train-codebook", "--patches", str(tmp_path / "empty"), "--out", str(out),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("per_class, folds, left", [(5, 5, 4), (8, 7, 6)])
def test_cross_validation_with_too_few_patches_exits_3(
    tmp_path, capsys, per_class, folds, left
):
    # the held-out fifth leaves fewer training patches per class than folds;
    # this used to end in a raw ValueError traceback
    fire_dir, non_dir = tmp_path / "fire", tmp_path / "nonfire"
    fire_dir.mkdir()
    non_dir.mkdir()
    for i in range(per_class):
        write_ppm(fire_dir / f"{i:06d}.ppm", fire_patch(i).pixels)
        write_ppm(non_dir / f"{i:06d}.ppm", nonfire_patch(i).pixels)
    cb_path, out = tmp_path / "cb.pvcb", tmp_path / "m.pvsm"
    code = main([
        "train-codebook", "--patches", str(fire_dir), "--patches", str(non_dir),
        "--out", str(cb_path), "--k", "32", "--iterations", "5",
    ])
    assert code == 0
    code = main([
        "train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
        "--codebook", str(cb_path), "--out", str(out), "--cv", "--folds", str(folds),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert f"{folds} folds" in err and f"got {left} / {left}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_codebook_of_only_k_distinct_descriptors_exits_3(tmp_path, capsys):
    # k distinct descriptors make every one a word, sigma 0, and a file
    # that read_codebook refuses
    d = tmp_path / "flat"
    d.mkdir()
    for i, v in enumerate((10, 50, 90, 130)):
        write_ppm(d / f"{i:06d}.ppm", np.full((27, 27, 3), v, np.uint8))
    out = tmp_path / "cb.pvcb"
    code = main(["train-codebook", "--patches", str(d), "--out", str(out), "--k", "4"])
    err = capsys.readouterr().err
    assert code == 3
    assert "data error: insufficient descriptors: 16 collected (4 distinct)" in err
    assert not out.exists()


def test_missing_labels_file_exits_3(tmp_path, capsys, synth_artifacts):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    code = main(["evaluate", "--config", str(cfg), "--dataset", str(tmp_path),
                 "--labels", str(tmp_path / "missing.txt")])
    assert code == 3
    assert "data error: cannot read labels" in capsys.readouterr().err


def test_missing_codebook_file_exits_3(tmp_path, capsys, synth_artifacts):
    code = main([
        "train-model", "--fire", str(synth_artifacts["fire_dir"]),
        "--nonfire", str(synth_artifacts["nonfire_dir"]),
        "--codebook", str(tmp_path / "missing.pvcb"), "--out", str(tmp_path / "m.pvsm"),
    ])
    assert code == 3
    assert "data error: cannot read codebook" in capsys.readouterr().err
    assert not (tmp_path / "m.pvsm").exists()


def test_detect_with_non_finite_model_exits_3(tmp_path, capsys, synth_artifacts):
    # a NaN bias made every margin NaN: detection ran, exited 0, never alarmed
    model = read_model(synth_artifacts["model_path"])
    model.bias = float("nan")
    model_path = tmp_path / "nan.pvsm"
    write_model(model, model_path)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    write_ppm(frames_dir / "000000.ppm", np.zeros((60, 80, 3), np.uint8))
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"codebook={synth_artifacts['codebook_path']}\nmodel={model_path}\n")
    code = main(["detect", "--config", str(cfg), "--frames", str(frames_dir)])
    assert code == 3
    assert "nan.pvsm: model bias must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("book_dim, model_dim, message", [
    (88, 50, "model takes 50 features, but the codebook's 20 words give 116"),
    (50, 116, "codebook words are 50-dim, descriptors 88-dim"),
], ids=["model", "codebook"])
def test_detect_with_wrong_sized_model_or_codebook_exits_3(
    tmp_path, capsys, book_dim, model_dim, message
):
    # without a codebook fingerprint in the model, a size mismatch used to
    # raise a raw ValueError at the first classified blob
    rng = np.random.default_rng(3)
    cb_path, model_path = tmp_path / "cb.pvcb", tmp_path / "m.pvsm"
    write_codebook(Codebook(rng.normal(size=(20, book_dim)), 0.5), cb_path)
    y = np.repeat([1.0, -1.0], 5)
    write_model(train(rng.normal(size=(10, model_dim)), y), model_path)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    scene = SyntheticScene(SceneSpec(seed=7, flame_onset=0))
    for t in range(3):
        write_ppm(frames_dir / f"{t:06d}.ppm", scene.frame(t).pixels)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={cb_path}\nmodel={model_path}\ncamera=moving\ndecision_stride=1\n"
    )
    code = main(["detect", "--config", str(cfg), "--frames", str(frames_dir)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"data error: {message}" in err
    assert "Traceback" not in err


def test_train_model_with_zero_sigma_codebook_exits_3(tmp_path, capsys, synth_artifacts):
    book = synth_artifacts["codebook"]
    bad = tmp_path / "sigma0.pvcb"
    write_codebook(Codebook(book.centers, 0.0), bad)
    out = tmp_path / "m.pvsm"
    code = main([
        "train-model", "--fire", str(synth_artifacts["fire_dir"]),
        "--nonfire", str(synth_artifacts["nonfire_dir"]),
        "--codebook", str(bad), "--out", str(out),
    ])
    assert code == 3
    assert "sigma0.pvcb: codebook sigma must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_model_m_above_codebook_words_exits_2(tmp_path, capsys, synth_artifacts):
    # detection rejects this m; training used to clamp it to the word count
    out = tmp_path / "m.pvsm"
    code = main([
        "train-model", "--fire", str(synth_artifacts["fire_dir"]),
        "--nonfire", str(synth_artifacts["nonfire_dir"]),
        "--codebook", str(synth_artifacts["codebook_path"]), "--out", str(out),
        "--m", "501",
    ])
    assert code == 2
    assert "config error: m=501 exceeds the codebook's 500 words" in capsys.readouterr().err
    assert not out.exists()


def test_selftest_quick(capsys):
    code = main(["selftest", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_evaluate_command(tmp_path, capsys):
    fire_dir, non_dir = _write_patches(tmp_path)
    cb_path = tmp_path / "cb.pvcb"
    model_path = tmp_path / "model.pvsm"
    main(["train-codebook", "--patches", str(fire_dir), "--out", str(cb_path),
          "--k", "30", "--iterations", "5", "--seed", "1"])
    main(["train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
          "--codebook", str(cb_path), "--out", str(model_path), "--seed", "1"])
    root = tmp_path / "ds"
    vdir = root / "clip"
    vdir.mkdir(parents=True)
    dark = np.zeros((40, 60, 3), np.uint8)
    for t in range(200):
        write_ppm(vdir / f"{t:06d}.ppm", dark)
    labels = tmp_path / "labels.txt"
    labels.write_text("clip 0 200 nofire\n")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"codebook={cb_path}\nmodel={model_path}\n")
    code = main(["evaluate", "--config", str(cfg), "--labels", str(labels),
                 "--dataset", str(root)])
    assert code == 0
    out = capsys.readouterr().out
    assert "True negative" in out
    assert "n/a" in out  # no positives anywhere


@pytest.mark.parametrize("size", [8, 12, 14])
def test_train_codebook_patch_without_descriptor_exits_3(tmp_path, capsys, size):
    # an 8x8 patch fits no 9-px kernel; on 12x12 and 14x14 one fits, but
    # the grid from the corner places none. Training used to count the
    # patch and exit 0
    fire_dir, _ = _write_patches(tmp_path)
    write_ppm(fire_dir / "000010.ppm", red_noise_patch(10, size).pixels)
    out = tmp_path / "cb.pvcb"
    code = main(["train-codebook", "--patches", str(fire_dir), "--out", str(out),
                 "--k", "30", "--iterations", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert f"data error: {fire_dir}: patch 10 ({size}x{size}) gives no descriptor" in err
    assert not out.exists()


def test_train_model_patch_without_descriptor_exits_3(tmp_path, capsys, synth_artifacts):
    fire_dir, non_dir = _write_patches(tmp_path)
    write_ppm(non_dir / "000010.ppm", blue_noise_patch(10, 12).pixels)
    out = tmp_path / "m.pvsm"
    code = main([
        "train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
        "--codebook", str(synth_artifacts["codebook_path"]), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert f"data error: {non_dir}: patch 10 (12x12) gives no descriptor" in err
    assert not out.exists()


def test_train_model_with_wrong_dim_codebook_exits_3(tmp_path, capsys):
    # each patch used to fail with numpy's matmul error, one listing per patch
    fire_dir, non_dir = _write_patches(tmp_path)
    cb_path, out = tmp_path / "cb50.pvcb", tmp_path / "m.pvsm"
    write_codebook(Codebook(np.random.default_rng(3).normal(size=(20, 50)), 0.5), cb_path)
    code = main([
        "train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
        "--codebook", str(cb_path), "--out", str(out),
    ])
    assert code == 3
    assert capsys.readouterr().err == "data error: codebook words are 50-dim, descriptors 88-dim\n"
    assert not out.exists()


def test_train_model_with_empty_codebook_exits_3(tmp_path, capsys):
    # a codebook of no word used to stop on m as a config error (exit 2)
    fire_dir, non_dir = _write_patches(tmp_path)
    cb_path, out = tmp_path / "empty.pvcb", tmp_path / "m.pvsm"
    write_codebook(Codebook(np.zeros((0, 88)), 0.5), cb_path)
    code = main([
        "train-model", "--fire", str(fire_dir), "--nonfire", str(non_dir),
        "--codebook", str(cb_path), "--out", str(out),
    ])
    assert code == 3
    assert "empty.pvcb: codebook has 0 words of 88 values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names, message", [
    ((), "no .ppm/.png frames found"),
    (("000000.png", "000001.ppm"), "no frame could be read"),
], ids=["no frame file", "undecodable"])
def test_detect_without_readable_frame_exits_3(
    tmp_path, capsys, caplog, synth_artifacts, names, message
):
    # both used to exit 0 with frames=0
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for name in names:
        (frames_dir / name).write_bytes(b"\x89PNG\r\n\x1a\nnot an image")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    with caplog.at_level("WARNING", logger="pyrovigil.frameio"):
        code = main(["detect", "--config", str(cfg), "--frames", str(frames_dir)])
    assert code == 3
    assert f"data error: {frames_dir}: {message}" in capsys.readouterr().err
    assert caplog.text.count("skipping") == len(names)


@pytest.mark.parametrize("source", ["config line", "--set item"])
def test_setting_without_equals_exits_2(tmp_path, capsys, synth_artifacts, source):
    cfg = tmp_path / "pipe.cfg"
    text = (
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    argv = ["detect", "--config", str(cfg), "--frames", str(tmp_path)]
    if source == "config line":
        text += "decision_stride 2\n"
    else:
        argv += ["--set", "decision_stride"]
    cfg.write_text(text)
    code = main(argv)
    assert code == 2
    assert "expected key=value, got 'decision_stride" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_data_error_before_first_frame_keeps_outputs(
    tmp_path, capsys, synth_artifacts, command
):
    # the frame directory holds no frame file; both commands used to open
    # the alarm log, and detect the trace, before reading it, and so
    # emptied them
    frames_dir = tmp_path / "ds" / "clip"
    frames_dir.mkdir(parents=True)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    alarms = tmp_path / "alarms.log"
    alarms.write_text("scene 220 1 65,156,31,53 0.721099594\n")
    if command == "detect":
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"video": "scene"}\n')
        argv = ["detect", "--frames", str(frames_dir), "--alarms", str(alarms),
                "--trace", str(trace)]
    else:
        labels = tmp_path / "labels.txt"
        labels.write_text("clip 0 200 fire\n")
        argv = ["evaluate", "--labels", str(labels), "--dataset", str(tmp_path / "ds"),
                "--alarms-out", str(alarms)]
    assert main(argv + ["--config", str(cfg)]) == 3
    assert f"data error: {frames_dir}: no .ppm/.png frames found" in capsys.readouterr().err
    assert alarms.read_text() == "scene 220 1 65,156,31,53 0.721099594\n"
    if command == "detect":
        assert trace.read_text() == '{"video": "scene"}\n'


def test_evaluate_data_error_after_a_clip_keeps_alarm_log(tmp_path, capsys, synth_artifacts):
    # the alarms are written once the run has scored every clip; the second
    # clip here changes frame size
    argv = _output_argv(tmp_path, synth_artifacts, "evaluate")
    alarms = tmp_path / "alarms.log"
    alarms.write_text("scene 220 1 65,156,31,53 0.721099594\n")
    assert main(argv + ["--alarms-out", str(alarms)]) == 3
    assert "data error: frame 1 is 80x40" in capsys.readouterr().err
    assert alarms.read_text() == "scene 220 1 65,156,31,53 0.721099594\n"


@pytest.mark.parametrize("case", ["no frame file", "missing clip after one"])
def test_evaluate_data_error_in_any_clip_keeps_trace(tmp_path, capsys, synth_artifacts, case):
    # every clip is checked before the first one runs and the trace is
    # opened; both used to empty the trace, and the second ran clip b first
    if case == "no frame file":
        (tmp_path / "ds" / "clip").mkdir(parents=True)
        labels_text = "clip 0 200 fire\n"
        message = f"data error: {tmp_path / 'ds' / 'clip'}: no .ppm/.png frames found"
    else:
        _dark_clip(tmp_path / "ds" / "b", 6)
        labels_text = "b 0 200 nofire\nmissing 0 200 fire\n"
        message = f"labels reference video 'missing' but {tmp_path / 'ds' / 'missing'} is missing"
    labels = tmp_path / "labels.txt"
    labels.write_text(labels_text)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"codebook={synth_artifacts['codebook_path']}\n"
        f"model={synth_artifacts['model_path']}\n"
    )
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"a": "b"}\n')
    code = main(["evaluate", "--config", str(cfg), "--labels", str(labels),
                 "--dataset", str(tmp_path / "ds"), "--trace", str(trace)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert trace.read_text() == '{"a": "b"}\n'
