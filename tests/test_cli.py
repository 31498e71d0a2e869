import numpy as np
import pytest

from pyrovigil.cli import main
from pyrovigil.frameio import write_ppm
from pyrovigil.pipeline import parse_alarm_log
from pyrovigil.synth import SceneSpec, SyntheticScene, blue_noise_patch, red_noise_patch


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
    ("preset=space",),
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


# An output path that cannot be written is a config error (exit 2) found
# before the first frame: the frames here would stop detection with a
# data error (exit 3) at frame 1.
BAD_OUTPUTS = [
    ("detect", "--set", "track_log={tmp}/nodir/t.log"),
    ("detect", "--set", "mask_dump_dir={tmp}/a_file"),
    ("detect", "--alarms", "{tmp}/nodir/a.log"),
    ("evaluate", "--alarms-out", "{tmp}/nodir/a.log"),
]


@pytest.mark.parametrize("case", BAD_OUTPUTS, ids=lambda c: " ".join(c[:2]))
def test_unwritable_output_exits_2(tmp_path, capsys, synth_artifacts, case):
    command, flag, value = case
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
    argv += ["--config", str(cfg), flag, value.format(tmp=tmp_path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: cannot write" in err


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
