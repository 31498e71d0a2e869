"""Command-line interface.

Subcommands: train-codebook, train-model, detect, evaluate, selftest.
Exit codes: 0 success, 1 failure (selftest / unexpected), 2 configuration
error, 3 data error.
"""

import argparse
import math
import os
import sys
from contextlib import nullcontext
from itertools import chain

from . import codebook as cb
from . import classifier as cl
from .errors import ConfigError, DataError, PyrovigilError
from .features import SamplingPlan
from .frameio import frame_dir_source
from .pipeline import (
    DetectionPipeline,
    PipelineConfig,
    check_dataset,
    evaluate_clips,
    format_alarm,
    parse_labels,
    train_codebook,
    train_model,
)


def _checked(kind, ok, requirement):
    """argparse type: `kind(text)`, rejected (exit code 2) unless `ok(value)`."""

    def number(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return number


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_FOLDS = _checked(int, lambda v: v >= 2, "an integer >= 2")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def _given(args, *names):
    """{name: value} of the named flags that are set. The training flags
    have no defaults here: an unset one is None and is not passed on, so
    the library's default applies."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _plan_from_args(args) -> SamplingPlan:
    given = _given(args, "interval", "scales")
    try:
        if "scales" in given:
            given["scales"] = tuple(int(s) for s in given["scales"].split(","))
        return SamplingPlan(**given)
    except ValueError as e:
        raise ConfigError(f"bad sampling settings: {e}") from None


def _check_writable(path, what):
    """Fail with a config error before any training when `path` cannot be
    written; a file that did not exist is left not existing."""
    existed = os.path.exists(path)
    try:
        open(path, "ab").close()
    except OSError as e:
        raise ConfigError(f"cannot write {what} {path}: {e.strerror}") from None
    if not existed:
        os.remove(path)


def _cmd_train_codebook(args) -> int:
    plan = _plan_from_args(args)
    _check_writable(args.out, "codebook")
    train_codebook(
        args.patches, plan, out_path=args.out, **_given(args, "k", "iterations", "seed")
    )
    print(f"wrote codebook to {args.out}")
    return 0


def _cmd_train_model(args) -> int:
    _check_writable(args.out, "model")
    book = cb.read_codebook(args.codebook)
    given = _given(args, "kernel_kind", "C", "gamma", "cv", "folds", "seed", "m")
    if "kernel_kind" in given:
        given["kernel_kind"] = cl.KernelKind(given["kernel_kind"])
    plan = _plan_from_args(args)
    _, report = train_model(
        args.fire, args.nonfire, book, plan=plan, out_path=args.out, **given
    )
    if report.cv is not None:
        print(
            f"cross-validation best: C={report.cv.best_c:g} "
            f"gamma={report.cv.best_gamma:g} accuracy={report.cv.best_accuracy:.4f}"
        )
    print(f"wrote model to {args.out}")
    return 0


def _check_outputs(*outputs):
    """`_check_writable` on each (path, what) whose path is set, all before
    any output is opened, so that a config error leaves every file as it
    was."""
    for path, what in outputs:
        if path:
            _check_writable(path, what)


def _output(path, what):
    """An output file opened for writing (a context giving None when `path`
    is unset); an unwritable path is a config error."""
    if not path:
        return nullcontext()
    try:
        return open(path, "w")
    except OSError as e:
        raise ConfigError(f"cannot write {what} {path}: {e.strerror}") from None


def _cmd_detect(args) -> int:
    config = PipelineConfig.from_file(args.config, args.set or ())
    pipeline = DetectionPipeline(config)
    frames = frame_dir_source(args.frames, skip_bad=True)
    alarm_path = args.alarms or os.devnull
    _check_outputs((alarm_path, "alarm log"), (args.trace, "trace"))
    # the first frame is read before the outputs are opened, so a directory
    # without one leaves an earlier alarm log and trace as they were
    frames = chain([next(frames)], frames)
    with _output(alarm_path, "alarm log") as log, _output(args.trace, "trace") as trace:
        for event in pipeline.run(frames, args.video_id, trace):
            line = format_alarm(event)
            print(line)
            log.write(line + "\n")
    print(pipeline.stats.summary(), file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    config = PipelineConfig.from_file(args.config, args.set or ())
    labels = parse_labels(args.labels)
    alarm_path = args.alarms_out or os.devnull
    _check_outputs((alarm_path, "alarm log"), (args.trace, "trace"))
    clips = check_dataset(args.dataset, labels)
    pipeline = DetectionPipeline(config)
    # opened once every clip is checked and the model read, so a data error
    # there keeps an earlier trace
    with _output(args.trace, "trace") as trace:
        report, alarms = evaluate_clips(clips, pipeline, labels, trace)
    # opened once every clip has run, so a data error keeps an earlier log
    with _output(alarm_path, "alarm log") as log:
        log.writelines(format_alarm(a) + "\n" for a in alarms)
    print(report.format_table())
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(quick=args.quick)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pyrovigil",
        description="Real-time fire detection for video frame sequences.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    tc = sub.add_parser("train-codebook", help="cluster a visual vocabulary")
    tc.add_argument("--patches", action="append", required=True,
                    help="patch directory (repeatable)")
    tc.add_argument("--out", required=True)
    tc.add_argument("--k", type=_POSITIVE_INT)
    tc.add_argument("--iterations", type=_POSITIVE_INT)
    tc.add_argument("--interval", type=int)
    tc.add_argument("--scales", help="comma-separated kernel sizes")
    tc.add_argument("--seed", type=_SEED)
    tc.set_defaults(func=_cmd_train_codebook)

    tm = sub.add_parser("train-model", help="train the fire/non-fire SVM")
    tm.add_argument("--fire", required=True)
    tm.add_argument("--nonfire", required=True)
    tm.add_argument("--codebook", required=True)
    tm.add_argument("--out", required=True)
    tm.add_argument("--kernel", dest="kernel_kind",
                    choices=[k.value for k in cl.KernelKind])
    tm.add_argument("--C", type=_POSITIVE)
    tm.add_argument("--gamma", type=_POSITIVE)
    tm.add_argument("--cv", action="store_const", const=True,
                    help="grid-search C,gamma by cross-validation")
    tm.add_argument("--folds", type=_FOLDS)
    tm.add_argument("--seed", type=_SEED)
    tm.add_argument("--interval", type=int)
    tm.add_argument("--scales")
    tm.add_argument("--m", type=_POSITIVE_INT)
    tm.set_defaults(func=_cmd_train_model)

    dt = sub.add_parser("detect", help="run detection over a frame directory")
    dt.add_argument("--config", required=True)
    dt.add_argument("--frames", required=True)
    dt.add_argument("--video-id", default="stream")
    dt.add_argument("--alarms", help="write the alarm log here")
    dt.add_argument("--trace", help="write one JSON record per decision frame here")
    dt.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config field (repeatable)")
    dt.set_defaults(func=_cmd_detect)

    ev = sub.add_parser("evaluate", help="sectioned precision/recall benchmark")
    ev.add_argument("--config", required=True)
    ev.add_argument("--labels", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--alarms-out")
    ev.add_argument("--trace", help="write one JSON record per decision frame here")
    ev.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config field (repeatable)")
    ev.set_defaults(func=_cmd_evaluate)

    st = sub.add_parser("selftest", help="synthetic end-to-end sanity run")
    st.add_argument("--quick", action="store_true")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except PyrovigilError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
