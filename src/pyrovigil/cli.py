"""Command-line interface.

Subcommands: train-codebook, train-model, detect, evaluate, selftest.
Exit codes: 0 success, 1 failure (selftest / unexpected), 2 configuration
error, 3 data error.
"""

import argparse
import os
import sys

from . import codebook as cb
from . import classifier as cl
from .errors import ConfigError, DataError, PyrovigilError
from .features import SamplingPlan
from .frameio import frame_dir_source
from .pipeline import (
    DetectionPipeline,
    PipelineConfig,
    evaluate,
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
_POSITIVE = _checked(float, lambda v: v > 0, "> 0")


def _plan_from_args(args) -> SamplingPlan:
    try:
        scales = tuple(int(s) for s in args.scales.split(","))
        return SamplingPlan(args.interval, scales)
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
        args.patches,
        plan,
        k=args.k,
        iterations=args.iterations,
        seed=args.seed,
        out_path=args.out,
    )
    print(f"wrote codebook to {args.out}")
    return 0


def _cmd_train_model(args) -> int:
    _check_writable(args.out, "model")
    book = cb.read_codebook(args.codebook)
    kind = cl.KernelKind(args.kernel)
    plan = _plan_from_args(args)
    _, report = train_model(
        args.fire,
        args.nonfire,
        book,
        kernel_kind=kind,
        C=args.C,
        gamma=args.gamma,
        cv=args.cv,
        folds=args.folds,
        seed=args.seed,
        plan=plan,
        m=args.m,
        out_path=args.out,
    )
    if report.cv is not None:
        print(
            f"cross-validation best: C={report.cv.best_c:g} "
            f"gamma={report.cv.best_gamma:g} accuracy={report.cv.best_accuracy:.4f}"
        )
    print(f"wrote model to {args.out}")
    return 0


def _overrides(args) -> dict:
    out = {}
    for item in args.set or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def _alarm_log(path):
    """The alarm log file, opened before any frame is read (the null
    device when `path` is unset); an unwritable path is a config error."""
    try:
        return open(path or os.devnull, "w")
    except OSError as e:
        raise ConfigError(f"cannot write alarm log {path}: {e.strerror}") from None


def _cmd_detect(args) -> int:
    config = PipelineConfig.from_file(args.config, _overrides(args))
    pipeline = DetectionPipeline(config)
    frames = frame_dir_source(args.frames, skip_bad=True)
    with _alarm_log(args.alarms) as log:
        for event in pipeline.run(frames, args.video_id):
            line = format_alarm(event)
            print(line)
            log.write(line + "\n")
    print(pipeline.stats.summary(), file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    config = PipelineConfig.from_file(args.config, _overrides(args))
    labels = parse_labels(args.labels)
    with _alarm_log(args.alarms_out) as log:
        report, alarms = evaluate(args.dataset, config, labels)
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
    tc.add_argument("--k", type=_POSITIVE_INT, default=500)
    tc.add_argument("--iterations", type=_POSITIVE_INT, default=50)
    tc.add_argument("--interval", type=int, default=9)
    tc.add_argument("--scales", default="9", help="comma-separated kernel sizes")
    tc.add_argument("--seed", type=_SEED, default=0)
    tc.set_defaults(func=_cmd_train_codebook)

    tm = sub.add_parser("train-model", help="train the fire/non-fire SVM")
    tm.add_argument("--fire", required=True)
    tm.add_argument("--nonfire", required=True)
    tm.add_argument("--codebook", required=True)
    tm.add_argument("--out", required=True)
    tm.add_argument("--kernel", choices=[k.value for k in cl.KernelKind],
                    default="rbf")
    tm.add_argument("--C", type=_POSITIVE, default=10.0)
    tm.add_argument("--gamma", type=_POSITIVE, default=8.0)
    tm.add_argument("--cv", action="store_true",
                    help="grid-search C,gamma by cross-validation")
    tm.add_argument("--folds", type=_FOLDS, default=5)
    tm.add_argument("--seed", type=_SEED, default=0)
    tm.add_argument("--interval", type=int, default=9)
    tm.add_argument("--scales", default="9")
    tm.add_argument("--m", type=_POSITIVE_INT, default=10)
    tm.set_defaults(func=_cmd_train_model)

    dt = sub.add_parser("detect", help="run detection over a frame directory")
    dt.add_argument("--config", required=True)
    dt.add_argument("--frames", required=True)
    dt.add_argument("--video-id", default="stream")
    dt.add_argument("--alarms", help="write the alarm log here")
    dt.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config field (repeatable)")
    dt.set_defaults(func=_cmd_detect)

    ev = sub.add_parser("evaluate", help="sectioned precision/recall benchmark")
    ev.add_argument("--config", required=True)
    ev.add_argument("--labels", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--alarms-out")
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
