"""End-to-end orchestration of the three-stage cascade plus the training
workflows and the sectioned precision/recall evaluation harness.

`DetectionPipeline.run` is one loop over the stages. Per frame: `_admit`
checks the frame against the stream. Every `decision_stride` frames,
`_propose` finds candidate blobs, `decide` encodes each blob (dense local
descriptors + global LAB histogram) and classifies it, and `_verify`
feeds the classifier-positive blobs to the temporal tracker; a track
confirmed as fire emits exactly one alarm event. The frames in between
are only absorbed (`_absorb`) by the background model and the rolling
brightness. Stages short-circuit, so an empty candidate mask costs no
classifier work, and do no I/O: `run` alone writes the optional trace.
"""

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, get_args, get_origin

import numpy as np

from . import codebook as cb
from . import classifier as cl
from .errors import ConfigError, DataError
from .features import (
    DESCRIPTOR_DIM,
    GLOBAL_BINS_PER_CHANNEL,
    SampleContext,
    SamplingPlan,
    histogram_from_pixels,
    sample,
)
from .frameio import frame_dir_source, list_frame_files
from .imaging import ColorSpace, Frame, luma
from .proposal import ProposalConfig, ProposalEngine
from .temporal import StabilityThresholds, Tracker


@dataclass(frozen=True)
class AlarmEvent:
    video_id: str
    frame_index: int
    track_id: int
    bbox: Tuple[int, int, int, int]
    margin: float


@dataclass(frozen=True)
class SectionLabel:
    video_id: str
    start: int
    end: int  # exclusive
    fire: bool


# the two fields whose config key is not their name
_KEYS = {"codebook_path": "codebook", "model_path": "model"}


def _parse(kind, text: str):
    """A config value of the field type `kind`; raises ValueError."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(item(s) for s in text.split(","))
    return kind(text)


def _setting(item: str, where: str):
    """(key, value) of a `key=value` setting, both stripped; anything else
    is a ConfigError naming `where`."""
    key, eq, value = item.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    return key.strip(), value.strip()


_INDOOR = StabilityThresholds.preset("indoor")


@dataclass(frozen=True)
class PipelineConfig(ProposalConfig):
    """Every setting of the cascade; the proposal stage's come from
    `ProposalConfig`. Each field is a config key, under its own name but
    for `codebook` and `model`. The sampling, encoding and stability
    settings default to their stages' own defaults. Ranges are checked
    when the config is built (ValueError); `validate` checks the files."""

    codebook_path: str = ""
    model_path: str = ""
    decision_stride: int = 5
    interval: int = SamplingPlan.interval
    scales: Tuple[int, ...] = SamplingPlan.scales
    m: int = cb.EncoderParams.m
    t1: float = _INDOOR.t1
    t2: float = _INDOOR.t2
    iou_threshold: float = 0.3
    track_max_gap: int = 5  # in decision frames, counted in the stream

    def __post_init__(self):
        super().__post_init__()
        if self.decision_stride < 1:
            raise ValueError(f"decision_stride must be >= 1, got {self.decision_stride}")
        if self.track_max_gap < 1:
            raise ValueError(f"track_max_gap must be >= 1, got {self.track_max_gap}")
        if not 0 < self.iou_threshold <= 1:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        # the stages' own settings objects check the rest
        StabilityThresholds(self.t1, self.t2)
        cb.EncoderParams(self.m)
        SamplingPlan(self.interval, tuple(self.scales))

    def validate(self):
        """This config, after checking that its codebook and model files exist."""
        for name, p in (("codebook", self.codebook_path), ("model", self.model_path)):
            if not p:
                raise ConfigError(f"{name} path not set")
            if not Path(p).is_file():
                raise ConfigError(f"{name} file not found: {p}")
        return self

    @classmethod
    def from_file(cls, path, overrides=()) -> "PipelineConfig":
        """Plain-text key=value config with '#' comments; `overrides`,
        key=value strings, take precedence over the file."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        values = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = _setting(line, f"{path}:{lineno}")
                values[key] = value
        values.update(_setting(item, "override") for item in overrides)
        return cls._from_dict(values, path).validate()

    @classmethod
    def _from_dict(cls, values, path):
        """Fields from config keys, each value parsed as its field's type;
        `preset` names the (t1, t2) band that t1= and t2= override."""
        by_key = {_KEYS.get(f.name, f.name): f for f in fields(cls)}
        kwargs = {}
        preset = None
        for key, value in values.items():
            if key != "preset" and key not in by_key:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            try:
                if key == "preset":
                    preset = StabilityThresholds.preset(value)
                else:
                    kwargs[by_key[key].name] = _parse(by_key[key].type, value)
            except ValueError:
                raise ConfigError(f"{path}: bad value for {key}: {value!r}") from None
        if preset is not None:
            kwargs.setdefault("t1", preset.t1)
            kwargs.setdefault("t2", preset.t2)
        try:
            return cls(**kwargs)
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from None


@dataclass
class StageStats:
    frames: int = 0
    blobs_proposed: int = 0
    classifier_calls: int = 0
    alarms: int = 0
    proposal_s: float = 0.0
    features_s: float = 0.0
    classify_s: float = 0.0
    temporal_s: float = 0.0
    total_s: float = 0.0  # run time, without the time suspended at a yield

    @property
    def fps(self) -> float:
        return self.frames / self.total_s if self.total_s > 0 else 0.0

    def summary(self) -> str:
        return (
            f"frames={self.frames} blobs={self.blobs_proposed} "
            f"classified={self.classifier_calls} alarms={self.alarms} "
            f"proposal={self.proposal_s:.3f}s features={self.features_s:.3f}s "
            f"classify={self.classify_s:.3f}s temporal={self.temporal_s:.3f}s "
            f"fps={self.fps:.1f}"
        )


def _encoder(book: cb.Codebook, m: int):
    """(neighbor index, encoder params) that encode descriptors over
    `book`, each onto its `m` nearest words, for detection and training
    alike. Words that are not 88-dim and a sigma that is not finite and
    > 0 are DataErrors; an `m` above the word count is a ConfigError."""
    if book.dim != DESCRIPTOR_DIM:
        raise DataError(f"codebook words are {book.dim}-dim, descriptors {DESCRIPTOR_DIM}-dim")
    if not (math.isfinite(book.sigma) and book.sigma > 0):
        raise DataError(f"codebook sigma must be finite and > 0, got {book.sigma}")
    if m > book.k:
        raise ConfigError(f"m={m} exceeds the codebook's {book.k} words")
    return cb.NNIndex(book.centers), cb.EncoderParams(m=m, sigma=book.sigma)


class DetectionPipeline:
    """Loads model + codebook once; `run` processes one frame stream."""

    def __init__(self, config: PipelineConfig, codebook=None, model=None):
        self.config = config
        if codebook is None:
            codebook = cb.read_codebook(config.codebook_path)
        if model is None:
            model = cl.read_model(config.model_path)
        self.codebook = codebook
        self.model = model
        if model.codebook_fingerprint != codebook.fingerprint():
            raise DataError(
                "model/codebook pairing violated: the model carries no "
                "fingerprint of this codebook"
            )
        self.index, self.params = _encoder(codebook, config.m)
        row_dim = codebook.k + 3 * GLOBAL_BINS_PER_CHANNEL
        if model.dim != row_dim:
            raise DataError(
                f"model takes {model.dim} features, but the codebook's "
                f"{codebook.k} words give {row_dim}"
            )
        self.plan = SamplingPlan(config.interval, tuple(config.scales))
        self.stats = StageStats()

    def run(self, frames: Iterable[Frame], video_id: str = "stream", trace=None):
        """Yield AlarmEvents; one per track confirmation. `trace`, an open
        text stream the caller owns, gets one JSON line per decision frame
        (`_trace_record`) before the frame's alarms; without it no record
        is built."""
        cfg = self.config
        stats = StageStats()
        self.stats = stats
        engine = None
        tracker = Tracker(
            StabilityThresholds(cfg.t1, cfg.t2), cfg.iou_threshold, cfg.track_max_gap
        )
        t_run = time.perf_counter()
        paused = 0.0
        try:
            for pos, frame in enumerate(frames):
                engine = self._admit(frame, engine)
                if pos % cfg.decision_stride:
                    self._absorb(engine, frame)
                    continue
                blobs, threshold = self._propose(engine, frame)
                fire_blobs, margins = self.decide(frame, engine.gray, blobs)
                decision = pos // cfg.decision_stride
                confirmed = self._verify(tracker, decision, fire_blobs, margins)
                if trace is not None:
                    trace.write(_trace_record(video_id, frame.index, threshold, engine.model,
                                              blobs, fire_blobs, margins, tracker, decision))
                for tr in confirmed:
                    stats.alarms += 1
                    t0 = time.perf_counter()
                    try:
                        yield AlarmEvent(
                            video_id, frame.index, tr.track_id, tr.bbox, tr.last_margin
                        )
                    finally:
                        paused += time.perf_counter() - t0
        finally:
            stats.total_s = time.perf_counter() - t_run - paused

    def _admit(self, frame: Frame, engine: Optional[ProposalEngine]) -> ProposalEngine:
        """The stream's proposal engine, built at its first frame. A frame
        that is not RGB, not of the first frame's size, or not after the
        last frame proposed is a DataError; a first frame that no kernel
        scale fits is a ConfigError."""
        if frame.space is not ColorSpace.RGB:
            raise DataError(f"frame {frame.index} is {frame.space.value}, not RGB")
        if engine is None:
            if not self.plan.fits(frame.width, frame.height):
                raise ConfigError(
                    f"no kernel of scales {list(self.plan.scales)} fits "
                    f"a {frame.width}x{frame.height} frame"
                )
            return ProposalEngine(self.config, frame.width, frame.height)
        if (frame.width, frame.height) != (engine.width, engine.height):
            raise DataError(
                f"frame {frame.index} is {frame.width}x{frame.height}, "
                f"but the stream started at {engine.width}x{engine.height}"
            )
        if frame.index <= engine.index:
            raise DataError(f"frame {frame.index} follows frame {engine.index}")
        return engine

    def _absorb(self, engine: ProposalEngine, frame: Frame):
        """Stage 1 on a frame that is not decided: the background model and
        the rolling brightness take it in; no blobs are extracted."""
        t0 = time.perf_counter()
        engine.absorb(frame)
        self.stats.proposal_s += time.perf_counter() - t0
        self.stats.frames += 1

    def _propose(self, engine: ProposalEngine, frame: Frame):
        """Stage 1 on a decision frame: (its candidate blobs, the threshold
        rung used)."""
        t0 = time.perf_counter()
        blobs, cand = engine.propose(frame)
        self.stats.proposal_s += time.perf_counter() - t0
        self.stats.frames += 1
        self.stats.blobs_proposed += len(blobs)
        return blobs, cand.threshold

    def decide(self, frame: Frame, gray: np.ndarray, blobs):
        """Stage 2: (the blobs the SVM classifies as fire, their margins).

        `gray` is the frame's luma as proposal computed it (`engine.gray`).
        The frame is one `_admit` took, so a kernel fits it. Each blob is
        encoded from its local descriptors and its global LAB histogram,
        all of the frame's blobs at once; a blob with no descriptor is not
        classified.
        """
        stats = self.stats
        fire_blobs, margins = [], []
        if not blobs:
            return fire_blobs, margins
        t0 = time.perf_counter()
        ctx = SampleContext(frame, gray, self.plan, [(b.mask, (b.x, b.y)) for b in blobs])
        descs = sample(ctx)
        t1 = time.perf_counter()
        stats.features_s += t1 - t0
        if len(descs) == 0:
            return fire_blobs, margins
        rows = _encode_regions(ctx, descs, self.index, self.params)
        # one prediction per blob: a one-row product may round otherwise
        # than a row of a larger one
        for blob, row in zip((b for b, n in zip(blobs, ctx.counts) if n), rows):
            label, margin = cl.predict(self.model, row)
            stats.classifier_calls += 1
            if label > 0:
                fire_blobs.append(blob)
                margins.append(margin)
        stats.classify_s += time.perf_counter() - t1
        return fire_blobs, margins

    def _verify(self, tracker: Tracker, decision: int, fire_blobs, margins):
        """Stage 3: the tracks confirmed as fire at the stream's decision
        frame number `decision`; the tracker counts its gaps in these, not
        in frame numbers, which may skip."""
        t0 = time.perf_counter()
        confirmed = tracker.update(fire_blobs, decision, margins)
        self.stats.temporal_s += time.perf_counter() - t0
        return confirmed


def _trace_record(video, frame, threshold, bg_model, blobs, fire, margins, tracker,
                  decision):
    """A decision frame's JSON line: the ladder rung used, the frames the
    background model has absorbed (null without one), the blobs' boxes and
    areas, the fire blobs' boxes and margins, and the tracks sampled here,
    at the stream's decision frame number `decision`."""
    return json.dumps({
        "video": video,
        "frame": frame,
        "threshold": threshold,
        "bg_frames": None if bg_model is None else bg_model.frames_absorbed,
        "blobs": [[*b.bbox, b.area] for b in blobs],
        "fire": [[*b.bbox, m] for b, m in zip(fire, margins)],
        "tracks": [[tr.track_id, tr.state.value, *tr.samples[-1]]
                   for tr in tracker.tracks if tr.last_seen == decision],
    }) + "\n"


# ---------------------------------------------------------------------------
# training workflows


def _encode_regions(ctx: SampleContext, descs, nn_index: cb.NNIndex, params: cb.EncoderParams):
    """The (k + 96,) feature rows of the context's regions that have
    descriptors, in order, from the descriptors `sample(ctx)` gave."""
    counts = ctx.counts[ctx.counts > 0]
    ghists = histogram_from_pixels(ctx.keys, ctx.labels, counts.size)
    return cb.encode(descs, counts, nn_index, params, ghists)


def _patches(directory, plan: SamplingPlan):
    """(sample context, local descriptors) of each patch in a directory, in
    index order. A patch is sampled as `decide` samples a blob, as one
    all-true region at (0, 0). A patch that gives no descriptor, as one
    that no kernel fits, is a DataError."""
    for frame in frame_dir_source(directory):
        mask = np.ones((frame.height, frame.width), dtype=bool)
        ctx = SampleContext(frame, luma(frame.pixels), plan, [(mask, (0, 0))])
        descs = sample(ctx)
        if len(descs) == 0:
            raise DataError(
                f"{directory}: patch {frame.index} ({frame.width}x{frame.height}) "
                "gives no descriptor"
            )
        yield ctx, descs


def train_codebook(
    patch_dirs,
    plan: SamplingPlan = SamplingPlan(),
    k: int = 500,
    iterations: int = 50,
    seed: int = 0,
    out_path=None,
    log=print,
) -> cb.Codebook:
    """Cluster the local descriptors of every patch under the given dirs."""
    rows = [descs for d in patch_dirs for _, descs in _patches(d, plan)]
    X = np.concatenate(rows) if rows else np.zeros((0, DESCRIPTOR_DIM))
    patches = len(rows)
    # k distinct descriptors would each become a word, with sigma 0
    distinct = np.unique(X, axis=0).shape[0] if X.shape[0] else 0
    if distinct <= k:
        raise DataError(
            f"insufficient descriptors: {X.shape[0]} collected "
            f"({distinct} distinct) from {patches} patches, need over k={k} distinct"
        )
    book = cb.kmeans(X, k, iterations, seed)
    if log:
        log(
            f"codebook: {X.shape[0]} descriptors from {patches} patches, "
            f"k={k}, final SSE {book.sse_trace[-1]:.6g}, sigma {book.sigma:.6g}"
        )
    if out_path:
        cb.write_codebook(book, out_path)
    return book


def encode_patches(
    patch_dir, nn_index: cb.NNIndex, params: cb.EncoderParams, plan: SamplingPlan
):
    """The (k + 96,) feature row of each patch in a directory: the row
    `decide` builds for a blob that covers the patch."""
    return [
        _encode_regions(ctx, descs, nn_index, params)[0]
        for ctx, descs in _patches(patch_dir, plan)
    ]


@dataclass
class TrainReport:
    held_out_accuracy: float
    n_train: int
    n_test: int
    cv: Optional[cl.CVReport] = None


def split_train_test(labels: np.ndarray, seed: int):
    """Seeded stratified split, a fifth of each class held out; returns
    (train_idx, test_idx)."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in (1.0, -1.0):
        idx = np.nonzero(labels == cls)[0]
        rng.shuffle(idx)
        n_test = max(1, int(round(len(idx) * 0.2)))
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return np.asarray(sorted(train)), np.asarray(sorted(test))


def train_model(
    fire_dir,
    nonfire_dir,
    book: cb.Codebook,
    kernel_kind: cl.KernelKind = cl.KernelKind.RBF,
    C: float = 10.0,
    gamma: float = 8.0,
    cv: bool = False,
    folds: int = 5,
    seed: int = 0,
    plan: SamplingPlan = SamplingPlan(),
    m: int = cb.EncoderParams.m,
    out_path=None,
    log=print,
):
    """Encode fire/non-fire patches, optionally grid-search (C, gamma) by
    cross-validation on the training split, fit the final model, and
    report accuracy on the held-out fifth."""
    nn_index, params = _encoder(book, m)
    fire_feats = encode_patches(fire_dir, nn_index, params, plan)
    non_feats = encode_patches(nonfire_dir, nn_index, params, plan)
    if min(len(fire_feats), len(non_feats)) < 5:
        raise DataError(
            f"need at least 5 samples per class, got {len(fire_feats)} fire / "
            f"{len(non_feats)} non-fire"
        )
    X = np.stack(fire_feats + non_feats)
    y = np.concatenate(
        [np.ones(len(fire_feats)), -np.ones(len(non_feats))]
    )
    train_idx, test_idx = split_train_test(y, seed)

    report_cv = None
    if cv:
        try:
            report_cv = cl.cross_validate(
                X[train_idx], y[train_idx], kernel_kind, folds=folds, seed=seed
            )
        except ValueError as e:
            raise DataError(
                f"cross-validation over {folds} folds of the training split: {e}"
            ) from None
        C, gamma = report_cv.best_c, report_cv.best_gamma

    kernel = cl.Kernel(kernel_kind, gamma)
    model = cl.train(
        X[train_idx], y[train_idx], kernel=kernel, C=C,
        codebook_fingerprint=book.fingerprint(),
    )
    margins = cl.decision_function(model, X[test_idx])
    pred = np.where(margins >= 0.0, 1.0, -1.0)
    accuracy = float((pred == y[test_idx]).mean())
    report = TrainReport(
        held_out_accuracy=accuracy,
        n_train=len(train_idx),
        n_test=len(test_idx),
        cv=report_cv,
    )
    if log:
        log(
            f"model: kernel={kernel.kind.value} C={C:g} gamma={kernel.gamma:g} "
            f"train={report.n_train} test={report.n_test} "
            f"held-out accuracy {accuracy:.4f}"
        )
    if out_path:
        cl.write_model(model, out_path)
    return model, report


# ---------------------------------------------------------------------------
# evaluation harness


@dataclass
class EvalReport:
    tp: int
    tn: int
    fp: int
    fn: int
    per_section: List[Tuple[SectionLabel, bool]] = field(default_factory=list)

    @property
    def precision(self) -> Optional[float]:
        d = self.tp + self.fp
        return self.tp / d if d else None

    @property
    def recall(self) -> Optional[float]:
        d = self.tp + self.fn
        return self.tp / d if d else None

    @staticmethod
    def _pct(v: Optional[float]) -> str:
        return "n/a" if v is None else f"{100.0 * v:.2f}%"

    def format_table(self) -> str:
        rows = [
            ("True positive", str(self.tp)),
            ("True negative", str(self.tn)),
            ("False positive", str(self.fp)),
            ("False negative", str(self.fn)),
            ("Precision rate", self._pct(self.precision)),
            ("Recall rate", self._pct(self.recall)),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def parse_labels(path) -> List[SectionLabel]:
    """One section per line: `video_id start_frame end_frame fire|nofire`."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read labels {path}: {e}") from None
    labels = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        bad = DataError(
            f"{path}:{lineno}: expected 'video start end fire|nofire', got {line!r}"
        )
        if len(parts) != 4 or parts[3] not in ("fire", "nofire"):
            raise bad
        try:
            start, end = int(parts[1]), int(parts[2])
        except ValueError:
            raise bad from None
        labels.append(SectionLabel(parts[0], start, end, parts[3] == "fire"))
    _check_overlaps(labels, path)
    return labels


def _check_overlaps(labels, origin):
    by_video = {}
    for s in labels:
        if s.end <= s.start:
            raise DataError(f"{origin}: empty section {s}")
        by_video.setdefault(s.video_id, []).append(s)
    for vid, secs in by_video.items():
        secs.sort(key=lambda s: s.start)
        for a, b in zip(secs, secs[1:]):
            if b.start < a.end:
                raise DataError(f"{origin}: overlapping sections in {vid}: {a} / {b}")


def format_alarm(a: AlarmEvent) -> str:
    x, y, w, h = a.bbox
    return (
        f"{a.video_id} {a.frame_index} {a.track_id} "
        f"{x},{y},{w},{h} {format(a.margin, '.9g')}"
    )


def evaluate_sections(alarms: Iterable[AlarmEvent], labels: List[SectionLabel]) -> EvalReport:
    """Pure mapping from alarms to section confusion counts: a section is
    predicted fire iff at least one alarm lands in its frame range."""
    alarm_set = {}
    for a in alarms:
        alarm_set.setdefault(a.video_id, []).append(a.frame_index)
    tp = tn = fp = fn = 0
    per_section = []
    for s in labels:
        frames = alarm_set.get(s.video_id, ())
        predicted = any(s.start <= f < s.end for f in frames)
        per_section.append((s, predicted))
        if s.fire and predicted:
            tp += 1
        elif s.fire and not predicted:
            fn += 1
        elif not s.fire and predicted:
            fp += 1
        else:
            tn += 1
    return EvalReport(tp, tn, fp, fn, per_section)


def check_dataset(dataset_root, labels: List[SectionLabel]):
    """(video id, frame directory) of every labeled video under
    `dataset_root`, in id order, once each directory is found to hold
    frame files that its sections cover."""
    root = Path(dataset_root)
    clips = []
    for vid in sorted({s.video_id for s in labels}):
        vdir = root / vid
        if not vdir.is_dir():
            raise DataError(f"labels reference video {vid!r} but {vdir} is missing")
        covered = [s for s in labels if s.video_id == vid]
        for idx, _ in list_frame_files(vdir):
            if not any(s.start <= idx < s.end for s in covered):
                raise DataError(
                    f"frame {idx} of video {vid!r} is not covered by any section"
                )
        clips.append((vid, vdir))
    return clips


def evaluate_clips(clips, pipeline: DetectionPipeline, labels, trace=None):
    """Run `pipeline` over each (video id, frame directory) of `clips`,
    each traced to `trace`; score the sections of `labels`."""
    alarms: List[AlarmEvent] = []
    for vid, vdir in clips:
        alarms.extend(pipeline.run(frame_dir_source(vdir, skip_bad=True), vid, trace))
    return evaluate_sections(alarms, labels), alarms
