"""Detection benchmark: replay a synthetic scene through the path that
``pyrovigil detect`` takes and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload static_stride5 --seed 7 --seconds 25 --trace 0

The scene (``SceneSpec(seed=<seed>, flame_onset=100)``, 500 frames at
320x240) is written as a numbered PPM directory and read back through
``frameio.frame_dir_source`` into ``DetectionPipeline.run``: one stream,
closed loop, single process, numpy path. Each frame is pulled only after
the previous one is done. The run replays the whole scene as often as it
takes to measure at least ``--seconds`` seconds.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced replay (see ``tracing.py``) and the
numpy kernel timings (see ``kernels.py``). Alarm logs and trained-file
digests are checked against ``reference.json``; any mismatch fails every
frame of the run and the exit code is 1. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

from inputs import FLAME_ONSET, ROOT, SCENE_FRAMES, SRC, use_source_tree

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# workload -> (camera, decision_stride); why each one is here, and why
# BENCHMARK.json leaves static_stride1 out, is in README.md
WORKLOADS = {
    "static_stride1": ("static", 1),
    "static_stride5": ("static", 5),
    "moving_stride1": ("moving", 1),
}
REFERENCE_SEED = 7
VIDEO_ID = "scene"
# at least two replays per run, so that every run compares two alarm logs
# and its percentiles rest on at least 1000 frames
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120


class PullClock:
    """Frame iterator that records when the pipeline pulls each frame."""

    def __init__(self, frames):
        self._frames = iter(frames)
        self.starts = []
        self.ends = []

    def __iter__(self):
        return self

    def __next__(self):
        self.starts.append(perf_counter())
        try:
            return next(self._frames)
        finally:
            self.ends.append(perf_counter())


class Pass:
    """One replay of the scene: per-frame latency, alarms, stage stats."""

    def __init__(self, clock, events, t_end, stats):
        s, e = clock.starts, clock.ends
        # latency of frame i: from the end of its pull to the start of the
        # next pull, which leaves out the iterator's own read time
        self.latencies_ms = [(s[i + 1] - e[i]) * 1e3 for i in range(len(s) - 1)]
        self.frames = len(self.latencies_ms)
        self.t_start = s[0]
        self.t_end = t_end
        self.events = events
        self.stats = stats

    @property
    def wall_s(self):
        return self.t_end - self.t_start

    def alarm_log(self):
        from pyrovigil.pipeline import format_alarm

        return [format_alarm(a) for a in self.events]


def replay(pipeline, frame_dir, seconds, min_passes):
    from pyrovigil.frameio import frame_dir_source

    passes = []
    t_begin = perf_counter()
    while len(passes) < min_passes or perf_counter() - t_begin < seconds:
        clock = PullClock(frame_dir_source(frame_dir))
        events = list(pipeline.run(clock, VIDEO_ID))
        passes.append(Pass(clock, events, perf_counter(), pipeline.stats))
    return passes


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_log(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def _run_child(args):
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return out


def make_inputs(work, seed, check_frames):
    """Training patches, the scene's frames and the first ``check_frames``
    frames of the reference scene; writer processes share the frames.
    Returns the scene's directory and the reference scene's."""
    from inputs import write_patches

    frame_dir = work / "frames"
    check_dir = frame_dir if seed == REFERENCE_SEED else work / "check"
    half = SCENE_FRAMES // 2
    slices = [(frame_dir, seed, 0, half), (frame_dir, seed, half, SCENE_FRAMES)]
    if check_dir != frame_dir:
        slices.append((check_dir, REFERENCE_SEED, 0, check_frames))
    for directory, *_ in slices:
        directory.mkdir(parents=True, exist_ok=True)
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "inputs.py"), "--dir", str(directory),
             "--seed", str(s), "--start", str(a), "--stop", str(b)],
            cwd=ROOT,
        )
        for directory, s, a, b in slices
    ]
    try:
        write_patches(work / "fire", work / "nonfire")
        codes = [p.wait(timeout=CHILD_TIMEOUT_S) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(codes):
        raise RuntimeError(f"frame writers exited with {codes}")
    return frame_dir, check_dir


def set_up(work, workload, trace):
    """Train (in a child process) and build the pipeline. Returns the
    pipeline, the set-up seconds, the child's span totals and the
    trained-file digests. Set-up runs once: each repeat would add its
    8-10 s to every run."""
    from pyrovigil.pipeline import DetectionPipeline, PipelineConfig

    camera, stride = WORKLOADS[workload]
    config = PipelineConfig(
        codebook_path=str(work / "codebook.pvcb"),
        model_path=str(work / "model.pvsm"),
        camera=camera,
        decision_stride=stride,
    )
    out = _run_child([str(HERE / "train.py"), "--work", str(work), "--trace", str(trace)])
    child = json.loads(out.strip().splitlines()[-1])
    t0 = perf_counter()
    pipeline = DetectionPipeline(config.validate())
    seconds = child["train_s"] + perf_counter() - t0
    digests = (sha256_file(config.codebook_path), sha256_file(config.model_path))
    return pipeline, seconds, child.get("spans_s", {}), digests


def plausible(events, scene):
    """Alarms of a scene with no reference log: at least one, and each on
    the flame after its onset (no alarm on the lamp or the car light)."""
    fx, fy, fw, fh = scene.flame_region()
    for a in events:
        x, y, w, h = a.bbox
        on_flame = x < fx + fw and fx < x + w and y < fy + fh and fy < y + h
        if a.frame_index < FLAME_ONSET or not on_flame:
            return False
    return bool(events)


def check_frames(expected):
    """Frames of the reference scene up to and including its last
    reference alarm (the frame index is the second field of the line)."""
    return 1 + max(int(line.split()[1]) for line in expected["alarms"])


def check_outputs(ref, workload, seed, scene, check_log, passes, digests):
    """Messages for every mismatch with the reference; empty when correct."""
    problems = []
    want = (ref["trained"]["codebook_sha256"], ref["trained"]["model_sha256"])
    if digests != want:
        problems.append(
            f"trained files differ from reference: codebook {digests[0]}, "
            f"model {digests[1]}"
        )
    expected = ref["workloads"][workload]

    def differs(log):
        return log != expected["alarms"] or sha256_log(log) != expected["alarms_sha256"]

    if differs(check_log):
        problems.append(f"reference scene: alarm log {check_log} differs from reference")
    logs = [p.alarm_log() for p in passes]
    if seed == REFERENCE_SEED:
        for i, log in enumerate(logs):
            if differs(log):
                problems.append(f"pass {i}: alarm log {log} differs from reference")
    else:
        for i, log in enumerate(logs[1:], 1):
            if log != logs[0]:
                problems.append(f"pass {i}: alarm log {log} differs from pass 0 {logs[0]}")
        if not plausible(passes[0].events, scene):
            problems.append(f"alarms not on the flame: {logs[0]}")
    return problems


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(passes, stride, setup_s):
    lat = [ms for p in passes for ms in p.latencies_ms]
    dec = [ms for p in passes for pos, ms in enumerate(p.latencies_ms) if pos % stride == 0]
    return {
        "fps": sum(p.frames for p in passes) / sum(p.wall_s for p in passes),
        "frame_ms_p50": percentile(lat, 50),
        "frame_ms_p98": percentile(lat, 98),
        "decision_ms_p50": percentile(dec, 50),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def unit(name):
    """Unit of a metric, read from its name."""
    if name.endswith("fps"):
        return "1/s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio", "_cover")):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, stride, setup_spans, kernel_ms, env):
    """Per-layer metrics of the traced passes; times in ms per frame."""
    t_from, t_to = traced[0].t_start, traced[-1].t_end
    tot = tracer.totals(t_from, t_to)
    c = tracer.counts
    frames = sum(p.frames for p in traced)
    decision_frames = sum(-(-p.frames // stride) for p in traced)

    def ms(name, own=False):
        calls, incl, self_s = tot.get(name, (0, 0.0, 0.0))
        return (self_s if own else incl) / frames * 1e3

    def setup_s(name):
        return setup_spans.get(name, 0.0)

    def cover(names, field):
        spans = sum(tot.get(n, (0, 0.0, 0.0))[1] for n in names)
        return _ratio(spans, sum(getattr(p.stats, field) for p in traced))

    gaps = sum(sum(p.latencies_ms) for p in traced) / 1e3
    untraced_fps = sum(p.frames for p in untraced) / sum(p.wall_s for p in untraced)
    traced_fps = frames / sum(p.wall_s for p in traced)
    metrics = {
        "proposal.propose_ms": ms("proposal.propose"),
        "proposal.propose_self_ms": ms("proposal.propose", own=True),
        # never 0: a moving camera has a threshold mask but no background model
        "proposal.mask_ms": ms("proposal.threshold") + ms("proposal.bg_update"),
        "proposal.open3_ms": ms("proposal.open3"),
        "proposal.label_ms": ms("proposal.label"),
        "proposal.blobs_per_frame": c["proposal.blobs"] / frames,
        "imaging.luma_calls_per_frame": c["imaging.luma"] / frames,
        "imaging.luma_ms": ms("imaging.luma"),
        "imaging.convert_ms": ms("imaging.convert"),
        "imaging.integral_ms": ms("imaging.integral"),
        "features.context_ms": ms("features.context"),
        "features.sample_ms": ms("features.sample"),
        "features.global_hist_ms": ms("features.global_hist"),
        "features.descriptors_per_blob": _ratio(c["features.descriptors"], c["features.sample"]),
        "codebook.encode_ms": ms("codebook.encode"),
        "codebook.encode_self_ms": ms("codebook.encode", own=True),
        "codebook.nn_ms": ms("codebook.nn"),
        "codebook.kmeans_s": setup_s("codebook.kmeans"),
        "codebook.setup_nn_s": setup_s("codebook.nn"),
        "classifier.predict_ms": ms("classifier.predict"),
        "classifier.calls_per_decision_frame": c["classifier.predict"] / decision_frames,
        "classifier.positive_frac": _ratio(c["classifier.positives"], c["classifier.predict"]),
        "classifier.train_s": setup_s("classifier.train"),
        "frameio.load_frame_ms": ms("frameio.load_frame"),
        "temporal.update_ms": ms("temporal.update"),
        "temporal.alarms": c["temporal.alarms"] / len(traced),
        "pipeline.self_ms": (
            gaps - tracer.root_seconds(t_from, t_to, exclude=("frameio.load_frame",))
        ) / frames * 1e3,
        "trace.fps": traced_fps,
        "trace.fps_ratio": traced_fps / untraced_fps,
        "trace.proposal_cover": cover(("proposal.propose",), "proposal_s"),
        "trace.features_cover": cover(("features.context", "features.sample"), "features_s"),
        "trace.classify_cover": cover(
            ("features.global_hist", "codebook.encode", "classifier.predict"), "classify_s"
        ),
        "trace.temporal_cover": cover(("temporal.update",), "temporal_s"),
        "env.src_lines": env["src_lines"],
    }
    metrics.update(kernel_ms)
    return metrics


def _blas_threads():
    import ctypes

    names = (
        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads",
    )
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment():
    import numpy
    from pyrovigil import accel

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = got.stdout.strip() or rev
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "git_revision": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "numba_active": bool(accel.NUMBA_ACTIVE),
        "blas_threads": _blas_threads(),
        "src_lines": src_lines,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pyrovigil" / "__init__.py").is_file():
        print(f"perfbench: no pyrovigil sources under {SRC}", file=sys.stderr)
        return 2
    use_source_tree()
    from inputs import scene

    work = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ref = json.loads(REFERENCE.read_text())
    n_check = check_frames(ref["workloads"][args.workload])
    try:
        frame_dir, check_dir = make_inputs(work, args.seed, n_check)
        pipeline, setup_s, setup_spans, digests = set_up(
            work, args.workload, args.trace
        )
        from pyrovigil.frameio import frame_dir_source
        from pyrovigil.pipeline import format_alarm

        # the reference scene up to its last alarm, replayed at every seed,
        # checks detection and is the warm-up before timing
        check = islice(frame_dir_source(check_dir), n_check)
        check_log = [format_alarm(a) for a in pipeline.run(check, VIDEO_ID)]
        # a traced run splits its time and passes between untraced and
        # traced replays
        share = 2 if args.trace else 1
        passes = replay(pipeline, frame_dir, args.seconds / share, MIN_PASSES // share)
        env = environment()
        _, stride = WORKLOADS[args.workload]
        if args.trace:
            from kernels import kernel_metrics
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = replay(pipeline, frame_dir, args.seconds / 2, MIN_PASSES // 2)
            finally:
                tracer.uninstall()
            for target in tracer.missing:
                print(f"perfbench: trace target {target} not found", file=sys.stderr)
            tracer.write(results / f"{stem}.spans.json")
            metrics = per_layer(
                tracer, traced, passes, stride, setup_spans,
                kernel_metrics(args.seed), env,
            )
            passes = passes + traced
        else:
            metrics = end_to_end(passes, stride, setup_s)
        problems = check_outputs(
            ref, args.workload, args.seed, scene(args.seed), check_log, passes, digests
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.frames for p in passes)
    failed = attempted if problems else 0
    log = passes[0].alarm_log()
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} frames in {len(passes)} passes, "
        f"{sum(p.wall_s for p in passes):.1f} s measured; one stream, closed loop"
    )
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit(name)}")
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ({failed} of {attempted} frames)")
    for msg in problems:
        print(f"  check FAILED: {msg}")
    if not problems:
        print(f"  check ok: alarm log {sha256_log(log)[:16]} ({len(log)} alarms), "
              f"codebook {digests[0][:16]}, model {digests[1][:16]}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()},
    }
    record = dict(
        result, env=env, problems=problems, alarms=log, alarms_sha256=sha256_log(log),
        codebook_sha256=digests[0], model_sha256=digests[1],
        latencies_ms=[p.latencies_ms for p in passes],
    )
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
