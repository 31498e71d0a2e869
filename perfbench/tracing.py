"""Outside-in tracing of the detection pipeline.

The benchmark wraps public functions of each pyrovigil module from here;
nothing under ``src/`` knows about it. Each wrapped call records a span
(name, start, end, parent) in memory, and a few wrappers also count what
the call returned. Spans are written out once, when the benchmark ends.

Span names are ``<module>.<layer>``. A function imported into several
modules is patched at each binding the detection path calls through.
"""

import functools
import json
from collections import Counter
from time import perf_counter


def _count_blobs(counts, result):
    counts["proposal.blobs"] += len(result[0])


def _count_descriptors(counts, result):
    counts["features.descriptors"] += len(result)


def _count_prediction(counts, result):
    counts["classifier.positives"] += result[0] > 0


def _count_alarms(counts, result):
    counts["temporal.alarms"] += len(result)


# (module, owner attribute path, span name, counter)
TARGETS = (
    ("proposal", "ProposalEngine.propose", "proposal.propose", _count_blobs),
    ("proposal", "multi_level_threshold", "proposal.threshold", None),
    ("proposal", "BackgroundModel.update", "proposal.bg_update", None),
    ("proposal", "binary_open3", "proposal.open3", None),
    ("proposal", "label_components", "proposal.label", None),
    ("proposal", "luma", "imaging.luma", None),
    ("imaging", "luma", "imaging.luma", None),
    ("pipeline", "SampleContext", "features.context", None),
    ("features", "SampleContext", "features.context", None),
    ("pipeline", "sample", "features.sample", _count_descriptors),
    ("pipeline", "histogram_from_pixels", "features.global_hist", None),
    ("features", "convert", "imaging.convert", None),
    ("imaging", "convert", "imaging.convert", None),
    ("features", "integral", "imaging.integral", None),
    ("codebook", "encode", "codebook.encode", None),
    ("codebook", "NNIndex.query_batch", "codebook.nn", None),
    ("codebook", "kmeans", "codebook.kmeans", None),
    ("classifier", "predict", "classifier.predict", _count_prediction),
    ("classifier", "train", "classifier.train", None),
    ("temporal", "Tracker.update", "temporal.update", _count_alarms),
    ("frameio", "load_frame", "frameio.load_frame", None),
)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.starts[sid] = t0
                tracer.ends[sid] = t1
            tracer.counts[name] += 1
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def install(self):
        import importlib

        for module_name, path, name, count in TARGETS:
            owner = importlib.import_module(f"pyrovigil.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, original, count))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self, t_from=float("-inf"), t_to=float("inf")):
        """Per span name: (calls, inclusive seconds, self seconds) over spans
        that start inside [t_from, t_to)."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out = {}
        for sid, name in enumerate(self.names):
            if not t_from <= self.starts[sid] < t_to:
                continue
            dur = self.ends[sid] - self.starts[sid]
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + dur, own + dur - child[sid])
        return out

    def root_seconds(self, t_from, t_to, exclude=()):
        """Summed duration of top-level spans inside [t_from, t_to)."""
        return sum(
            self.ends[sid] - self.starts[sid]
            for sid, parent in enumerate(self.parents)
            if parent < 0
            and t_from <= self.starts[sid] < t_to
            and self.names[sid] not in exclude
        )

    def write(self, path):
        """Spans as ``[name, start_us, end_us, parent]`` rows, parent being
        a row number or -1; times are relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [name, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows, "counts": dict(self.counts)}, f)
