"""Benchmark set-up, run in a child process: train the codebook and the
model with the recipe of ``tests/conftest.py`` (k=500, 50 iterations,
seed 3) and print the timings as one JSON line.

Training runs in its own process so that the peak resident memory of the
benchmark's main process is that of detection, as for ``pyrovigil detect``.

    python3 perfbench/train.py --work DIR [--trace 1]
"""

import argparse
import json
from pathlib import Path
from time import perf_counter

from inputs import use_source_tree

CODEBOOK_K = 500
CODEBOOK_ITERATIONS = 50
TRAIN_SEED = 3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    use_source_tree()
    from pyrovigil.features import SamplingPlan
    from pyrovigil.pipeline import train_codebook, train_model

    work = Path(args.work)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    book = train_codebook(
        [work / "fire", work / "nonfire"], SamplingPlan(), k=CODEBOOK_K,
        iterations=CODEBOOK_ITERATIONS, seed=TRAIN_SEED,
        out_path=work / "codebook.pvcb", log=None,
    )
    train_model(
        work / "fire", work / "nonfire", book, seed=TRAIN_SEED,
        out_path=work / "model.pvsm", log=None,
    )
    out = {"train_s": perf_counter() - t0}
    if tracer is not None:
        tracer.uninstall()
        totals = tracer.totals()
        out["spans_s"] = {name: incl for name, (_, incl, _) in totals.items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
