"""Input generation for the detection benchmark.

Every input is a pure function of the seed: the replayed scene is
``SceneSpec(seed=<seed>, flame_onset=100)`` from ``pyrovigil.synth``, and
the training patches follow the recipe of ``tests/conftest.py`` (100 fire
+ 100 non-fire patches). Both are written as numbered PPM directories, the
format ``pyrovigil detect`` and ``pyrovigil train-*`` read.

Run as a script, it writes one slice of a scene's frames; the benchmark
starts two such writers for the scene and, when ``--seed`` is not the
reference seed, a third for the first frames of the reference scene:

    python3 perfbench/inputs.py --dir DIR --seed 7 --start 0 --stop 250
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SCENE_FRAMES = 500
FLAME_ONSET = 100
PATCHES_PER_CLASS = 100


def use_source_tree():
    """Import pyrovigil from this checkout's ``src/`` on the numpy path.

    Call before numpy is imported: BLAS threads are capped at the CPUs this
    process may run on, unless the caller already chose a count. Child
    processes inherit the setting.
    """
    os.environ["PYROVIGIL_NO_NUMBA"] = "1"
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cpus)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scene(seed):
    from pyrovigil.synth import SceneSpec, SyntheticScene

    return SyntheticScene(SceneSpec(seed=seed, flame_onset=FLAME_ONSET))


def write_frames(directory, seed, start, stop):
    from pyrovigil.frameio import write_ppm

    sc = scene(seed)
    for t in range(start, stop):
        write_ppm(Path(directory) / f"{t:06d}.ppm", sc.frame(t).pixels)


def write_patches(fire_dir, nonfire_dir):
    from pyrovigil.frameio import write_ppm
    from pyrovigil.synth import fire_patch, nonfire_patch

    for d in (fire_dir, nonfire_dir):
        Path(d).mkdir(parents=True, exist_ok=True)
    for i in range(PATCHES_PER_CLASS):
        write_ppm(Path(fire_dir) / f"{i:06d}.ppm", fire_patch(i).pixels)
        write_ppm(Path(nonfire_dir) / f"{i:06d}.ppm", nonfire_patch(i).pixels)


def main():
    ap = argparse.ArgumentParser(description="write a slice of the scene's frames")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, required=True)
    ap.add_argument("--stop", type=int, required=True)
    args = ap.parse_args()
    use_source_tree()
    write_frames(args.dir, args.seed, args.start, args.stop)


if __name__ == "__main__":
    main()
