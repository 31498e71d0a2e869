"""Red and blue uniform-noise patches: two classes that color alone
separates, for small training runs."""

import numpy as np

from pyrovigil.imaging import ColorSpace, Frame


def _noise_patch(seed, salt, size, hot_channel):
    rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
    px = np.empty((size, size, 3))
    for c in range(3):
        lo, hi = (150, 255) if c == hot_channel else (0, 80)
        px[:, :, c] = rng.uniform(lo, hi, (size, size))
    # rounded to 8 bits here, as a frame and a PPM file hold uint8 only
    return Frame(np.rint(px).astype(np.uint8), ColorSpace.RGB)


def red_noise_patch(seed, size: int = 48) -> Frame:
    return _noise_patch(seed, 0x0ED, size, 0)


def blue_noise_patch(seed, size: int = 48) -> Frame:
    return _noise_patch(seed, 0xB1E, size, 2)
