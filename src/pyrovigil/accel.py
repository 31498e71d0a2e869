"""Kernel dispatch: numba-compiled loops vs. pure-numpy fallbacks.

The hot inner loops of imaging, features, proposal and the classifier
exist twice: a numba ``@njit`` version and a vectorized numpy version
with identical semantics. The
numba path is the default whenever numba imports cleanly; setting the
environment variable ``PYROVIGIL_NO_NUMBA=1`` (checked once, at import)
forces the numpy path. ``benchmarks/bench_kernels.py`` times both.
"""

import os

_flag = os.environ.get("PYROVIGIL_NO_NUMBA", "").strip().lower()
NUMBA_REQUESTED = _flag in ("", "0", "false", "no")

if NUMBA_REQUESTED:
    try:
        import numba as _numba

        NUMBA_ACTIVE = True
    except ImportError:
        _numba = None
        NUMBA_ACTIVE = False
else:
    _numba = None
    NUMBA_ACTIVE = False


def njit(**options):
    """``numba.njit(cache=True, **options)`` when active, identity otherwise."""

    def decorate(func):
        if NUMBA_ACTIVE:
            return _numba.njit(cache=True, **options)(func)
        return func

    return decorate


if NUMBA_ACTIVE:
    prange = _numba.prange
else:
    prange = range


def pick(jit_version, numpy_version):
    """Select the implementation bound to the active path."""
    return jit_version if NUMBA_ACTIVE else numpy_version
