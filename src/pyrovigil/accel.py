"""Compiled-kernel status.

Every kernel has one implementation, in numpy; nothing is compiled.
``NUMBA_ACTIVE`` stays for scripts that record the kernel path next to
their measurements (``perfbench/run.py`` does).
"""

NUMBA_ACTIVE = False
