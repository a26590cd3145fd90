"""Flow-based feature density estimation with density-descending
perturbations for semi-supervised training on synthetic benchmarks."""

__version__ = "0.1.0"


def _keep_freed_arrays() -> None:
    """Have glibc's malloc keep freed arrays on its free lists.

    By default glibc serves blocks above 128 KiB with ``mmap`` and unmaps
    them when freed, so each training step's fresh (rows, hidden) arrays are
    page-faulted in again, zero-filled. Raising ``M_MMAP_THRESHOLD`` to 32
    MiB (glibc's 64-bit ceiling) and ``M_TRIM_THRESHOLD`` to 64 MiB keeps
    them in the heap for the next step to reuse. Set at import, so every
    command and every worker, forked or spawned, runs with it. Only speed
    depends on it: on other C libraries, or if glibc refuses a value (its
    ``mallopt`` returns 0), every output stays the same.
    """
    import ctypes
    import os

    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):   # not a glibc system
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


_keep_freed_arrays()
