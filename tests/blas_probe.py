"""The thread count the loaded OpenBLAS reports, for test scripts run in their own process.

Only the standard library is imported here, so a script can import this module
before numpy or metok without changing what loads first. bench/run.py asks the
same way.
"""

import ctypes


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
