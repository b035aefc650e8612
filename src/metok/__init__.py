"""Event-aware visual-token compression pipeline on a deterministic toy transformer."""

import os
import sys

__version__ = "0.1.0"

# The toy prefill runs one head chunk per usable CPU, so a multi-threaded BLAS
# under it oversubscribes the CPUs. BLAS reads its thread count when numpy
# loads: pin it to one thread unless the caller set it or loaded numpy first.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
