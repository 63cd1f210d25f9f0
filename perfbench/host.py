"""Host block: what the numbers were measured on.

Recorded with every run, never used as a metric: the CPU count, the
Python, numpy and scipy versions, the BLAS builds numpy and scipy report,
the BLAS thread variables as found (the benchmark never sets them), and a
fixed host-speed probe timed before and after the workload.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(config: dict) -> dict:
    deps = config.get("Build Dependencies", {})
    return {lib: {k: deps[lib].get(k) for k in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack") if lib in deps}


def host_block() -> dict:
    import numpy
    import scipy

    block = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        block["numpy_blas"] = _blas(numpy.show_config(mode="dicts"))
        block["scipy_blas"] = _blas(scipy.show_config(mode="dicts"))
    except (TypeError, AttributeError, KeyError):
        block["numpy_blas"] = block["scipy_blas"] = None
    return block


def speed_probe(repeats: int = 5) -> dict:
    """Median time of a fixed Python loop and of a fixed batch of small
    complex LU solves; a slow or busy host shows in both."""
    import numpy

    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    b = rng.standard_normal(64) + 0j
    loop, lapack = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        t1 = time.perf_counter()
        for _ in range(100):
            numpy.linalg.solve(a, b)
        t2 = time.perf_counter()
        loop.append(t1 - t0)
        lapack.append(t2 - t1)
    return {"python_loop_s": statistics.median(loop),
            "lapack_s": statistics.median(lapack)}
