"""Process environment of the benchmark and the machine facts it records.

The solver is single-threaded; BLAS is pinned to one thread in every
benchmark process so that the load is one process with one solver thread.
"""

import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare():
    """Pin BLAS threads and put the solver source first on sys.path.

    Call before numpy is imported.  Exits with code 2 when the checkout
    holds no solver source.
    """
    if not (SRC / "euler2d" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no solver source at {SRC / 'euler2d'}\n")
        raise SystemExit(2)
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    caches = {}
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return caches


def _git_rev():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_rev": _git_rev(),
    }
