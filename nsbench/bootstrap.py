"""Process set-up shared by the benchmark's entry points (standard library only).

It must run before numpy is imported: BLAS reads its thread count once, at
load time.
"""

import os
import sys
import time
from pathlib import Path

_IMPORTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare():
    """Pin BLAS to one thread and put the checkout's ``src`` first on the path.

    Returns False when the checkout holds no ``src/neurosmc`` to benchmark.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "neurosmc" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def process_age_s():
    """Seconds since this process started.

    The start is the kernel's record, in clock ticks (10 ms) since boot, and
    "now" is read once from the boot-time clock, so a single reading covers
    interpreter start, imports and everything after.  Off Linux, the time
    since this module was imported.
    """
    try:
        with open("/proc/self/stat") as fh:
            # fields after the parenthesised command name start at field 3;
            # starttime is field 22, in clock ticks since boot
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(now - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (AttributeError, OSError, ValueError, IndexError):
        return time.perf_counter() - _IMPORTED
