"""Host fingerprint and process-tree peak memory.

The benchmark sets no BLAS or OpenMP thread variable: the fingerprint only
records the ones it finds, so a thread policy chosen by the program shows
up in the numbers.
"""

from __future__ import annotations

import os
import platform
import threading
from pathlib import Path
from typing import Dict, List

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        return {"name": "unknown", "version": None}


def fingerprint() -> Dict[str, object]:
    import numpy as np
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": _blas(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------- #
def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _descendants(pid: int) -> List[int]:
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except (OSError, ValueError):
                continue
            found.extend(children)
            frontier.extend(children)
    return found


class TreeMemory:
    """Samples the resident memory of this process and its descendants.

    The peak is the largest sampled sum of ``VmRSS`` over the tree, or this
    process's own high-water mark if that is larger.  Pages a forked child
    shares with its parent count in both.
    """

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-rss", daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        total = _status_kb(pid, "VmRSS:") + sum(
            _status_kb(child, "VmRSS:") for child in _descendants(pid)
        )
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "TreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        self._sample()
        own_peak = _status_kb(os.getpid(), "VmHWM:")
        return max(self.peak_kb, own_peak) / 1024.0

