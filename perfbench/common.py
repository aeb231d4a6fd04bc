"""Shared helpers: locating the program, statistics, the virtual clock."""

from __future__ import annotations

import heapq
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Root of the checkout: the directory that holds ``perfbench/``.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals and trace dumps; emptied by each run.
WORK = os.path.join(HERE, "_work")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_source_tree() -> None:
    """Import ``repro`` from ``src/`` of this checkout, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(
            f"no program sources under {SRC}: run the benchmark from a "
            f"checkout of the repository"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for processes that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_WORKERS", None)
    return env


def fresh_dir(*parts: str) -> str:
    """An empty directory under :data:`WORK`."""
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    """Median of a non-empty sample."""
    return percentile(values, 50.0)


def recover_copies(journal_dir: str, count: int, recover) -> list:
    """Run ``recover(dir)`` on ``count`` fresh copies of ``journal_dir``."""
    out = []
    for index in range(count):
        copy = os.path.join(WORK, f"recover-copy{index}")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(journal_dir, copy)
        out.append(recover(copy))
    return out


class VirtualClock:
    """A clock and ``call_later`` the benchmark advances by hand.

    The service core takes its time source and timer scheduler as
    arguments; giving it this clock removes the real 20 ms debounce and
    every scheduler wake-up from the in-process measurements.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: list = []
        self._seq = 0

    def clock(self) -> float:
        """Current virtual time in seconds."""
        return self.now

    def call_later(self, delay: float, fn) -> None:
        """Run ``fn`` once the clock has advanced ``delay`` seconds."""
        self._seq += 1
        heapq.heappush(self._timers, (self.now + delay, self._seq, fn))

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt``, firing every timer that falls due."""
        until = self.now + dt
        while self._timers and self._timers[0][0] <= until:
            when, _, fn = heapq.heappop(self._timers)
            self.now = max(self.now, when)
            fn()
        self.now = until
