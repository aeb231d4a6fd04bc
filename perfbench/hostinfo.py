"""Host fingerprint recorded with every run."""

from __future__ import annotations

import os
import platform
import re

NODE_DIR = "/sys/devices/system/node"


def effective_cpus() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def numa_nodes() -> int | None:
    """NUMA nodes the kernel exposes in sysfs, or ``None`` without sysfs."""
    try:
        entries = os.listdir(NODE_DIR)
    except OSError:
        return None
    return sum(1 for e in entries if re.fullmatch(r"node\d+", e))


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(start: tuple[int, int] | None) -> float | None:
    """Share of CPU time the hypervisor took away since ``start``.

    On a shared virtual machine this is the clearest sign that a run
    was slowed by its neighbours rather than by the program.
    """
    end = cpu_ticks()
    if start is None or end is None or end[1] == start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def fingerprint() -> dict:
    """Effective CPUs, NUMA nodes, versions and the load at start."""
    import numpy

    return {
        "effective_cpus": effective_cpus(),
        "numa_nodes": numa_nodes(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }
