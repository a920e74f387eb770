"""Run-environment block: which machine and how contended it was.

Host stalls (steal time on a shared VM, other tenants) distort wall-clock
latency more than anything the program does, so every result carries the
steal share of CPU time over the run, read as a ``/proc/stat`` delta,
next to the numbers it may have distorted.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Dict, Optional

__all__ = ["CpuTimes", "git_sha", "environment"]


class CpuTimes:
    """Snapshot of one ``cpu`` line of ``/proc/stat``.

    ``cpu`` names one CPU's line (``cpu1``); None reads the aggregate.
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.fields = self._read("cpu" if cpu is None else f"cpu{cpu}")

    @staticmethod
    def _read(label: str) -> Optional[list]:
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    parts = line.split()
                    if parts and parts[0] == label:
                        # user nice system idle iowait irq softirq steal ...
                        return [int(x) for x in parts[1:9]]
        except OSError:
            pass
        return None

    def steal_pct_since(self, earlier: "CpuTimes") -> float:
        """Steal ticks as a percentage of all ticks between two snapshots."""
        if self.fields is None or earlier.fields is None:
            return 0.0
        delta = [b - a for a, b in zip(earlier.fields, self.fields)]
        total = sum(delta)
        return 100.0 * delta[7] / total if total > 0 else 0.0


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, start: CpuTimes, end: CpuTimes) -> Dict[str, object]:
    try:
        load = os.getloadavg()
    except OSError:
        load = (0.0, 0.0, 0.0)
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "loadavg": list(load),
        "host.steal_pct": end.steal_pct_since(start),
    }
