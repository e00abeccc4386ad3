"""CPU and memory readers over ``/proc`` (Linux)."""

from __future__ import annotations

import os
import platform

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def parse_stat_cpu_s(stat_line: str) -> float:
    """User plus system CPU seconds from one ``/proc/<pid>/stat`` line.

    The command name (field 2) may hold spaces and parentheses, so the
    fields are counted from the last ``)``: utime and stime are fields
    14 and 15 of the whole line.
    """
    fields = stat_line.rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state), so field N sits at index N - 3.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def parse_status_kb(status_text: str, key: str) -> int:
    """One ``kB`` value (e.g. ``VmHWM``) from ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith(f"{key}:"):
            return int(line.split()[1])
    raise KeyError(key)


def cpu_s(pid: int | str = "self") -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return parse_stat_cpu_s(handle.read())


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        return parse_status_kb(handle.read(), "VmHWM") / 1024


def host_info() -> dict[str, object]:
    """What every result records about the machine it ran on."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
