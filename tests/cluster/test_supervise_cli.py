"""End-to-end test of ``mweaver supervise`` as a real process.

The supervisor boots its shards, prints one ``shard-N listening on``
line each, respawns a SIGKILLed shard on the port it had, and on
SIGTERM stops every shard and exits 0 with ``supervisor stopped``.
Child processes are found through ``/proc``, so the respawn check runs
on Linux only.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.error import URLError
from urllib.request import urlopen

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"
LISTENING = re.compile(r"^(shard-\d+) listening on (http://\S+)$")


def _children(pid: int) -> set[int]:
    children: set[int] = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        listed = (task / "children").read_text().split()
        children.update(int(child) for child in listed)
    return children


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _healthy(url: str) -> bool:
    try:
        with urlopen(f"{url}/healthz", timeout=2.0) as response:  # noqa: S310
            return response.status == 200
    except (URLError, OSError):
        return False


def _wait(predicate, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.05)


@pytest.mark.parametrize(
    "flags", [["--shards", "0"], ["--poll-interval", "0"]]
)
def test_bad_settings_exit_2(flags, capsys):
    assert main(["supervise", *flags]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.slow
@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs Linux /proc"
)
def test_respawns_a_killed_shard_and_stops_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    supervisor = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "supervise",
         "--shards", "2", "--poll-interval", "0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    # Unblocks the stdout reads below should the supervisor hang.
    watchdog = threading.Timer(120.0, supervisor.kill)
    watchdog.start()
    children: set[int] = set()
    try:
        urls: dict[str, str] = {}
        for line in supervisor.stdout:
            match = LISTENING.match(line.strip())
            if match:
                urls[match.group(1)] = match.group(2)
            if line.startswith("supervising"):
                break
        assert sorted(urls) == ["shard-0", "shard-1"]
        ports = {url.rpartition(":")[2] for url in urls.values()}
        original = _children(supervisor.pid)
        children = set(original)
        assert len(original) == 2

        victim = min(original)
        os.kill(victim, signal.SIGKILL)
        _wait(lambda: len(_children(supervisor.pid) - original) == 1)
        (respawned,) = _children(supervisor.pid) - original
        children.add(respawned)
        argv = Path(f"/proc/{respawned}/cmdline").read_text().split("\0")
        port = argv[argv.index("--port") + 1]
        assert port in ports  # pinned to the port the shard had
        _wait(lambda: _healthy(f"http://127.0.0.1:{port}"))
        assert all(_healthy(url) for url in urls.values())

        supervisor.send_signal(signal.SIGTERM)
        output, _ = supervisor.communicate(timeout=60.0)
        assert supervisor.returncode == 0, output
        assert "supervisor stopped" in output
        _wait(lambda: not any(_running(pid) for pid in children), 10.0)
    finally:
        watchdog.cancel()
        if supervisor.poll() is None:
            supervisor.kill()
            supervisor.communicate()
        for pid in children:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
