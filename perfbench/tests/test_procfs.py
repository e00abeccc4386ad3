import subprocess
import sys
import time

from mwbench import procfs


def test_stat_parser_survives_spaces_and_parens_in_the_name():
    ticks = procfs._CLOCK_TICKS
    line = (
        f"4242 (odd ) name) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
        f"{3 * ticks} {2 * ticks} 0 0 20 0 1 0 100 1000 10"
    )
    assert procfs.parse_stat_cpu_s(line) == 5.0


def test_status_parser_reads_kb_values():
    text = "Name:\tpython\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n"
    assert procfs.parse_status_kb(text, "VmHWM") == 2048


def test_own_cpu_grows_with_work():
    before = procfs.cpu_s()
    deadline = time.process_time() + 0.1
    while time.process_time() < deadline:
        pass
    assert procfs.cpu_s() - before >= 0.05


def test_reads_another_process():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; print('up', flush=True); sys.stdin.read()"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline() == b"up\n"
        assert procfs.cpu_s(child.pid) >= 0.0
        assert procfs.peak_rss_mb(child.pid) > 1.0
    finally:
        child.stdin.close()
        child.stdout.close()
        child.wait(timeout=10)


def test_host_info_records_cores_and_python():
    info = procfs.host_info()
    assert info["nproc"] >= 1
    assert info["python"].count(".") == 2
