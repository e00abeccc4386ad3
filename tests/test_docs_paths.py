"""The docs name only repository files that exist.

Every path under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``,
and every package path ``repro/...`` (read as ``src/repro/...``), that
``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` or ``docs/*.md`` names
must exist.  A placeholder (``<name>``, ``{id}``) or a ``*`` must match
at least one file.  A deleted or renamed module then fails here until
the docs stop naming it.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples|repro)/[\w.*/{}<>-]*)"
)
PLACEHOLDER = re.compile(r"<[^>/]*>|\{[^}/]*\}")


def documented_paths(text: str) -> set[str]:
    """Repository paths named anywhere in ``text``, repo-root relative."""
    paths = set()
    for match in PATH.findall(text):
        path = match.rstrip(".")
        paths.add(f"src/{path}" if path.startswith("repro/") else path)
    return paths


def exists(path: str) -> bool:
    """Whether ``path`` names a file or directory (a pattern: any)."""
    pattern = PLACEHOLDER.sub("*", path)
    if "*" in pattern:
        return any(ROOT.glob(pattern.rstrip("/")))
    return (ROOT / path).exists()


def test_the_scan_reads_paths_and_patterns():
    text = (
        "See `repro/core/tpw.py`, tests/core/test_tpw.py::TestX and\n"
        "`python examples/<name>.py`; not results/x.txt or my_repro/a.py.\n"
    )
    assert documented_paths(text) == {
        "src/repro/core/tpw.py", "tests/core/test_tpw.py",
        "examples/<name>.py",
    }
    assert exists("examples/<name>.py")
    assert exists("src/repro/core/")
    assert not exists("src/repro/no_such_module.py")


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_documented_paths_exist(doc):
    missing = sorted(
        path for path in documented_paths(doc.read_text()) if not exists(path)
    )
    assert not missing, f"{doc.name} names missing files: {missing}"
