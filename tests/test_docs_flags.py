"""The docs name only command-line flags that exist.

Every ``--flag`` in an inline code span of ``README.md`` or
``docs/*.md``, and every flag on an ``mweaver`` / ``python -m repro``
command line inside a fenced code block, must be an option of some
``mweaver`` subcommand.  A flag removed from :func:`repro.cli.build_parser`
then fails here until the docs stop naming it.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
INLINE = re.compile(r"`([^`\n]+)`")
FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")
COMMAND = re.compile(r"\bmweaver\b|-m repro\b")


def cli_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of ``parser`` and of its subcommands."""
    flags: set[str] = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= cli_flags(sub)
    return flags


def documented_flags(text: str) -> set[str]:
    """Flags in inline code spans and on fenced ``mweaver`` commands."""
    flags: set[str] = set()
    for block in FENCE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            if COMMAND.search(line):
                flags.update(FLAG.findall(line))
    for span in INLINE.findall(FENCE.sub("", text)):
        flags.update(FLAG.findall(span))
    return flags


def test_the_scan_reads_spans_and_fenced_commands():
    text = (
        "Use `--alpha` or `mweaver serve --beta 1`.\n"
        "```bash\nmweaver cluster --gamma \\\n  --delta\n"
        "python3 other.py --ignored\n```\n"
    )
    assert documented_flags(text) == {
        "--alpha", "--beta", "--gamma", "--delta",
    }


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_documented_flags_exist(doc):
    stale = documented_flags(doc.read_text()) - cli_flags(build_parser())
    assert not stale, f"{doc.name} names unknown flags: {sorted(stale)}"
