"""The docs name only command-line flags that exist.

Every ``--flag`` in an inline code span of ``README.md`` or
``docs/*.md``, and every flag on an ``mweaver`` / ``python -m repro``
command line inside a fenced code block, must be an option of the
subcommand it is given to (``mweaver supervise --flag`` is checked
against ``supervise`` alone); a flag named outside a command must be an
option of some ``mweaver`` subcommand.  A flag removed from
:func:`repro.cli.build_parser` then fails here until the docs stop
naming it.
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
#: A command and the word after it, its subcommand if it names one.
INVOCATION = re.compile(
    r"(?:\bmweaver\b|-m repro\b(?:\.cli\b)?)(?:\s+([a-z][a-z-]*))?"
)


def _subparsers(
    parser: argparse.ArgumentParser,
) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def subcommand_flags(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Each subcommand's long options."""
    return {
        name: _long_options(sub) for name, sub in _subparsers(parser).items()
    }


def cli_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of ``parser`` and of its subcommands."""
    flags = _long_options(parser)
    for sub in _subparsers(parser).values():
        flags |= cli_flags(sub)
    return flags


def _command_flags(line: str) -> list[tuple[str | None, str]]:
    """``(subcommand, flag)`` for each flag on ``line``.

    A flag belongs to the nearest command before it; one before every
    command, or after a command that names no subcommand, gets ``None``.
    """
    found: list[tuple[str | None, str]] = []
    invocations = list(INVOCATION.finditer(line))
    starts = [0] + [match.start() for match in invocations]
    ends = starts[1:] + [len(line)]
    for index, (start, end) in enumerate(zip(starts, ends)):
        command = invocations[index - 1].group(1) if index else None
        found.extend((command, flag) for flag in FLAG.findall(line[start:end]))
    return found


def documented_command_flags(text: str) -> list[tuple[str | None, str]]:
    """``(subcommand, flag)`` pairs in inline code spans and on fenced
    ``mweaver`` commands; ``None`` where no subcommand is named."""
    found: list[tuple[str | None, str]] = []
    for block in FENCE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            if COMMAND.search(line):
                found.extend(_command_flags(line))
    for span in INLINE.findall(FENCE.sub("", text)):
        found.extend(_command_flags(span))
    return found


def documented_flags(text: str) -> set[str]:
    """Flags in inline code spans and on fenced ``mweaver`` commands."""
    return {flag for _, flag in documented_command_flags(text)}


def test_the_scan_reads_spans_and_fenced_commands():
    text = (
        "Use `--alpha` or `mweaver serve --beta 1`.\n"
        "```bash\nmweaver cluster --gamma \\\n  --delta\n"
        "python3 other.py --ignored\n```\n"
    )
    assert documented_flags(text) == {
        "--alpha", "--beta", "--gamma", "--delta",
    }


def test_flags_are_checked_against_their_own_subcommand():
    text = (
        "Run `mweaver supervise --shards 3 --journal-dir d`.\n"
        "```bash\npython -m repro.cli serve --port 1 \\\n  --journal-dir d"
        " & mweaver shard --journal-dir d\n```\n"
        "Or `--port`, or `mweaver --help`.\n"
    )
    assert sorted(documented_command_flags(text), key=str) == sorted([
        ("supervise", "--shards"), ("supervise", "--journal-dir"),
        ("serve", "--port"), ("serve", "--journal-dir"),
        ("shard", "--journal-dir"), (None, "--port"), (None, "--help"),
    ], key=str)
    assert _stale(text) == [
        "shard --journal-dir", "supervise --journal-dir",
    ]


def _stale(text: str) -> list[str]:
    parser = build_parser()
    per_command, every = subcommand_flags(parser), cli_flags(parser)
    return sorted(
        f"{command or 'mweaver'} {flag}"
        for command, flag in documented_command_flags(text)
        if flag not in per_command.get(command, every)
    )


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_documented_flags_exist(doc):
    stale = _stale(doc.read_text())
    assert not stale, f"{doc.name} names unknown flags: {stale}"
