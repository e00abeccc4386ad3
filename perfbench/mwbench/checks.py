"""Ground-truth checks on every output the benchmark receives.

A check raises :class:`IncorrectOutput`; the workloads count a flow
that raised as failed and the run as incorrect.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Any

#: The running example's goal mapping (movie -direct- person), as the
#: service renders it: the title and director of each movie.
RUNNING_GOAL = (
    "[movie#0 -direct_mid- direct#1 ; direct#1 -direct_pid- person#2] "
    "{0->movie.title, 1->person.name}"
)

#: The cells every HTTP flow writes: the Avatar row triggers the
#: search, the Big Fish row prunes the write-join candidate away.
RUNNING_CELLS: tuple[tuple[int, int, str], ...] = (
    (0, 0, "Avatar"),
    (0, 1, "James Cameron"),
    (1, 0, "Big Fish"),
    (1, 1, "Tim Burton"),
)


class IncorrectOutput(AssertionError):
    """An output disagrees with the ground truth."""


def check_goal_alive(
    signatures: Iterable[Hashable], goal: Hashable, *, samples: int
) -> None:
    """The goal mapping must survive every sample fed so far."""
    if goal not in set(signatures):
        raise IncorrectOutput(
            f"goal mapping pruned after {samples} samples"
        )


def flow_outcome(ranked: Sequence[Hashable], goal: Hashable) -> str:
    """Final verdict of a sample-feeding flow over ranked signatures.

    The goal must rank first.  A flow whose goal ranks first among
    several survivors (the sample cap ran out first) is
    ``"unconverged"``, not a failure; one survivor is ``"converged"``.
    """
    if not ranked or ranked[0] != goal:
        raise IncorrectOutput("goal mapping does not rank first")
    return "converged" if len(ranked) == 1 else "unconverged"


def check_same_candidates(
    traced: Sequence[Any], reference: Sequence[Any], *, what: str
) -> None:
    """The benchmark's phase-by-phase result must equal the program's."""
    if list(traced) != list(reference):
        raise IncorrectOutput(
            f"{what}: phase-by-phase result differs from MappingSession "
            f"({len(traced)} vs {len(reference)} candidates)"
        )


def check_cell_reply(status: int, body: Any, *, expect: str) -> None:
    """A ``POST /sessions/{id}/cells`` reply on the running example."""
    if status != 200 or not isinstance(body, Mapping):
        raise IncorrectOutput(f"cell answered {status}")
    if not body.get("applied") or body.get("degraded"):
        raise IncorrectOutput(f"cell not applied cleanly: {body}")
    if body.get("status") != expect:
        raise IncorrectOutput(
            f"session is {body.get('status')!r}, expected {expect!r}"
        )


def check_candidates_reply(status: int, body: Any, *, converged: bool) -> None:
    """A ``GET candidates?sql=1`` reply: the goal mapping, with its SQL.

    Before the second row the goal must be among the candidates; after
    it, the goal must be the only one.
    """
    if status != 200 or not isinstance(body, Mapping):
        raise IncorrectOutput(f"candidates answered {status}")
    items = body.get("candidates") or []
    mappings = [item.get("mapping") for item in items]
    if RUNNING_GOAL not in mappings:
        raise IncorrectOutput(f"goal mapping missing from {mappings}")
    if not all(item.get("sql", "").startswith("SELECT") for item in items):
        raise IncorrectOutput("candidate without SQL")
    if converged and (
        body.get("status") != "converged" or mappings != [RUNNING_GOAL]
    ):
        raise IncorrectOutput(f"not converged on the goal: {mappings}")
