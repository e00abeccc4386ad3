"""Interaction cost models of the three studied tools.

Each model replays the concrete action sequence the corresponding tool
requires for one mapping task and converts it into time, keystrokes and
mouse clicks through a user's motor/cognitive parameters:

* :class:`MWeaverModel` drives a real
  :class:`~repro.core.session.MappingSession` via the sample feeder;
  its keystrokes come from the characters of the samples the session
  actually consumed (discounted by auto-completion) and its machine
  time from the measured search/prune latencies.
* :class:`EireneModel` models the QBE-style workflow of Alexe et al.:
  the user must author *paired* source and target data examples,
  retyping join-key values to link related source tuples, and must read
  enough of the source schema to know what to fill in.
* :class:`InfoSphereModel` models the Clio-style match-driven workflow:
  browse the full source schema, review a list of proposed attribute
  correspondences per target column, then manually disambiguate the
  join path.

The differences the paper measured emerge from the workflow structure
itself: sample entry touches a handful of values; example pairing types
roughly twice as much and clicks through source forms; match review is
click- and comprehension-heavy because it scales with the *source
schema* rather than with the handful of samples.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.datasets.simulator import SampleFeeder
from repro.datasets.workload import MappingTask
from repro.relational.database import Database
from repro.study.users import UserProfile

#: Fraction of sample characters actually typed under auto-completion.
AUTOCOMPLETE_FRACTION = 0.55
#: Seconds to recall one sample fact ("what was that movie's director?").
RECALL_SECONDS = 5.0
#: Seconds to read one proposed mapping in the candidate list.
REVIEW_CANDIDATE_SECONDS = 4.0
#: Seconds of up-front orientation in the MWeaver spreadsheet UI.
MWEAVER_ORIENTATION_SECONDS = 20.0

#: Data examples a user must author in Eirene before the mapping fits.
EIRENE_EXAMPLES = 2
#: Seconds to design one paired example (before any typing).
EIRENE_EXAMPLE_THINK_SECONDS = 50.0
#: Characters of a join-key value, typed on both joined tuples.
JOIN_KEY_CHARACTERS = 3

#: Correspondence candidates reviewed per target column in InfoSphere.
INFOSPHERE_CANDIDATES_PER_COLUMN = 6
#: Seconds to judge one proposed attribute correspondence.
JUDGE_CORRESPONDENCE_SECONDS = 11.0
#: Seconds to reason about the generated mapping's join structure.
JOIN_REFINEMENT_THINK_SECONDS = 120.0

#: Seconds to read one relation / one attribute of an unfamiliar schema.
SCHEMA_RELATION_READ_SECONDS = 2.4
SCHEMA_ATTRIBUTE_READ_SECONDS = 0.55


@dataclass(frozen=True)
class ToolUsage:
    """Measured usage of one tool by one user on one task."""

    tool: str
    user: str
    dataset: str
    seconds: float
    keystrokes: int
    clicks: int

    def row(self) -> tuple[str, str, str, float, int, int]:
        """Flat tuple for table rendering."""
        return (
            self.tool,
            self.user,
            self.dataset,
            self.seconds,
            self.keystrokes,
            self.clicks,
        )


class ToolModel(ABC):
    """Cost model of one mapping tool."""

    name: str = "abstract"

    @abstractmethod
    def simulate(
        self, user: UserProfile, db: Database, task: MappingTask, seed: int
    ) -> ToolUsage:
        """Replay the task with this tool for ``user``."""

    @staticmethod
    def _schema_reading_seconds(user: UserProfile, db: Database) -> float:
        """Time to absorb enough of the source schema to proceed."""
        relations = len(db.schema)
        attributes = db.schema.attribute_count()
        return user.schema_read_factor * (
            relations * SCHEMA_RELATION_READ_SECONDS
            + attributes * SCHEMA_ATTRIBUTE_READ_SECONDS
        )

    @staticmethod
    def _average_value_length(db: Database, task: MappingTask) -> float:
        rows = task.target_rows(db, limit=40)
        total = sum(len(value) for row in rows for value in row)
        count = sum(len(row) for row in rows)
        return total / max(count, 1)


class MWeaverModel(ToolModel):
    """Sample-driven: type samples into a spreadsheet until convergence."""

    name = "MWeaver"

    def simulate(
        self, user: UserProfile, db: Database, task: MappingTask, seed: int
    ) -> ToolUsage:
        feeder = SampleFeeder(db, task, seed=seed)
        outcome = feeder.run()

        header_characters = sum(len(column) for column in task.columns)
        sample_keystrokes = math.ceil(
            outcome.typed_characters * AUTOCOMPLETE_FRACTION
        )
        # One confirming key (Tab/Enter) per cell, plus the headers.
        keystrokes = sample_keystrokes + outcome.n_samples + header_characters

        # The spreadsheet is keyboard-driven; clicks are the initial cell
        # focus, the information-bar expansion, and an occasional check.
        reviews = max(1, len(set(s for s, _c in outcome.candidate_history)))
        clicks = 12 + 2 * reviews + math.ceil(0.5 * outcome.n_samples)

        machine_seconds = outcome.search_seconds + sum(outcome.prune_seconds)
        think_seconds = user.think_factor * (
            MWEAVER_ORIENTATION_SECONDS
            + RECALL_SECONDS * outcome.n_samples
            + REVIEW_CANDIDATE_SECONDS * reviews
        )
        seconds = (
            user.typing_seconds(keystrokes)
            + user.clicking_seconds(clicks)
            + think_seconds
            + machine_seconds
        )
        return ToolUsage(self.name, user.label, db.name, seconds, keystrokes, clicks)


class EireneModel(ToolModel):
    """QBE-style: author paired source/target data examples."""

    name = "Eirene"

    def simulate(
        self, user: UserProfile, db: Database, task: MappingTask, seed: int
    ) -> ToolUsage:
        rng = random.Random(seed)
        value_length = self._average_value_length(db, task)
        n_vertices = len(task.goal.tree.vertices)
        n_edges = task.goal.n_joins

        # Per example: the full target tuple, one data value per source
        # relation that carries a projection, and the join-key values
        # typed on both sides of every join.
        projected_relations = len(
            {vertex for vertex, _attr in task.goal.projections.values()}
        )
        # Source-side values are typically copied partially (the tool
        # fills the rest from the instance), hence the 0.5 factor.
        per_example_characters = (
            task.target_size * value_length
            + projected_relations * value_length * 0.5
            + n_edges * 2 * JOIN_KEY_CHARACTERS
        )
        keystrokes = math.ceil(
            EIRENE_EXAMPLES * per_example_characters * rng.uniform(0.95, 1.1)
        )

        # Clicks: add or locate each source relation per example, field
        # navigation, and the fit/refine round trips.
        clicks = math.ceil(
            EIRENE_EXAMPLES * n_vertices * 5
            + EIRENE_EXAMPLES * task.target_size * 2
            + 18 * rng.uniform(0.9, 1.15)
        )

        think_seconds = user.think_factor * (
            EIRENE_EXAMPLES * EIRENE_EXAMPLE_THINK_SECONDS
            + RECALL_SECONDS * EIRENE_EXAMPLES * task.target_size
        ) + self._schema_reading_seconds(user, db)
        seconds = (
            user.typing_seconds(keystrokes)
            + user.clicking_seconds(clicks)
            + think_seconds
        )
        return ToolUsage(self.name, user.label, db.name, seconds, keystrokes, clicks)


class InfoSphereModel(ToolModel):
    """Clio-style match-driven: review correspondences, refine joins."""

    name = "InfoSphere"

    def simulate(
        self, user: UserProfile, db: Database, task: MappingTask, seed: int
    ) -> ToolUsage:
        rng = random.Random(seed)
        n_relations = len(db.schema)

        # Keystrokes: a search/filter string per target column plus
        # connection and naming dialogs.
        keystrokes = math.ceil(
            task.target_size * 9 + 28 * rng.uniform(0.85, 1.2)
        )

        # Clicks: expand a good share of the schema tree, click through
        # the proposed correspondences per column, then fix the join
        # path in the mapping editor.
        tree_clicks = math.ceil(0.7 * n_relations) * 2
        review_clicks = (
            task.target_size * INFOSPHERE_CANDIDATES_PER_COLUMN * 2
        )
        clicks = math.ceil(
            (tree_clicks + review_clicks + 30) * rng.uniform(0.9, 1.15)
        )

        think_seconds = (
            self._schema_reading_seconds(user, db)
            + user.think_factor
            * (
                JUDGE_CORRESPONDENCE_SECONDS
                * task.target_size
                * INFOSPHERE_CANDIDATES_PER_COLUMN
                / 2.0
                + JOIN_REFINEMENT_THINK_SECONDS
            )
        )
        seconds = (
            user.typing_seconds(keystrokes)
            + user.clicking_seconds(clicks)
            + think_seconds
        )
        return ToolUsage(self.name, user.label, db.name, seconds, keystrokes, clicks)


def default_tool_models() -> tuple[ToolModel, ...]:
    """The three tools of the study, MWeaver first."""
    return (MWeaverModel(), EireneModel(), InfoSphereModel())
