"""Pairwise mapping paths are distinct by construction.

``generate_pairwise_mapping_paths`` keeps every path it creates, with no
signature deduplication.  That is sound only if two distinct schema
walks (or two attribute choices) in one ``(key_i, key_j)`` bucket never
yield isomorphic paths: vertex 0 alone projects ``key_i``, so an
isomorphism cannot reverse the chain; FK names are unique, so a step's
name fixes its edge; and a self-loop step keeps its orientation.  These
tests pin that on every bundled schema plus one with a self-loop FK and
two parallel FKs, and pin the path counts the signature-deduplicating
generator produced.

The pairwise tuple paths instantiated from them are distinct too, so the
weave takes them without signing.  Forgetting the rows keeps an
isomorphism, so tuple paths of non-isomorphic mapping paths are
non-isomorphic; and a chain whose ends project different keys has no
non-trivial automorphism, so one mapping path's distinct row bindings
give non-isomorphic tuple paths.
"""

import pytest

from repro.config import TPWConfig
from repro.core.instantiate import create_pairwise_tuple_paths
from repro.core.location import build_location_map
from repro.core.pairwise import count_pairwise_paths, generate_pairwise_mapping_paths
from repro.datasets.running_example import build_running_example
from repro.datasets.workload import user_study_task_imdb
from repro.graphs.schema_graph import SchemaGraph
from repro.relational.database import Database
from repro.relational.schema import (
    Attribute,
    DatabaseSchema,
    ForeignKey,
    RelationSchema,
)
from repro.relational.types import DataType
from repro.text.errors import CaseTokenModel

from tests.core.frozen_weave import frozen_tuple_signature

MODEL = CaseTokenModel()

#: Samples of the self-loop / parallel-FK schema: a team title and two
#: employee names, so walks cross both team FKs and the manager loop.
LOOPS_SAMPLES = ("Rocket Team", "Ben Middle", "Cara Leaf")


def build_loops_db() -> Database:
    """Employees with a self-referencing manager FK, and teams with two
    parallel FKs (lead, deputy) into employees."""
    integer = DataType.INTEGER
    schema = DatabaseSchema(
        [
            RelationSchema(
                "employee",
                (
                    Attribute("eid", integer, fulltext=False),
                    Attribute("name"),
                    Attribute("manager", integer, fulltext=False),
                ),
                ("eid",),
                (
                    ForeignKey(
                        "employee_manager", "employee", ("manager",),
                        "employee", ("eid",),
                    ),
                ),
            ),
            RelationSchema(
                "team",
                (
                    Attribute("tid", integer, fulltext=False),
                    Attribute("title"),
                    Attribute("lead", integer, fulltext=False),
                    Attribute("deputy", integer, fulltext=False),
                ),
                ("tid",),
                (
                    ForeignKey("team_lead", "team", ("lead",), "employee", ("eid",)),
                    ForeignKey(
                        "team_deputy", "team", ("deputy",), "employee", ("eid",)
                    ),
                ),
            ),
        ]
    )
    db = Database(schema, name="loops")
    db.insert("employee", (1, "Ada Root", None))
    db.insert("employee", (2, "Ben Middle", 1))
    db.insert("employee", (3, "Cara Leaf", 2))
    db.insert("team", (1, "Rocket Team", 2, 3))
    db.validate_referential_integrity()
    return db


def first_row(task, db):
    return tuple(str(value) for value in task.target_rows(db, limit=1)[0])


@pytest.fixture(scope="module")
def cases(yahoo_db, imdb_db, task_sets):
    return {
        "yahoo": (yahoo_db, first_row(task_sets[0].task_for_size(5), yahoo_db)),
        "imdb": (imdb_db, first_row(user_study_task_imdb(), imdb_db)),
        "running": (
            build_running_example(),
            ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand"),
        ),
        "loops": (build_loops_db(), LOOPS_SAMPLES),
    }


#: Paths the signature-deduplicating generator kept, per case and
#: (PMNJ, allow_backtrack).
EXPECTED_COUNTS = {
    "yahoo": {
        (1, False): 21, (1, True): 21, (2, False): 137, (2, True): 403,
        (3, False): 204, (3, True): 652,
    },
    "imdb": {
        (1, False): 1, (1, True): 1, (2, False): 3, (2, True): 3,
        (3, False): 9, (3, True): 19,
    },
    "running": {
        (1, False): 0, (1, True): 0, (2, False): 4, (2, True): 4,
        (3, False): 4, (3, True): 4,
    },
    "loops": {
        (1, False): 7, (1, True): 7, (2, False): 21, (2, True): 23,
        (3, False): 57, (3, True): 79,
    },
}


@pytest.mark.parametrize("allow_backtrack", [False, True])
@pytest.mark.parametrize("pmnj", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(EXPECTED_COUNTS))
def test_pairwise_paths_distinct_by_construction(cases, case, pmnj, allow_backtrack):
    db, samples = cases[case]
    location_map = build_location_map(db, samples, MODEL)
    config = TPWConfig(pmnj=pmnj, allow_backtrack=allow_backtrack)
    pmpm = generate_pairwise_mapping_paths(SchemaGraph(db.schema), location_map, config)
    for paths in pmpm.values():
        signatures = [path.signature() for path in paths]
        assert len(set(signatures)) == len(signatures)
    assert count_pairwise_paths(pmpm) == EXPECTED_COUNTS[case][(pmnj, allow_backtrack)]


@pytest.mark.parametrize("case", sorted(EXPECTED_COUNTS))
def test_pairwise_tuple_paths_distinct_by_construction(cases, case):
    """The weave takes pairwise tuple paths unsigned: distinct mapping
    paths, and distinct rows within one, never instantiate two
    isomorphic tuple paths."""
    db, samples = cases[case]
    config = TPWConfig()
    location_map = build_location_map(db, samples, MODEL)
    pmpm = generate_pairwise_mapping_paths(SchemaGraph(db.schema), location_map, config)
    ptpm, _valid = create_pairwise_tuple_paths(db, pmpm, samples, MODEL, config)
    signatures = [
        frozen_tuple_signature(path) for paths in ptpm.values() for path in paths
    ]
    assert signatures
    assert len(set(signatures)) == len(signatures)
