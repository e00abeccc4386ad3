"""Unit tests for pairwise tuple path creation (Section 4.5.3)."""

import pytest

from repro.config import TPWConfig
from repro.core.instantiate import (
    create_pairwise_tuple_paths,
    instantiate_mapping_path,
)
from repro.core.location import build_location_map
from repro.core.mapping_path import MappingPath
from repro.core.pairwise import generate_pairwise_mapping_paths
from repro.graphs.schema_graph import SchemaGraph
from repro.relational.database import Database
from repro.relational.query import JoinTree, JoinTreeEdge
from repro.text.errors import CaseTokenModel

MODEL = CaseTokenModel()


def direct_mapping() -> MappingPath:
    tree = JoinTree(
        {0: "movie", 1: "direct", 2: "person"},
        (
            JoinTreeEdge(0, 1, "direct_mid", 1),
            JoinTreeEdge(1, 2, "direct_pid", 1),
        ),
    )
    return MappingPath(tree, {0: (0, "title"), 1: (2, "name")})


def write_mapping() -> MappingPath:
    tree = JoinTree(
        {0: "movie", 1: "write", 2: "person"},
        (
            JoinTreeEdge(0, 1, "write_mid", 1),
            JoinTreeEdge(1, 2, "write_pid", 1),
        ),
    )
    return MappingPath(tree, {0: (0, "title"), 1: (2, "name")})


class TestInstantiateMappingPath:
    def test_supported_mapping(self, running_db):
        paths = instantiate_mapping_path(
            running_db, direct_mapping(), ("Avatar", "James Cameron"), MODEL
        )
        assert len(paths) == 1
        assert paths[0].tuple_at(0) == ("movie", 0)
        assert paths[0].tuple_at(2) == ("person", 0)

    def test_unsupported_mapping_empty(self, running_db):
        # Harry Potter's writers are Rowling and Kloves, not Yates... but
        # via direct it IS Yates; via write it must be empty.
        paths = instantiate_mapping_path(
            running_db, write_mapping(), ("Harry Potter", "David Yates"), MODEL
        )
        assert paths == []

    def test_multiple_support(self, running_db):
        # Harry Potter has two writers: two tuple paths for title+writer.
        paths = instantiate_mapping_path(
            running_db, write_mapping(), ("Harry Potter", "Rowling"), MODEL
        )
        assert len(paths) == 1
        paths = instantiate_mapping_path(
            running_db, write_mapping(), ("Harry Potter", ""), MODEL
        )
        # empty sample is never contained: no paths at all
        assert paths == []

    def test_limit(self, running_db):
        # Cameron directed Avatar and Titanic: sample 'Cameron' alone at
        # the person end with an unconstraining movie sample.
        mapping = direct_mapping()
        paths = instantiate_mapping_path(
            running_db, mapping, ("The", "James Cameron"), MODEL, limit=1
        )
        assert len(paths) <= 1

    def test_paths_share_mapping_structure(self, running_db):
        mapping = direct_mapping()
        for path in instantiate_mapping_path(
            running_db, mapping, ("Avatar", "Cameron"), MODEL
        ):
            assert path.to_mapping_path() == mapping

    def test_paths_are_connected(self, running_db):
        for path in instantiate_mapping_path(
            running_db, direct_mapping(), ("Avatar", "Cameron"), MODEL
        ):
            assert path.check_connected_in(running_db)

    def test_paths_contain_samples(self, running_db):
        samples = ("Avatar", "Cameron")
        for path in instantiate_mapping_path(
            running_db, direct_mapping(), samples, MODEL
        ):
            assert path.is_valid_for(running_db, dict(enumerate(samples)), MODEL)


def count_probes(monkeypatch) -> list[tuple[str, str, str]]:
    """Record every (relation, attribute, sample) text-index search."""
    probes: list[tuple[str, str, str]] = []
    search = Database.search_attribute

    def counting(db, relation, attribute, sample, model=None):
        probes.append((relation, attribute, sample))
        return search(db, relation, attribute, sample, model)

    monkeypatch.setattr(Database, "search_attribute", counting)
    return probes


class TestCreatePairwiseTuplePaths:
    @pytest.fixture()
    def pmpm(self, running_db):
        graph = SchemaGraph(running_db.schema)
        lm = build_location_map(running_db, ["Harry Potter", "David Yates"])
        return generate_pairwise_mapping_paths(graph, lm, TPWConfig())

    def test_invalid_mappings_pruned(self, running_db, pmpm):
        ptpm, valid = create_pairwise_tuple_paths(
            running_db, pmpm, ("Harry Potter", "David Yates"), MODEL, TPWConfig()
        )
        total_mappings = sum(len(paths) for paths in pmpm.values())
        assert valid < total_mappings  # the write variant died here
        assert (0, 1) in ptpm

    def test_all_returned_paths_valid(self, running_db, pmpm):
        samples = ("Harry Potter", "David Yates")
        ptpm, _valid = create_pairwise_tuple_paths(
            running_db, pmpm, samples, MODEL, TPWConfig()
        )
        for paths in ptpm.values():
            for path in paths:
                assert path.is_valid_for(running_db, dict(enumerate(samples)), MODEL)
                assert path.check_connected_in(running_db)

    def test_empty_when_no_support(self, running_db):
        graph = SchemaGraph(running_db.schema)
        lm = build_location_map(running_db, ["Avatar", "Tim Burton"])
        pmpm = generate_pairwise_mapping_paths(graph, lm, TPWConfig())
        ptpm, valid = create_pairwise_tuple_paths(
            running_db, pmpm, ("Avatar", "Tim Burton"), MODEL, TPWConfig()
        )
        assert valid == 0
        assert ptpm == {}

    def test_each_probe_searched_once_per_call(self, running_db, pmpm,
                                               monkeypatch):
        probes = count_probes(monkeypatch)
        samples = ("Harry Potter", "David Yates")
        create_pairwise_tuple_paths(running_db, pmpm, samples, MODEL, TPWConfig())
        first_call = list(probes)
        # direct and write share both endpoint probes
        assert first_call and len(first_call) == len(set(first_call))
        assert len(first_call) < 2 * sum(len(paths) for paths in pmpm.values())
        # the memo does not outlive the call
        create_pairwise_tuple_paths(running_db, pmpm, samples, MODEL, TPWConfig())
        assert probes == first_call * 2
