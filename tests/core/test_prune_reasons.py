"""Each prune reason fires on a crafted schema and shows in the explain log.

Three reasons, three scenarios:

* ``zero-support`` — Example 7's Big Fish / Tim Burton input: the
  ``write`` pairwise path exists in the schema but has no supporting
  tuples.
* ``pmnj`` — a chain schema ``left - l1 - mid - l2 - right`` where
  joining the two sample attributes needs 4 joins; with PMNJ = 2 the
  walk enumeration stops at the horizon and the explain log records the
  truncated frontier.
* ``dominated`` — the 4-column running-example search weaves the same
  complete tuple path through several pair orders, so the weave levels
  must report dominated (duplicate-signature) candidates.
"""

import pytest

from repro import obs
from repro.config import TPWConfig
from repro.core.tpw import TPWEngine
from repro.obs.explain import SearchExplanation
from repro.relational.database import Database
from repro.relational.schema import (
    Attribute,
    DatabaseSchema,
    ForeignKey,
    RelationSchema,
)
from repro.relational.types import DataType

_INT = DataType.INTEGER


def _key(name: str) -> Attribute:
    return Attribute(name, _INT, fulltext=False)


def _fk(source: str, column: str, target: str) -> ForeignKey:
    return ForeignKey(
        name=f"{source}_{column}",
        source=source,
        source_columns=(column,),
        target=target,
        target_columns=("id",),
    )


def build_chain_db() -> Database:
    """``left - l1 - mid - l2 - right``: 4 joins end to end.

    ``left.val`` and ``right.val`` hold the sample values; the only
    join path between them crosses both link relations, which exceeds
    PMNJ = 2.
    """
    schema = DatabaseSchema(
        [
            RelationSchema("left", (_key("id"), Attribute("val")), ("id",)),
            RelationSchema("mid", (_key("id"), Attribute("tag")), ("id",)),
            RelationSchema("right", (_key("id"), Attribute("val")), ("id",)),
            RelationSchema(
                "l1",
                (_key("lid"), _key("mid")),
                ("lid", "mid"),
                (_fk("l1", "lid", "left"), _fk("l1", "mid", "mid")),
            ),
            RelationSchema(
                "l2",
                (_key("mid"), _key("rid")),
                ("mid", "rid"),
                (_fk("l2", "mid", "mid"), _fk("l2", "rid", "right")),
            ),
        ]
    )
    db = Database(schema, name="chain")
    db.insert("left", (1, "alpha"))
    db.insert("mid", (1, "bridge"))
    db.insert("right", (1, "omega"))
    db.insert("l1", (1, 1))
    db.insert("l2", (1, 1))
    db.validate_referential_integrity()
    return db


def explain_search(db, sample, config=None):
    with obs.scoped():
        result = TPWEngine(db, config).search(sample)
    assert result.trace is not None
    return result, SearchExplanation.from_span(result.trace)


class TestZeroSupport:
    def test_write_path_pruned(self, running_db):
        result, explanation = explain_search(
            running_db, ("Big Fish", "Tim Burton")
        )
        pruned = [
            path
            for path in explanation.pruned_paths()
            if path["reason"] == "zero-support"
        ]
        assert pruned, "the write path must be pruned with zero support"
        assert all(path["support"] == 0 for path in pruned)
        assert any("write" in path["path"] for path in pruned)
        # The direct path survives with support, and the search agrees.
        assert explanation.surviving_paths()
        assert result.n_candidates == 1

    def test_visible_in_trace_jsonl(self, running_db):
        result, _ = explain_search(running_db, ("Big Fish", "Tim Burton"))
        roots, _metrics = obs.parse_jsonl(obs.to_jsonl([result.trace]))
        records = [
            record
            for span in roots[0].walk()
            if span.name == "tpw.instantiate.pair"
            for record in span.attributes.get("decisions", ())
        ]
        assert any(record["reason"] == "zero-support" for record in records)


class TestPmnjBound:
    def test_chain_beyond_bound_yields_frontier(self):
        db = build_chain_db()
        config = TPWConfig(pmnj=2)
        result, explanation = explain_search(db, ("alpha", "omega"), config)
        # The 4-join path is out of reach: no candidate mapping exists.
        assert result.n_candidates == 0
        assert explanation.prune_totals()["pmnj"] >= 1
        assert explanation.pmnj_frontier, "truncated walks must be logged"
        assert all(
            record["reason"] == "pmnj" and record["depth"] == 2
            for record in explanation.pmnj_frontier
        )

    def test_frontier_omits_walks_with_nothing_left_to_explore(self, running_db):
        # company and location each have one edge, the one the walk
        # arrived by, so their PMNJ-2 walks were not truncated; person
        # also has the write edge, so the direct walk was.
        sample = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
        _result, explanation = explain_search(running_db, sample)
        walks = {record["walk"] for record in explanation.pmnj_frontier}
        assert explanation.pmnj_frontier_total == len(walks)
        assert "movie -direct_mid- direct -direct_pid- person" in walks
        assert "movie -produce_mid- produce -produce_cid- company" not in walks
        assert "movie -filmedin_mid- filmedin -filmedin_lid- location" not in walks

    def test_raising_the_bound_recovers_the_mapping(self):
        db = build_chain_db()
        result, explanation = explain_search(
            db, ("alpha", "omega"), TPWConfig(pmnj=4)
        )
        assert result.n_candidates == 1
        assert explanation.surviving_paths()


class TestDominated:
    def test_weave_reports_dominated_paths(self, running_db):
        sample = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
        result, explanation = explain_search(running_db, sample)
        assert result.n_candidates >= 1
        level_records = [
            level for level in explanation.levels if "bases_in" in level
        ]
        assert level_records, "multi-level weave must report fuse stats"
        assert sum(level["dominated"] for level in level_records) >= 1
        assert explanation.prune_totals()["dominated"] >= 1
        # Every level's arithmetic must close: woven = kept + dominated.
        for level in level_records:
            assert level["woven"] == level["kept"] + level["dominated"]

    def test_dominated_examples_recorded(self, running_db):
        sample = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
        _result, explanation = explain_search(running_db, sample)
        examples = [
            example
            for level in explanation.levels
            for example in level.get("examples", ())
        ]
        assert examples, "dominated weave outcomes must leave examples"


class TestStatsConsistency:
    def test_explain_agrees_with_stats(self, running_db):
        sample = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
        result, explanation = explain_search(running_db, sample)
        assert len(explanation.surviving_paths()) == (
            result.stats.pairwise_valid_mapping_paths
        )
        woven_total = sum(
            level["woven"]
            for level in explanation.levels
            if "woven" in level
        )
        assert woven_total == sum(result.stats.woven_per_level.values())
