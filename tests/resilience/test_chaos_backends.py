"""Chaos tests: injected faults vs. the retry/typed-error layer.

Each test arms a named fault point and asserts the surrounding
machinery does exactly what the docs claim — transient faults are
absorbed by retries, persistent ones surface as typed errors, and a
flaky index degrades results instead of crashing the probe.
"""

import sqlite3

import pytest

from repro.exceptions import BackendError
from repro.relational.sqlite_backend import (
    BUSY_TIMEOUT_MS,
    connect,
    to_sqlite,
)
from repro.resilience.faults import FaultInjector, FaultSpec, InjectedFault
from repro.resilience.retry import RetryPolicy
from repro.service.registry import DatasetRegistry
from repro.text.errors import ExactModel
from repro.text.inverted_index import ColumnIndex


def _locked():
    return sqlite3.OperationalError("database is locked")


class TestSqliteConnect:
    def test_busy_timeout_is_applied(self):
        connection = connect()
        try:
            row = connection.execute("PRAGMA busy_timeout").fetchone()
            assert row[0] == BUSY_TIMEOUT_MS
        finally:
            connection.close()

    def test_transient_connect_fault_is_retried(self):
        injector = FaultInjector([
            FaultSpec("sqlite.connect", times=2, error=_locked),
        ])
        with injector:
            connection = connect()
        connection.close()
        assert injector.fired["sqlite.connect"] == 2

    def test_persistent_connect_fault_becomes_backend_error(self):
        with FaultInjector([FaultSpec("sqlite.connect", error=_locked)]):
            with pytest.raises(BackendError) as info:
                connect()
        assert info.value.operation == "connect"
        assert isinstance(info.value.cause, sqlite3.OperationalError)

    def test_non_operational_faults_are_not_swallowed(self):
        # Only sqlite's own transient error class is retried/translated.
        with FaultInjector([FaultSpec("sqlite.connect")]):
            with pytest.raises(InjectedFault):
                connect()


class TestSqliteLoad:
    def test_transient_execute_fault_is_absorbed(self, running_db):
        injector = FaultInjector([
            FaultSpec("sqlite.execute", times=2, error=_locked),
        ])
        with injector:
            connection = to_sqlite(running_db)
        try:
            count = connection.execute(
                "SELECT COUNT(*) FROM movie"
            ).fetchone()[0]
            assert count == len(running_db.table("movie"))
        finally:
            connection.close()

    def test_persistent_execute_fault_becomes_backend_error(
        self, running_db
    ):
        with FaultInjector([FaultSpec("sqlite.execute", error=_locked)]):
            with pytest.raises(BackendError) as info:
                to_sqlite(running_db)
        assert info.value.operation == "execute"

    def test_retries_reload_from_scratch(self, running_db):
        # The first attempt dies after creating some tables; the retry
        # must not trip over "table already exists".
        injector = FaultInjector([
            FaultSpec("sqlite.execute", times=1, error=_locked),
        ])
        with injector:
            connection = to_sqlite(running_db)
        try:
            for relation in running_db.schema:
                rows = connection.execute(
                    f'SELECT COUNT(*) FROM "{relation.name}"'
                ).fetchone()[0]
                assert rows == len(running_db.table(relation.name))
        finally:
            connection.close()


class TestRegistryBreaker:
    """Dataset builds retry transient faults."""

    def test_transient_build_fault_is_retried(self, running_db):
        registry = DatasetRegistry(
            builder=lambda _n, _s: running_db,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.0, jitter=0.0
            ),
        )
        injector = FaultInjector([FaultSpec("registry.build", times=2)])
        with injector:
            assert registry.get("running") is running_db
        assert injector.fired["registry.build"] == 2


class TestIndexPartialResults:
    def test_partial_fault_truncates_probe_results(self):
        index = ColumnIndex(["Avatar", "Avatar", "Avatar", "Avatar"])
        model = ExactModel()
        assert index.search(model, "Avatar") == [0, 1, 2, 3]
        with FaultInjector([
            FaultSpec("index.search", mode="partial", keep_fraction=0.5),
        ]):
            assert index.search(model, "Avatar") == [0, 1]

    def test_index_error_fault_raises_through(self):
        index = ColumnIndex(["Avatar"])
        with FaultInjector([FaultSpec("index.search")]):
            with pytest.raises(InjectedFault):
                index.search(ExactModel(), "Avatar")
