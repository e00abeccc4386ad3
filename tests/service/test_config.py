"""Tests for ServiceConfig validation (exit-code-2 territory)."""

import dataclasses

import pytest

from repro.exceptions import ServiceConfigError
from repro.service.config import KNOWN_DATASETS, ServiceConfig


class TestValidate:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.validate() is config

    def test_known_datasets_cover_the_cli_spellings(self):
        assert KNOWN_DATASETS == ("running", "yahoo", "imdb")

    @pytest.mark.parametrize(
        ("overrides", "match"),
        [
            ({"datasets": ()}, "at least one dataset"),
            ({"datasets": ("bogus",)}, "unknown dataset"),
            ({"datasets": ("running", "running")}, "must not repeat"),
            ({"port": -1}, "port out of range"),
            ({"port": 70000}, "port out of range"),
            ({"scale": 0}, "scale"),
            ({"max_sessions": 0}, "max_sessions"),
            ({"workers": 0}, "workers"),
            ({"queue_size": 0}, "queue_size"),
            ({"session_ttl_s": 0.0}, "session_ttl_s"),
            ({"request_timeout_s": 0.0}, "request_timeout_s"),
            ({"session_ttl_s": 5.0, "request_timeout_s": 5.0}, "exceed"),
            ({"location_cache_size": -1}, "location_cache_size"),
            ({"retry_after_s": 0.0}, "retry_after_s"),
            ({"default_columns": ()}, "default_columns"),
            ({"drain_timeout_s": -1.0}, "drain_timeout_s"),
            ({"shed_factor": -0.1}, "shed_factor"),
            ({"shard_mode": True, "journal_dir": "j"}, "keeps no journal"),
        ],
    )
    def test_bad_knobs_raise(self, overrides, match):
        config = dataclasses.replace(ServiceConfig(), **overrides)
        with pytest.raises(ServiceConfigError, match=match):
            config.validate()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServiceConfig().port = 1  # type: ignore[misc]

    def test_shed_factor_zero_is_valid_and_disables(self):
        config = dataclasses.replace(ServiceConfig(), shed_factor=0.0)
        assert config.validate() is config
