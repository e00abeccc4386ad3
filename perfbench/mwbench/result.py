"""One run's outcome and the result line the entry point prints."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from mwbench.stats import MAX_WINDOWS, windowed_mean, windowed_percentile

#: Most failure messages a result keeps (the count is always exact).
MAX_ERRORS = 20


@dataclass
class Result:
    """Counts, metrics and notes gathered by one workload run."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer_metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        """Record one end-to-end metric."""
        self.metrics[name] = (value, unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        """Record one per-layer metric."""
        self.layer_metrics[name] = (value, unit)

    def latencies(
        self,
        search: list[float],
        prune: list[float],
        requests: list[float],
        *,
        max_windows: int = MAX_WINDOWS,
    ) -> None:
        """The latency metrics, from per-call seconds in measured order.

        ``max_windows`` bounds the windows of :func:`windowed_percentile`
        and :func:`windowed_mean`; 1 takes each figure over the whole
        run, for a fixed work list run in seeded order, whose windows
        would hold different work from seed to seed.

        Only the medians are gated.  The search p90, the prune and
        request means, p90s and p99s go to the notes: on a shared
        2-core host a busy neighbour stretches the tails of the HTTP
        workloads for whole runs, and their run-to-run spread reached
        0.3-0.5 of their value, beyond any bound.
        """
        ms = 1000

        def pct(values: list[float], q: float) -> float:
            return windowed_percentile(values, q, max_windows=max_windows) * ms

        self.metric("search_p50_ms", pct(search, 50), "ms")
        self.metric("prune_p50_ms", pct(prune, 50), "ms")
        self.metric("request_p50_ms", pct(requests, 50), "ms")
        tails = {"search_p90": pct(search, 90)}
        for name, values in (("prune", prune), ("request", requests)):
            tails[f"{name}_mean"] = (
                windowed_mean(values, max_windows=max_windows) * ms
            )
            for q in (90, 99):
                tails[f"{name}_p{q}"] = pct(values, q)
        self.note("tails_ms", tails)

    def note(self, name: str, value: Any) -> None:
        """Record a detail printed beside the result, not a metric."""
        self.notes[name] = value

    @property
    def correct(self) -> bool:
        """Whether every operation attempted gave the right answer."""
        return self.attempted > 0 and self.failed == 0

    def line(self, declared: dict[str, str], trace: bool) -> dict[str, Any]:
        """The result object, holding exactly the ``declared`` metrics.

        ``declared`` maps each metric name to its unit; a metric the
        run did not measure, or measured in another unit, is an error.
        """
        source = self.layer_metrics if trace else self.metrics
        wrong = [
            name for name, unit in declared.items()
            if name not in source or source[name][1] != unit
        ]
        if wrong:
            raise KeyError(f"metrics missing or in another unit: {wrong}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(source[name][0]), "unit": unit}
                for name, unit in declared.items()
            },
        }
