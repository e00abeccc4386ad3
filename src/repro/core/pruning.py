"""Sample pruning (Section 5).

After the initial candidate set is built from the first spreadsheet
row, every additional sample narrows it:

* **Pruning by attribute** — a new sample in column ``i`` keeps only
  candidates whose column-``i`` projection is one of the source
  attributes containing the sample.
* **Pruning by mapping structure** — when a later row holds two or more
  samples, each candidate is probed with an approximate-search query
  over *all* that row's samples; candidates with an empty result are
  discarded (Example 7: entering *Big Fish* / *Tim Burton* eliminates
  the join via ``write`` because Big Fish's writer is not Tim Burton).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.mapping_path import MappingPath
from repro.obs import get_metrics, get_tracer
from repro.obs.explain import MAX_RECORDS
from repro.relational.database import Database
from repro.relational.executor import ProbeMemo, tree_exists
from repro.text.errors import ErrorModel, default_error_model


def _record_decisions(
    reason: str,
    candidates: Sequence[MappingPath],
    kept: Sequence[MappingPath],
) -> None:
    """Count prune outcomes by reason (audit trail for ranking behavior).

    With tracing enabled, additionally attach one decision record per
    candidate to the innermost open span (``session.prune`` /
    ``session.replay``), so session traces carry the same per-candidate
    provenance the search's explain log does.
    """
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("repro.prune.evaluated", reason=reason).inc(
            len(candidates)
        )
        metrics.counter("repro.prune.dropped", reason=reason).inc(
            len(candidates) - len(kept)
        )
    tracer = get_tracer()
    if not tracer.enabled:
        return
    span = tracer.current()
    if span is None:
        return
    kept_signatures = {mapping.signature() for mapping in kept}
    records = span.attributes.setdefault("decisions", [])
    for mapping in candidates:
        if len(records) >= MAX_RECORDS:
            span.attributes["decisions_dropped"] = (
                span.attributes.get("decisions_dropped", 0) + 1
            )
            continue
        survived = mapping.signature() in kept_signatures
        records.append(
            {
                "path": mapping.describe(),
                "decision": "kept" if survived else "pruned",
                "reason": None if survived else reason,
            }
        )


def prune_by_attribute(
    db: Database,
    candidates: Sequence[MappingPath],
    key: int,
    sample: str,
    model: ErrorModel | None = None,
) -> list[MappingPath]:
    """Keep candidates whose column-``key`` attribute contains ``sample``.

    Candidates that do not project column ``key`` at all are kept (they
    cannot be contradicted by it); complete mappings always project
    every column, so in the session this case never triggers.
    """
    model = model or default_error_model()
    containing = set(db.attributes_containing(sample, model))
    kept = []
    for mapping in candidates:
        if key not in mapping.projections:
            kept.append(mapping)
        elif mapping.attribute_of(key) in containing:
            kept.append(mapping)
    _record_decisions("attribute", candidates, kept)
    return kept


def prune_by_structure(
    db: Database,
    candidates: Sequence[MappingPath],
    row_samples: Mapping[int, str],
    model: ErrorModel | None = None,
) -> list[MappingPath]:
    """Keep candidates that can co-produce all of ``row_samples``.

    ``row_samples`` maps column indexes to the samples currently on one
    spreadsheet row; each candidate is kept iff a single source tuple
    assignment satisfies every one of them simultaneously (an existence
    query with early exit — this is why pruning is an order of
    magnitude cheaper than searching in Table 2).  Candidates share
    most of their (relation, attribute, sample) text probes, so each is
    searched once per call.
    """
    model = model or default_error_model()
    if not row_samples:
        return list(candidates)
    kept = []
    probes: ProbeMemo = {}
    for mapping in candidates:
        predicates = mapping.predicates_for(row_samples, model)
        if tree_exists(db, mapping.tree, predicates, probes=probes):
            kept.append(mapping)
    _record_decisions("structure", candidates, kept)
    return kept
