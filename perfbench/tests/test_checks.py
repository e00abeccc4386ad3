import pytest

from repro.core.session import MappingSession
from repro.datasets.running_example import build_running_example

from mwbench import checks
from mwbench.core import CoreAttribution, run_flow


def _describe(mapping):
    return mapping.describe()


def _running_flow(goal, attribution=None):
    db = build_running_example()
    return run_flow(
        lambda: MappingSession(db, ("Name", "Director")),
        lambda _session: iter(checks.RUNNING_CELLS),
        goal,
        attribution,
        key=_describe,
    )


def _wrong_mapping() -> str:
    """A candidate after row 0 that the Big Fish row prunes away."""
    session = MappingSession(build_running_example(), ("Name", "Director"))
    for row, column, value in checks.RUNNING_CELLS[:2]:
        session.input(row, column, value)
    others = [m.describe() for m in session.candidate_mappings]
    others.remove(checks.RUNNING_GOAL)
    return others[0]


def test_flow_outcome_requires_goal_first():
    assert checks.flow_outcome(["g"], "g") == "converged"
    assert checks.flow_outcome(["g", "x"], "g") == "unconverged"
    with pytest.raises(checks.IncorrectOutput):
        checks.flow_outcome(["x", "g"], "g")
    with pytest.raises(checks.IncorrectOutput):
        checks.flow_outcome([], "g")


def test_pruned_goal_is_rejected():
    with pytest.raises(checks.IncorrectOutput):
        checks.check_goal_alive(["x", "y"], "g", samples=3)


def test_running_flow_converges_on_the_known_mapping():
    attribution = CoreAttribution()
    times = _running_flow(checks.RUNNING_GOAL, attribution)
    assert times.outcome == "converged"
    assert len(times.search_s) == 1 and len(times.prune_s) == 2
    assert attribution.searches == 1 and attribution.prunes == 2
    assert attribution.candidates == 2
    assert attribution.metrics()["core.prune_kept_ratio"][0] == 0.75


def test_a_flow_whose_goal_is_pruned_fails():
    with pytest.raises(checks.IncorrectOutput, match="pruned"):
        _running_flow(_wrong_mapping())


def test_phase_results_must_match_the_session():
    checks.check_same_candidates([1, 2], [1, 2], what="search")
    with pytest.raises(checks.IncorrectOutput):
        checks.check_same_candidates([1, 2], [2, 1], what="search")


def _candidates_body(mappings, status="converged"):
    return {
        "status": status,
        "candidates": [
            {"mapping": mapping, "sql": "SELECT 1"} for mapping in mappings
        ],
    }


def test_candidates_reply_accepts_the_goal():
    checks.check_candidates_reply(
        200, _candidates_body([checks.RUNNING_GOAL]), converged=True
    )
    checks.check_candidates_reply(
        200,
        _candidates_body([checks.RUNNING_GOAL, "other"], status="active"),
        converged=False,
    )


def test_candidates_reply_rejects_a_wrong_mapping():
    wrong = _wrong_mapping()
    with pytest.raises(checks.IncorrectOutput):
        checks.check_candidates_reply(200, _candidates_body([wrong]), converged=True)
    with pytest.raises(checks.IncorrectOutput):
        checks.check_candidates_reply(
            200, _candidates_body([checks.RUNNING_GOAL, wrong]), converged=True
        )


def test_candidates_reply_rejects_refusals_and_missing_sql():
    with pytest.raises(checks.IncorrectOutput):
        checks.check_candidates_reply(503, {"error": "shed"}, converged=False)
    body = _candidates_body([checks.RUNNING_GOAL])
    del body["candidates"][0]["sql"]
    with pytest.raises(checks.IncorrectOutput):
        checks.check_candidates_reply(200, body, converged=True)


def test_cell_reply_rejects_degraded_or_unapplied_answers():
    good = {"applied": True, "degraded": False, "status": "active"}
    checks.check_cell_reply(200, good, expect="active")
    for bad in (
        {**good, "degraded": True},
        {**good, "applied": False},
        {**good, "status": "no_candidates"},
    ):
        with pytest.raises(checks.IncorrectOutput):
            checks.check_cell_reply(200, bad, expect="active")
    with pytest.raises(checks.IncorrectOutput):
        checks.check_cell_reply(429, {"error": "full"}, expect="active")
