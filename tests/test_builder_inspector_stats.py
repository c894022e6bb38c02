"""Tests: itinerary DSL, log inspector / cost prediction."""

import pytest

from repro import AgentStatus, RollbackMode, SubItinerary
from repro.bench import make_tour_plan
from repro.bench.workloads import TourAgent
from repro.core.inspector import format_log, predict_rollback
from repro.errors import ItineraryError, UsageError
from repro.itinerary.builder import format_itinerary, parse_itinerary



# -- DSL ------------------------------------------------------------------------

def test_parse_paper_figure6_shape():
    text = ("I{ SI1{ s1/n0, s2/n1, s3/n2 },"
            "   SI3{ s6/n0, SI4{ s5/n1, s4/n2 }, SI5{ s9/n0, s10/n1 } } }")
    itinerary = parse_itinerary(text)
    assert len(itinerary.entries) == 2
    si3 = itinerary.entries[1]
    assert si3.name == "SI3"
    assert isinstance(si3.entries[1], SubItinerary)
    assert si3.entries[1].name == "SI4"
    assert si3.entries[1].entries[0].method == "s5"


def test_parse_round_trip():
    text = "I{ a{ x/n0, b|{ y/n1 ?maybe, z/n2 } }, c{ w/n0 } }"
    itinerary = parse_itinerary(text)
    rendered = format_itinerary(itinerary)
    assert parse_itinerary(rendered) is not None
    # Round-trip is stable.
    assert format_itinerary(parse_itinerary(rendered)) == rendered
    inner = itinerary.entries[0].entries[1]
    assert inner.order == "any"
    assert inner.entries[0].precondition == "maybe"


def test_parse_rejects_bad_input():
    with pytest.raises(ItineraryError):
        parse_itinerary("X{ a{ s/n } }")
    with pytest.raises(ItineraryError):
        parse_itinerary("I{ s/n }")  # step in main itinerary
    with pytest.raises(ItineraryError):
        parse_itinerary("I{ a{ s/n }")  # unbalanced
    with pytest.raises(ItineraryError):
        parse_itinerary("I{ a{ } }")  # empty sub
    with pytest.raises(ItineraryError):
        parse_itinerary("I{ a{ s/n } } trailing{}")


# -- inspector / prediction ------------------------------------------------------

def make_logged_world(mixed_fraction):
    nodes = [f"n{i}" for i in range(5)]
    plan = make_tour_plan(nodes, 7, mixed_fraction=mixed_fraction,
                          ace_fraction=0.2 if mixed_fraction < 0.9 else 0.0,
                          rollback_depth=6)
    return plan, nodes


@pytest.mark.parametrize("mode", [RollbackMode.BASIC,
                                  RollbackMode.OPTIMIZED])
@pytest.mark.parametrize("mixed", [0.0, 0.5, 1.0])
def test_prediction_matches_measurement(mode, mixed):
    """predict_rollback == what the drivers actually do."""
    plan, nodes = make_logged_world(mixed)
    # Build the log by running the forward tour only (rollback_times=0
    # keeps the decision step from rolling back), then predict, then
    # run the same tour with the rollback enabled and compare.
    from repro.bench.harness import build_tour_world
    from repro.bench.workloads import TourPlan

    forward = TourPlan(steps=plan.steps, decision_node=plan.decision_node,
                       rollback_to=plan.rollback_to, rollback_times=0)
    world = build_tour_world(5, seed=31)
    agent = TourAgent(f"predict-{mode.value}-{mixed}", forward)
    record = world.launch(agent, at=plan.steps[0].node, method="run",
                          mode=mode)
    world.run(max_events=1_000_000)
    assert record.status is AgentStatus.FINISHED
    # Reconstruct the final log from the finished agent... the log is
    # dropped at finish; instead capture it right before the decision:
    # simpler: build the same log through a fresh world run that stops
    # at the decision node. We take the log from the compensation-free
    # run's LAST migrated package via a probe world.
    probe_world = build_tour_world(5, seed=31)
    probe_agent = TourAgent(f"probe-{mode.value}-{mixed}", plan)
    probe_record = probe_world.launch(probe_agent,
                                      at=plan.steps[0].node, method="run",
                                      mode=mode)
    captured = {}

    original = probe_world.rollback_driver(mode).start_rollback

    def spy(node, item, sp_id):
        agent_copy, log_copy = item.payload.unpack()
        captured["log"] = log_copy
        captured["node"] = node.name
        original(node, item, sp_id)

    probe_world.rollback_driver(mode).start_rollback = spy
    probe_world.run(max_events=1_000_000)
    assert probe_record.status is AgentStatus.FINISHED
    prediction = predict_rollback(captured["log"], plan.rollback_to,
                                  captured["node"], mode)
    measured_transfers = probe_world.metrics.count(
        "agent.transfers.compensation")
    measured_comp_txs = probe_world.metrics.count(
        "compensation.tx_committed")
    measured_ships = probe_world.metrics.count("net.messages.rce-list")
    assert prediction.compensation_txs == measured_comp_txs
    assert prediction.agent_transfers == measured_transfers
    if mode is RollbackMode.OPTIMIZED:
        assert prediction.rce_ships == measured_ships


def test_format_log_renders_every_entry_kind():
    plan, _ = make_logged_world(0.5)
    from repro.bench.harness import build_tour_world

    world = build_tour_world(5, seed=32)
    agent = TourAgent("render", plan)
    world.launch(agent, at=plan.steps[0].node, method="run")
    captured = {}
    original = world.rollback_driver(RollbackMode.BASIC).start_rollback

    def spy(node, item, sp_id):
        _, log = item.payload.unpack()
        captured["log"] = log
        original(node, item, sp_id)

    world.rollback_driver(RollbackMode.BASIC).start_rollback = spy
    world.run(max_events=1_000_000)
    text = format_log(captured["log"])
    assert "SP" in text and "BOS" in text and "EOS" in text
    assert "[RCE]" in text and "[MCE]" in text
    assert "(mixed)" in text


def test_predict_rejects_unknown_savepoint():
    from repro.log.rollback_log import RollbackLog
    with pytest.raises(UsageError):
        predict_rollback(RollbackLog(), "nope", "n0", RollbackMode.BASIC)
