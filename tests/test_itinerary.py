"""Integration tests: itineraries + rollback (Section 4.4.2, Figure 6)."""

import pytest

from repro import (
    AgentStatus,
    Itinerary,
    ItineraryAgent,
    StepEntry,
    SubItinerary,
    agent_compensation,
)
from repro.errors import ItineraryError

from tests.helpers import build_line_world


@agent_compensation("t.itin_tick")
def t_itin_tick(wro, params, ctx):
    wro["ticks"] = wro.get("ticks", 0) + 1


class Walker(ItineraryAgent):
    """Records visits; steps register a tick compensation."""

    def visit(self, ctx):
        self.sro.setdefault("trace", []).append(
            (self.step_count, ctx.node_name))
        ctx.log_agent_compensation("t.itin_tick", {})

    def maybe_rollback(self, ctx):
        self.visit(ctx)
        plan = self.sro.get("rollback_plan")
        if plan is not None:
            ticks = self.wro.get("ticks", 0)
            if ticks < plan["until_ticks"]:
                self.rollback_scope(ctx, levels=plan["levels"])

    def itinerary_result(self):
        return {
            "trace": list(self.sro.get("trace", [])),
            "ticks": self.wro.get("ticks", 0),
        }


# -- model validation -------------------------------------------------------------

def test_main_itinerary_rejects_step_entries():
    itinerary = Itinerary()
    itinerary.entries.append(StepEntry("visit", "n0"))  # type: ignore
    with pytest.raises(ItineraryError, match="not allowed"):
        itinerary.validate()


def test_empty_itineraries_rejected():
    with pytest.raises(ItineraryError):
        Itinerary().validate()
    with pytest.raises(ItineraryError):
        Itinerary().add(SubItinerary("empty")).validate()


def test_resolve_paths():
    si2 = SubItinerary("si2", [StepEntry("visit", "n1")])
    si1 = SubItinerary("si1", [StepEntry("visit", "n0"), si2])
    itinerary = Itinerary().add(si1)
    assert itinerary.resolve(()) is itinerary
    assert itinerary.resolve((0,)) is si1
    assert itinerary.resolve((0, 1)) is si2
    assert itinerary.resolve((0, 1, 0)).method == "visit"


def test_walk_steps_depth_first():
    itinerary = Itinerary().add(SubItinerary("a", [
        StepEntry("visit", "n0"),
        SubItinerary("b", [StepEntry("visit", "n1")]),
        StepEntry("visit", "n2"),
    ]))
    assert [s.loc for s in itinerary.walk_steps()] == ["n0", "n1", "n2"]


# -- execution --------------------------------------------------------------------

def simple_itinerary():
    return (Itinerary()
            .add(SubItinerary("first", [StepEntry("visit", "n0"),
                                        StepEntry("visit", "n1")]))
            .add(SubItinerary("second", [StepEntry("visit", "n2")])))


def test_itinerary_executes_in_order_and_truncates_log():
    world = build_line_world(3)
    agent = Walker(simple_itinerary(), "walk-1")
    record = world.launch_itinerary(agent)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert [n for _, n in record.result["trace"]] == ["n0", "n1", "n2"]
    # One truncation per completed top-level sub-itinerary.
    assert world.metrics.count("log.truncations") == 2
    # The finished agent carries an empty log.
    assert record.final_agent is not None


def test_nested_subitineraries_write_virtual_savepoints():
    """Entering parent+child at one step boundary writes one real and
    one virtual savepoint (the paper's 'only one agent savepoint is
    really necessary')."""
    inner = SubItinerary("inner", [StepEntry("visit", "n1")])
    outer = SubItinerary("outer", [inner, StepEntry("visit", "n2")])
    itinerary = Itinerary().add(
        SubItinerary("lead", [StepEntry("visit", "n0")])).add(outer)
    world = build_line_world(3)
    agent = Walker(itinerary, "walk-2")
    record = world.launch_itinerary(agent)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    # Savepoints: launch writes one real for "lead"; entering
    # outer+inner together writes real + virtual.
    assert world.metrics.count("savepoints.written") == 3


def test_rollback_nested_scope_only():
    """Rolling back the inner sub-itinerary does not undo outer steps.

    Mirrors the paper's SI4 example: the inner scope has one committed
    step (visit/n2) before the step that aborts (maybe_rollback/n0), so
    rolling back the inner scope compensates exactly that one step.
    """
    inner = SubItinerary("inner", [StepEntry("visit", "n2"),
                                   StepEntry("maybe_rollback", "n0")])
    outer = SubItinerary("outer", [StepEntry("visit", "n1"), inner])
    itinerary = Itinerary().add(outer)
    world = build_line_world(3)
    agent = Walker(itinerary, "walk-3")
    agent.sro["rollback_plan"] = {"levels": 0, "until_ticks": 1}
    record = world.launch_itinerary(agent)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    # The trace is strongly reversible: restoring the inner savepoint
    # erased the first visit to n2, and the re-execution re-added it —
    # so the nodes read clean, while the step-count gap betrays the
    # extra execution.
    trace = record.result["trace"]
    assert [n for _, n in trace] == ["n1", "n2", "n0"]
    counts = [c for c, _ in trace]
    assert counts == [0, 2, 3]  # step 1 (first n2 visit) was rolled back
    assert record.result["ticks"] == 1  # only the inner step compensated
    assert record.rollbacks_completed == 1


@pytest.mark.parametrize("backend", ["world", "sharded", "proc"])
def test_rollback_enclosing_scope_undoes_both_levels(backend):
    """The outer scope's savepoint is the one ``launch_itinerary`` has
    the launch write, so every backend must carry it into the log.  The
    agent is built in a fresh scope, as in a fresh process: its initial
    savepoint must not share a name with one the world mints."""
    from repro.scope import Scope, entered

    inner = SubItinerary("inner", [StepEntry("visit", "n2"),
                                   StepEntry("maybe_rollback", "n0")])
    outer = SubItinerary("outer", [StepEntry("visit", "n1"), inner])
    itinerary = Itinerary().add(outer)
    world = build_line_world(3, backend=backend)
    with entered(Scope()):
        agent = Walker(itinerary, "walk-4")
    agent.sro["rollback_plan"] = {"levels": 1, "until_ticks": 2}
    try:
        record = world.launch_itinerary(agent)
        world.run(max_events=500_000)
    finally:
        world.close()
    assert record.status is AgentStatus.FINISHED
    trace = record.result["trace"]
    # The whole outer scope was rolled back (trace restored to empty)
    # and re-executed: nodes read clean, step counts start at 3.
    assert [n for _, n in trace] == ["n1", "n2", "n0"]
    assert [c for c, _ in trace] == [2, 3, 4]
    assert record.result["ticks"] == 2  # inner + outer step compensated
    assert record.rollbacks_completed == 1


def test_savepoint_discarded_when_subitinerary_completes():
    """After 'first' completes, its savepoint is gone: a rollback
    attempt into it must fail (the log was also truncated — completing
    a top-level sub-itinerary discards everything)."""
    world = build_line_world(3)
    agent = Walker(simple_itinerary(), "walk-5")
    record = world.launch_itinerary(agent)
    world.run(max_events=500_000)
    assert world.metrics.count("savepoints.written") == 2
    assert record.status is AgentStatus.FINISHED


class Chooser(Walker):
    def wants_fallback(self):
        return False


class Rogue(Walker):
    def visit(self, ctx):
        ctx.goto("n0", "visit")


def test_preconditions_skip_entries():
    itinerary = Itinerary().add(SubItinerary("choose", [
        StepEntry("visit", "n0"),
        StepEntry("visit", "n1", precondition="wants_fallback"),
        StepEntry("visit", "n2"),
    ]))
    world = build_line_world(3)
    agent = Chooser(itinerary, "walk-6")
    record = world.launch_itinerary(agent)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    assert [n for _, n in record.result["trace"]] == ["n0", "n2"]


def test_goto_forbidden_for_itinerary_agents():
    itinerary = Itinerary().add(
        SubItinerary("only", [StepEntry("visit", "n0")]))
    world = build_line_world(1)
    record = world.launch_itinerary(Rogue(itinerary, "walk-7"))
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FAILED
    assert "must not call ctx.goto" in record.failure
