"""Unit-level tests: fault-tolerance internals (shadows, watchdog)."""


from repro import FTParams
from repro.agent.packages import AgentPackage, PackageKind
from repro.log.rollback_log import RollbackLog

from tests.helpers import LinearAgent, build_line_world


def make_package(agent_id="ft-unit", kind=PackageKind.STEP, **meta):
    agent = LinearAgent(agent_id, ["n0"])
    agent.set_control("n0", "step")
    return AgentPackage.pack(kind, agent, RollbackLog(), step_index=0,
                             **meta)


def test_alternates_for_step_vs_compensation_packages():
    world = build_line_world(3)
    world.set_alternates("n1", "n2", "n1")  # self filtered out
    step_package = make_package()
    assert world.ft.alternates_for("n1", step_package) == ("n2",)
    assert world.ft.alternates_for("n0", step_package) == ()
    comp_package = make_package(
        "ft-unit-2", PackageKind.COMPENSATION, sp_id="sp",
        alternates=("alt-a", "n1"))
    # Compensation packages carry their own alternates (from the EOS);
    # the destination itself is filtered.
    assert world.ft.alternates_for("n1", comp_package) == ("alt-a",)


def test_shadow_ship_and_arrival_enqueues_inert_copy():
    world = build_line_world(3)
    package = make_package("ft-ship", primary="n1")
    world.ft.ship_shadows(world.node("n0"), package, ("n2",))
    world.run(until=0.1)
    items = world.node("n2").queue.items()
    assert len(items) == 1
    shadow = items[0].payload
    assert shadow.kind is PackageKind.SHADOW
    assert shadow.work_id == package.work_id
    # Inert: dispatching it does nothing.
    world.run(until=0.15)
    assert len(world.node("n2").queue) == 1


def test_shadow_discarded_once_work_claimed():
    world = build_line_world(3, ft_params=FTParams(takeover_timeout=0.05))
    package = make_package("ft-claimed", primary="n1")
    world.ft.ship_shadows(world.node("n0"), package, ("n2",))
    from repro.tx.manager import Transaction
    t = Transaction("step", "n1")
    assert world.ft.claim(t, package.work_id, "n1") == "acquired"
    t.commit()
    world.run(until=1.0)
    assert len(world.node("n2").queue) == 0
    assert world.metrics.count("ft.shadows_discarded") == 1


def test_shadow_expires_after_max_rounds():
    world = build_line_world(
        3, ft_params=FTParams(takeover_timeout=0.01, max_takeover_rounds=3))
    package = make_package("ft-expire", primary="n1")
    # Primary stays up and never claims: the shadow must expire.
    world.ft.ship_shadows(world.node("n0"), package, ("n2",))
    world.run(until=2.0)
    assert len(world.node("n2").queue) == 0
    assert world.metrics.count("ft.shadows_discarded") == 1
    assert world.ft.promotions == 0


def test_promotion_requires_primary_down_and_unclaimed():
    world = build_line_world(3, ft_params=FTParams(takeover_timeout=0.05))
    package = make_package("ft-promote", primary="n1")
    world.ft.ship_shadows(world.node("n0"), package, ("n2",))
    world.failures.force_crash("n1")
    world.run(until=0.5)
    # Promoted and dispatched (the promoted STEP package for agent
    # 'ft-promote' was consumed as stale — its agent record is absent,
    # so _consume removed it; what matters here is the promotion).
    assert world.metrics.count("ft.promotions") == 1


def test_ledger_charges_and_participant():
    world = build_line_world(2)
    from repro.tx.manager import Transaction
    t = Transaction("step", "n0")
    world.ft.claim(t, work_id=999, node="n0")
    assert "__ledger__" in t.participants
    assert t.cost > 0
    # Ledger participant never blocks commit while home is up.
    assert world.coordinator.try_commit(t)
