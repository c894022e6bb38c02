"""Tests: tracer/diagnostics and network-layer behaviours."""


from repro import AgentStatus, RollbackMode
from repro.sim.failures import CrashPlan
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.failures import FailureInjector
from repro.sim.timing import NetworkParams
from repro.net.network import SimTransport
from repro.sim.trace import describe_world, render_timeline, timeline_rows

from tests.helpers import LinearAgent, build_line_world


# -- tracer ---------------------------------------------------------------------

def run_scenario():
    world = build_line_world(3)
    world.failures.apply_plan([CrashPlan("n1", at=0.05, duration=0.2)])
    agent = LinearAgent("traced", ["n0", "n1", "n2"],
                        savepoints={0: "sp"}, rollback_to="sp")
    record = world.launch(agent, at="n0", method="step",
                          mode=RollbackMode.BASIC)
    world.run(max_events=500_000)
    assert record.status is AgentStatus.FINISHED
    return world


def test_render_timeline_contains_protocol_events():
    world = run_scenario()
    text = render_timeline(world)
    assert "node crashed" in text
    assert "node recovered" in text
    assert "rollback initiated" in text
    assert "rollback completed" in text
    assert "agent finished" in text


def test_render_timeline_filter_and_limit():
    world = run_scenario()
    only_rollback = render_timeline(world, kinds=["rollback-completed"])
    assert "rollback completed" in only_rollback
    assert "crashed" not in only_rollback
    assert len(render_timeline(world, limit=2).splitlines()) == 2


def test_timeline_rows_are_flat_dicts():
    world = run_scenario()
    rows = timeline_rows(world)
    assert all("time" in row and "kind" in row for row in rows)
    kinds = {row["kind"] for row in rows}
    assert "rollback-initiated" in kinds


def test_describe_world_snapshot():
    world = run_scenario()
    text = describe_world(world)
    assert "n0" in text and "n1" in text and "n2" in text
    assert "traced" in text
    assert "finished" in text
    assert "steps.committed" in text


def test_describe_world_shows_queued_packages_and_down_nodes():
    world = build_line_world(2)
    world.failures.force_crash("n1")
    agent = LinearAgent("stuck", ["n0", "n1"])
    world.launch(agent, at="n0", method="step")
    world.run(until=1.0)
    text = describe_world(world)
    assert "DOWN" in text
    assert "running" in text


# -- network ---------------------------------------------------------------------

def make_net(jitter=0.0, max_retries=10_000):
    sim = Simulator(seed=3)
    failures = FailureInjector(sim)
    metrics = Metrics()
    net = SimTransport(sim, failures,
                       NetworkParams(jitter=jitter, retry_backoff=0.05,
                                     max_retries=max_retries),
                       metrics)
    return sim, failures, metrics, net


def test_send_delivers_and_counts_bytes():
    sim, _failures, metrics, net = make_net()
    got = []
    net.send("a", "b", "test", {"x": 1}, 500,
             on_delivered=lambda msg: got.append(msg.payload))
    sim.run()
    assert got == [{"x": 1}]
    assert metrics.count("net.messages.test") == 1
    assert metrics.total_bytes("net.test") == 500


def test_send_retries_until_destination_recovers():
    sim, failures, metrics, net = make_net()
    got = []
    failures.force_crash("b")
    sim.schedule(0.5, lambda: failures.force_recover("b"))
    net.send("a", "b", "test", "hi", 100,
             on_delivered=lambda msg: got.append(sim.now))
    sim.run()
    assert len(got) == 1
    assert got[0] > 0.5
    assert metrics.count("net.retries") >= 1


def test_send_retries_when_destination_dies_in_flight():
    sim, failures, metrics, net = make_net()
    got = []
    # Crash b while the (large => slow) message is in the air.
    sim.schedule(0.005, lambda: failures.force_crash("b"))
    sim.schedule(1.0, lambda: failures.force_recover("b"))
    net.send("a", "b", "big", "payload", 5_000_000,  # ~4s transfer
             on_delivered=lambda msg: got.append(sim.now))
    sim.run()
    assert len(got) == 1


def test_partitioned_link_blocks_and_heals():
    sim, failures, metrics, net = make_net()
    got = []
    failures.force_partition("a", "b")
    sim.schedule(0.3, lambda: failures.force_heal("a", "b"))
    net.send("a", "b", "test", "hi", 10,
             on_delivered=lambda msg: got.append(sim.now))
    sim.run()
    assert len(got) == 1 and got[0] > 0.3


def test_transfer_time_scales_with_size_and_jitter_bounded():
    _sim, _failures, _metrics, net = make_net(jitter=0.5)
    small = net.transfer_time(100)
    big = net.transfer_time(1_000_000)
    assert big > small
    base = NetworkParams().transfer_time(100)
    for _ in range(20):
        t = net.transfer_time(100)
        assert base <= t <= base * 1.5 + 1e-9


# -- give-up surfacing (no silent drops) ----------------------------------------


def test_send_gave_up_fires_callback_and_metrics():
    sim, failures, metrics, net = make_net(max_retries=3)
    lost = []
    failures.force_crash("b")  # never recovers
    net.send("a", "b", "test", "hi", 10,
             on_gave_up=lambda msg: lost.append(msg))
    sim.run()
    assert len(lost) == 1 and lost[0].kind == "test"
    assert metrics.count("net.gave_up") == 1
    assert metrics.events("net-gave-up")
    assert metrics.count("net.messages") == 0


def test_partitioned_send_gives_up_through_its_callback():
    sim, failures, metrics, net = make_net(max_retries=2)
    lost = []
    failures.force_partition("a", "b")
    net.send("a", "b", "test", "x", 10,
             on_gave_up=lambda msg: lost.append((msg.src, msg.dst)))
    sim.run()
    assert lost == [("a", "b")]
    assert metrics.count("net.retries") == 3
    assert metrics.count("net.gave_up") == 1


def test_mid_flight_crash_eventually_gives_up():
    sim, failures, metrics, net = make_net(max_retries=2)
    lost = []
    sim.schedule(0.001, lambda: failures.force_crash("b"))
    net.send("a", "b", "big", "payload", 5_000_000,  # ~4s in flight
             on_gave_up=lambda msg: lost.append(msg))
    sim.run()
    assert len(lost) == 1
    assert metrics.count("net.gave_up") == 1
