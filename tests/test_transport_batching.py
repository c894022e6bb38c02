"""Tests: the Transport stack — give-up surfacing and batched transfers.

Covers the two delivery-semantics contracts the refactor introduced:

* :class:`~repro.net.network.SimTransport` never *silently* drops a
  message: exhausting ``max_retries`` fires the ``net.gave_up``
  counter, a timeline event and the ``on_gave_up`` callback path;
* :class:`~repro.net.batching.BatchingTransport` coalesces co-located
  same-link sends into one framed transfer while preserving single-send
  reliability exactly — retries across partitions and mid-flight
  destination crashes apply to the frame as a whole, and a frame that
  exhausts its budget splits back into singles with fresh budgets.
"""

import pytest

from repro import AgentStatus, NetworkParams
from repro.agent.packages import Protocol
from repro.bench.harness import build_tour_world
from repro.bench.workloads import TourAgent, TourPlan, make_tour_plan
from repro.net.batching import BATCH_KIND, BatchingTransport, batch_frame_bytes
from repro.net.network import SimTransport
from repro.net.transport import Transport
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics

from tests.helpers import LinearAgent, build_line_world


def make_fabric(jitter=0.0, max_retries=10_000, batch_window=0.0):
    sim = Simulator(seed=3)
    failures = FailureInjector(sim)
    metrics = Metrics()
    params = NetworkParams(jitter=jitter, retry_backoff=0.05,
                           max_retries=max_retries,
                           batch_window=batch_window)
    inner = SimTransport(sim, failures, params, metrics)
    if batch_window > 0:
        return sim, failures, metrics, BatchingTransport(inner, sim, params,
                                                         metrics)
    return sim, failures, metrics, inner


# -- give-up surfacing (no silent drops) --------------------------------------


def test_send_gave_up_fires_callback_and_metrics():
    sim, failures, metrics, net = make_fabric(max_retries=3)
    lost = []
    failures.force_crash("b")  # never recovers
    net.send("a", "b", "test", "hi", 10,
             on_gave_up=lambda msg: lost.append(msg))
    sim.run()
    assert len(lost) == 1 and lost[0].kind == "test"
    assert metrics.count("net.gave_up") == 1
    assert metrics.events("net-gave-up")
    assert metrics.count("net.messages") == 0


def test_transport_wide_gave_up_fallback():
    sim, failures, metrics, net = make_fabric(max_retries=2)
    lost = []
    net.on_gave_up = lambda msg: lost.append((msg.src, msg.dst))
    failures.force_partition("a", "b")
    net.send("a", "b", "test", "x", 10)
    sim.run()
    assert lost == [("a", "b")]


def test_mid_flight_crash_eventually_gives_up():
    sim, failures, metrics, net = make_fabric(max_retries=2)
    lost = []
    sim.schedule(0.001, lambda: failures.force_crash("b"))
    net.send("a", "b", "big", "payload", 5_000_000,  # ~4s in flight
             on_gave_up=lambda msg: lost.append(msg))
    sim.run()
    assert len(lost) == 1
    assert metrics.count("net.gave_up") == 1


def test_transports_conform_to_protocol():
    _sim, _f, _m, plain = make_fabric()
    _sim, _f, _m, batched = make_fabric(batch_window=0.01)
    assert isinstance(plain, Transport)
    assert isinstance(batched, Transport)


# -- batching: coalescing ------------------------------------------------------


def test_same_link_sends_coalesce_into_one_frame():
    sim, _failures, metrics, net = make_fabric(batch_window=0.02)
    got = []
    net.register("b", lambda msg: got.append((msg.kind, msg.payload)))
    order = []
    for i in range(4):
        net.send("a", "b", "pkg", i, 100,
                 on_delivered=lambda msg: order.append(msg.payload))
    sim.run()
    # Logical delivery: every message arrived once, in send order.
    assert got == [("pkg", 0), ("pkg", 1), ("pkg", 2), ("pkg", 3)]
    assert order == [0, 1, 2, 3]
    # Physical transfer: one frame.
    assert metrics.count("net.messages") == 1
    assert metrics.count(f"net.messages.{BATCH_KIND}") == 1
    assert metrics.count("net.messages.pkg") == 4
    assert metrics.count("net.batches") == 1
    assert metrics.count("net.batched_messages") == 4
    # Per-kind bytes match unbatched accounting; the frame adds only
    # the documented framing overhead on the physical total.
    assert metrics.total_bytes("net.pkg") == 400
    assert metrics.total_bytes("net.total") == batch_frame_bytes([100] * 4)


def test_batches_are_per_link_and_per_window():
    sim, _failures, metrics, net = make_fabric(batch_window=0.02)
    net.send("a", "b", "pkg", 1, 10)
    net.send("a", "c", "pkg", 2, 10)  # different link: own batch
    sim.schedule(0.1, lambda: net.send("a", "b", "pkg", 3, 10))  # later window
    sim.run()
    # Three singleton flushes — no frame worth building anywhere.
    assert metrics.count("net.batches") == 0
    assert metrics.count("net.messages") == 3
    assert metrics.count("net.messages.pkg") == 3


def test_singleton_flush_keeps_single_send_accounting():
    sim, _failures, metrics, net = make_fabric(batch_window=0.02)
    got = []
    net.register("b", lambda msg: got.append(msg.payload))
    net.send("a", "b", "solo", "x", 123)
    sim.run()
    assert got == ["x"]
    assert metrics.count("net.messages") == 1
    assert metrics.count("net.messages.solo") == 1
    assert metrics.total_bytes("net.total") == 123
    assert metrics.count("net.batches") == 0


def test_local_sends_bypass_the_batcher():
    sim, _failures, metrics, net = make_fabric(batch_window=0.02)
    got = []
    net.register("a", lambda msg: got.append(msg.payload))
    net.send("a", "a", "loop", "here", 10)
    sim.run()
    assert got == ["here"]
    assert net.pending_messages() == 0


def test_handler_then_callback_order_per_constituent():
    sim, _failures, _metrics, net = make_fabric(batch_window=0.02)
    order = []
    net.register("b", lambda msg: order.append(("handler", msg.payload)))
    for i in range(2):
        net.send("a", "b", "pkg", i, 10,
                 on_delivered=lambda msg: order.append(("cb", msg.payload)))
    sim.run()
    assert order == [("handler", 0), ("cb", 0), ("handler", 1), ("cb", 1)]


# -- batching: reliability semantics ------------------------------------------


def test_batch_retries_across_partition_and_heals():
    sim, failures, metrics, net = make_fabric(batch_window=0.02)
    got = []
    net.register("b", lambda msg: got.append(sim.now))
    failures.force_partition("a", "b")
    sim.schedule(0.5, lambda: failures.force_heal("a", "b"))
    for i in range(3):
        net.send("a", "b", "pkg", i, 100)
    sim.run()
    # All three arrive exactly once, after the heal, via one frame.
    assert len(got) == 3 and all(t > 0.5 for t in got)
    assert metrics.count("net.messages") == 1
    assert metrics.count("net.retries") >= 1
    assert metrics.count("net.messages.pkg") == 3


def test_batch_retries_when_destination_dies_in_flight():
    sim, failures, metrics, net = make_fabric(batch_window=0.01)
    got = []
    net.register("b", lambda msg: got.append(sim.now))
    # Crash b while the (large => slow) frame is in the air.
    sim.schedule(0.02, lambda: failures.force_crash("b"))
    sim.schedule(2.0, lambda: failures.force_recover("b"))
    net.send("a", "b", "big", "p1", 2_000_000)
    net.send("a", "b", "big", "p2", 2_000_000)
    sim.run()
    assert len(got) == 2 and all(t > 2.0 for t in got)
    assert metrics.count("net.messages") == 1  # one frame, delivered once


def test_batch_splits_into_singles_when_frame_gives_up():
    sim, failures, metrics, net = make_fabric(batch_window=0.02,
                                              max_retries=2)
    got, lost = [], []
    net.register("b", lambda msg: got.append(msg.payload))
    failures.force_crash("b")
    # Recover after frame + split retries exhausted for one message but
    # not the other... simplest strong case: b stays down; both split
    # constituents surface their own give-up.
    for i in range(2):
        net.send("a", "b", "pkg", i, 10,
                 on_gave_up=lambda msg: lost.append(msg.payload))
    sim.run()
    assert got == []
    assert metrics.count("net.batch.splits") == 1
    # The frame gave up once, then each constituent gave up on its own
    # fresh retry budget.
    assert sorted(lost) == [0, 1]
    assert metrics.count("net.gave_up") == 3  # frame + 2 singles


def test_split_constituents_deliver_if_destination_recovers():
    sim, failures, metrics, net = make_fabric(batch_window=0.02,
                                              max_retries=3)
    got, lost = [], []
    net.register("b", lambda msg: got.append(msg.payload))
    failures.force_crash("b")
    # Frame budget (3 retries @ 0.05 backoff) exhausts around t≈0.17;
    # recovery at 0.25 lets the split singles through.
    sim.schedule(0.25, lambda: failures.force_recover("b"))
    for i in range(2):
        net.send("a", "b", "pkg", i, 10,
                 on_gave_up=lambda msg: lost.append(msg.payload))
    sim.run()
    assert sorted(got) == [0, 1]
    assert lost == []
    assert metrics.count("net.batch.splits") == 1


def test_flush_all_ships_open_batches_immediately():
    sim, _failures, metrics, net = make_fabric(batch_window=5.0)
    got = []
    net.register("b", lambda msg: got.append(msg.payload))
    net.send("a", "b", "pkg", 1, 10)
    net.send("a", "b", "pkg", 2, 10)
    assert net.pending_messages() == 2
    net.flush_all()
    assert net.pending_messages() == 0
    sim.run(until=1.0)  # far less than the 5s window
    assert got == [1, 2]


# -- batching: world integration (FT shadow copies) ----------------------------


def run_ft_swarm(batch_window, n_agents=4):
    world = build_line_world(
        4, seed=3, net_params=NetworkParams(batch_window=batch_window))
    for i in range(4):
        world.set_alternates(f"n{i}", f"n{(i + 1) % 4}")
    for a in range(n_agents):
        agent = LinearAgent(f"bw{batch_window}-{a}", ["n0", "n1", "n2", "n3"])
        world.launch(agent, at="n0", method="step",
                     protocol=Protocol.FAULT_TOLERANT)
    world.run(max_events=2_000_000)
    assert all(r.status is AgentStatus.FINISHED
               for r in world.agents.values())
    return world


def test_world_routes_shadow_copies_through_the_batcher():
    plain = run_ft_swarm(0.0)
    batched = run_ft_swarm(0.2)
    shadows = plain.metrics.count("net.messages.shadow-copy")
    assert shadows > 0
    # Same logical shadow traffic either way...
    assert batched.metrics.count("net.messages.shadow-copy") == shadows
    # ...but strictly fewer physical transfers once frames form.
    assert batched.metrics.count("net.batches") > 0
    assert batched.metrics.count("net.messages") < \
        plain.metrics.count("net.messages")


def run_tour_ft_swarm(batch_window, n_agents=8, seed=11):
    """Eight FT tour agents on a lock-free 6-step tour: co-located
    agents commit together, so their shadow copies share links."""
    nodes = [f"n{i}" for i in range(4)]
    base = make_tour_plan(nodes, 6, rollback_times=0)
    for spec in base.steps:
        spec.kind = "ace"
    plan = TourPlan(steps=base.steps, decision_node=base.decision_node,
                    rollback_to=None)
    world = build_tour_world(
        4, seed=seed, net_params=NetworkParams(batch_window=batch_window))
    for i in range(4):
        world.set_alternates(f"n{i}", f"n{(i + 1) % 4}")
    for a in range(n_agents):
        world.launch(TourAgent(f"batch-{a}", plan), at=nodes[0],
                     method="run", protocol=Protocol.FAULT_TOLERANT)
    world.run(max_events=5_000_000)
    assert all(r.status is AgentStatus.FINISHED
               for r in world.agents.values())
    return world.metrics


def test_batching_cuts_network_events_at_equal_payload():
    """The batching window is the only knob: shadow traffic and bytes
    stay put, physical network events fall by seven eighths."""
    plain = run_tour_ft_swarm(0.0)
    assert plain.count("net.messages") == 48
    shadow_bytes = plain.total_bytes("net.shadow-copy")
    # A pickle size: banded, since it moves with the interpreter.
    assert shadow_bytes == pytest.approx(109_656, rel=0.05)
    for window in (0.01, 0.02, 0.05):
        batched = run_tour_ft_swarm(window)
        assert (batched.count("net.messages.shadow-copy")
                == plain.count("net.messages.shadow-copy"))
        assert batched.total_bytes("net.shadow-copy") == shadow_bytes
        assert batched.count("net.messages") < plain.count("net.messages")
        assert batched.count("net.batches") > 0
    reduction = 1 - batched.count("net.messages") / plain.count(
        "net.messages")
    assert reduction == 0.875


def test_batching_is_off_by_default():
    world = build_line_world(2, seed=0)
    assert isinstance(world.transport, SimTransport)
