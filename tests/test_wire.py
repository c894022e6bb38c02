"""Tests: the shard link's wire (:mod:`repro.node.wire`).

* **the frame table** — both ends of a link stay equal across a
  scripted exchange in both directions; eviction at the cap; one frame
  twice in a message and equal frames from two packages; frames below
  the threshold; a failed encode, and a failed decode, leave the link
  working; a second message in flight is refused;
* **a reply that cannot be pickled**, or a command that cannot be
  unpickled, is a typed error on every shard, and the worker lives on;
* **pinned differential** — a ballast swarm and the FT ring with a
  shard outage run identically on the process and in-process backends,
  with the bytes pickled onto the links and the frame-table hits
  pinned.
"""

import pytest

from repro import ProcShardedWorld, ShardedWorld
from repro.agent.packages import AgentPackage, PackageKind, Protocol
from repro.bench.workloads import BANK, TourAgent, make_tour_plan
from repro.errors import WorkerError
from repro.net.messages import Message
from repro.node import wire
from repro.node.sharded import _Transfer
from repro.node.wire import MIN_FRAME_BYTES, ByReference, FrameTable
from repro.resources.bank import Bank, OverdraftPolicy
from repro.scope import Scope, entered

from tests.helpers import FT_RING, LinearAgent, build_ft_ring

BIG = MIN_FRAME_BYTES


def frame(tag, size=BIG):
    """A frame of ``size`` bytes whose content is fixed by ``tag``."""
    head = tag.encode()
    return head + b"." * (size - len(head))


def package(frames, agent="ag", work_id=1):
    return AgentPackage(kind=PackageKind.STEP, agent_id=agent,
                        blob=b"agent:" + agent.encode(), step_index=0,
                        log_blobs=tuple(frames), work_id=work_id)


def transfer(pkg, seq=0):
    return _Transfer(at=0.0, seq=seq, kind="package", dest_shard=1,
                     dest_name="n1", package=pkg)


def ship(src, dst, transfers, extra=None):
    """One message from ``src`` to ``dst``; returns the decoded
    transfers and the bytes pickled onto the link."""
    sealed = src.seal({"outbox": src.out_transfers(transfers),
                       "extra": extra})
    try:
        message = dst.open(sealed)
        outbox = dst.in_transfers(message["outbox"])
    except BaseException:
        dst.lose()
        raise
    return outbox, src.pickled_bytes(sealed)


def frames_of(transfers):
    return [t.package.log_blobs for t in transfers]


def held(end):
    """One end's table, ``(key, frame)`` in eviction order."""
    return tuple(end._frames.items())


class Unpicklable:
    def __reduce__(self):
        raise TypeError("refuses to pickle")


def _refuse():
    raise ValueError("refuses to unpickle")


class Undecodable:
    def __reduce__(self):
        return _refuse, ()


# -- the frame table ---------------------------------------------------------------


def test_both_ends_stay_equal_across_an_exchange_in_both_directions():
    coordinator, worker = FrameTable(), FrameTable()
    sp0, step1, step2 = frame("sp-0", 4 * BIG), frame("s1"), frame("s2")
    with entered(Scope()) as scope:
        # Out: a new agent's frames ship inline, once.
        got, first = ship(coordinator, worker,
                          [transfer(package([sp0, step1]))])
        assert frames_of(got) == [(sp0, step1)]
        assert held(coordinator) == held(worker)
        assert len(held(worker)) == 2
        # Back: the agent returns with one more frame; only it is new.
        got, back = ship(worker, coordinator,
                         [transfer(package([sp0, step1, step2]))])
        assert frames_of(got) == [(sp0, step1, step2)]
        assert back < first  # sp-0 and s1 rode as keys
        assert held(coordinator) == held(worker)
        # Out again: every frame is a hit.
        got, again = ship(coordinator, worker,
                          [transfer(package([sp0, step1, step2]))])
        assert frames_of(got) == [(sp0, step1, step2)]
        assert again < BIG
        assert held(coordinator) == held(worker)
        assert len(held(worker)) == 3
    assert scope.stats["frame_reused"] == 2 + 3


def test_the_live_package_is_never_touched():
    coordinator, worker = FrameTable(), FrameTable()
    frames = (frame("a"), frame("b"))
    live = package(frames)
    with entered(Scope()):
        for _ in range(2):
            got, size = ship(coordinator, worker, [transfer(live)])
            assert got[0].package is not live
            assert got[0].package == live
    assert size < BIG  # the second time, both frames rode as keys
    assert live.log_blobs == frames


def test_eviction_at_the_cap_keeps_both_ends_equal(monkeypatch):
    monkeypatch.setattr(wire, "TABLE_BYTES", 3 * BIG)
    coordinator, worker = FrameTable(), FrameTable()
    frames = [frame(f"f{i}") for i in range(5)]
    with entered(Scope()):
        for i, f in enumerate(frames):
            src, dst = (coordinator, worker) if i % 2 == 0 \
                else (worker, coordinator)
            got, _ = ship(src, dst, [transfer(package([f]), seq=i)])
            assert frames_of(got) == [(f,)]
            assert held(coordinator) == held(worker)
        # Oldest first: only the three newest frames remain.
        assert [f for _key, f in held(worker)] == frames[2:]
        # An evicted frame ships inline again and is re-inserted.
        got, size = ship(coordinator, worker, [transfer(package(frames[:1]))])
        assert frames_of(got) == [(frames[0],)]
        assert size > BIG
        assert held(coordinator) == held(worker)
        assert [f for _key, f in held(worker)] == \
            frames[3:] + frames[:1]


def test_one_frame_twice_and_equal_content_from_two_packages():
    coordinator, worker = FrameTable(), FrameTable()
    shared = frame("sp-0", 8 * BIG)
    twin = bytes(bytearray(shared))  # equal content, another object
    assert twin is not shared
    first = package([shared, shared], agent="a", work_id=1)
    second = package([twin], agent="b", work_id=2)
    with entered(Scope()) as scope:
        got, size = ship(coordinator, worker,
                         [transfer(first), transfer(second, seq=1)])
        assert frames_of(got) == [(shared, shared), (shared,)]
        assert size < 2 * len(shared)  # the content went inline once
        assert len(held(worker)) == 1
        assert held(coordinator) == held(worker)
    assert scope.stats["frame_reused"] == 2


def test_a_package_shared_by_two_transfers_stays_shared():
    coordinator, worker = FrameTable(), FrameTable()
    shadow_of = package([frame("sp")])
    shadow = _Transfer(at=0.0, seq=1, kind="shadow", dest_shard=1,
                       dest_name="n1",
                       message=Message("n0", "n1", "shadow-copy", shadow_of,
                                       10, msg_id=1))
    with entered(Scope()):
        got, _ = ship(coordinator, worker, [transfer(shadow_of), shadow])
    assert got[1].message.payload is got[0].package
    assert got[0].package.log_blobs == shadow_of.log_blobs
    assert held(coordinator) == held(worker)


def test_frames_below_the_threshold_ship_inline_and_stay_out():
    coordinator, worker = FrameTable(), FrameTable()
    small = frame("small", BIG - 1)
    with entered(Scope()) as scope:
        for _ in range(2):
            got, size = ship(coordinator, worker,
                             [transfer(package([small]))])
            assert frames_of(got) == [(small,)]
            assert size > len(small)
    assert len(held(coordinator)) == len(held(worker)) == 0
    assert scope.stats["frame_reused"] == 0


def test_a_failed_encode_leaves_both_tables_and_the_link_working():
    coordinator, worker = FrameTable(), FrameTable()
    old, new = frame("old"), frame("new")
    with entered(Scope()) as scope:
        ship(coordinator, worker, [transfer(package([old]))])
        before = held(coordinator)
        with pytest.raises(TypeError):
            ship(coordinator, worker, [transfer(package([old, new]))],
                 extra=Unpicklable())
        assert held(coordinator) == held(worker) == before
        assert scope.stats["frame_reused"] == 0  # the hit never shipped
        got, _ = ship(coordinator, worker, [transfer(package([old, new]))])
        assert frames_of(got) == [(old, new)]
        assert held(coordinator) == held(worker)
        assert len(held(worker)) == 2


def test_a_failed_decode_empties_both_tables_and_the_link_works_on():
    coordinator, worker = FrameTable(), FrameTable()
    kept, lost = frame("kept"), frame("lost")
    with entered(Scope()):
        ship(coordinator, worker, [transfer(package([kept]))])
        with pytest.raises(ValueError):
            ship(coordinator, worker, [transfer(package([kept, lost]))],
                 extra=Undecodable())
        assert len(held(worker)) == 0
        # The worker's next message tells the coordinator to empty its
        # table before it reads anything.
        got, _ = ship(worker, coordinator, [transfer(package([lost]))])
        assert frames_of(got) == [(lost,)]
        assert held(coordinator) == held(worker)
        got, _ = ship(coordinator, worker, [transfer(package([kept, lost]))])
        assert frames_of(got) == [(kept, lost)]
        assert held(coordinator) == held(worker)


def test_the_hosted_shard_gets_package_bytes_by_reference():
    coordinator, shard = ByReference(), ByReference()
    sp0 = frame("sp-0", 8 * BIG)
    live = package([sp0, b"tiny"])
    got, size = ship(coordinator, shard, [transfer(live)])
    assert got[0].package is not live
    assert got[0].package.blob is live.blob
    assert got[0].package.log_blobs is live.log_blobs
    assert size < BIG  # no package byte was pickled
    assert live.blob == b"agent:ag"


def test_a_second_message_in_flight_is_refused():
    with ProcShardedWorld(n_shards=2, seed=0) as world:
        world.add_node("a", shard=0)
        world.add_node("b", shard=1)
        for handle in world._handles:
            handle.send("fetch", {"what": "queue_length", "node": "a"
                                  if handle.shard == 0 else "b"})
            with pytest.raises(RuntimeError, match="in flight"):
                handle.send("fetch", {"what": "ser_stats"})
            assert handle.recv()["value"] == 0
            assert handle.fetch("ser_stats")["ipc_bytes_copied"] == 0


# -- a reply that cannot be pickled ------------------------------------------------


class CallbackBank(Bank):
    """A bank whose runtime wiring stores a closure: it installs fine,
    but a snapshot of it cannot travel back."""

    def attach(self, node):
        super().attach(node)
        self.on_attach = lambda: node


@pytest.mark.parametrize("node", ["a", "b"])
def test_an_unpicklable_reply_is_a_typed_error_and_the_shard_lives(node):
    with ProcShardedWorld(n_shards=2, seed=0) as world:
        world.add_node("a", shard=0)
        world.add_node("b", shard=1)
        world.node(node).add_resource(CallbackBank("bank"))
        for _ in range(2):
            with pytest.raises(WorkerError) as excinfo:
                world.node(node).get_resource("bank")
            assert excinfo.value.shard == world.shard_of(node)
            assert "pickle" in str(excinfo.value)
        # A command the shard cannot decode is refused the same way.
        with pytest.raises(WorkerError, match="refuses to unpickle"):
            world._handles[world.shard_of(node)].request(
                "fetch", {"what": "ser_stats", "junk": Undecodable()})
        # The shard still answers, and still runs.
        assert world.node(node).queue_length() == 0
        world.run()


# -- pinned differential -----------------------------------------------------------

RING = [f"n{i}" for i in range(8)]


def run_ballast_swarm(world, n_agents=8, steps=8, ballast=20_000):
    """Partition-keyed tours with SRO ballast: round-robin placement
    puts even nodes on shard 0 and odd ones on shard 1, and an agent
    stays on its home shard's nodes except every 4th hop."""
    for name in RING:
        bank = Bank(BANK)
        for account in ("merchant", "escrow"):
            bank.seed_account(account, 1_000_000,
                              overdraft=OverdraftPolicy.ALLOWED)
        world.add_node(name).add_resource(bank)
    world.enable_trace_digest()
    parts = (RING[0::2], RING[1::2])
    for a in range(n_agents):
        home = a % 2
        nodes = [(parts[1 - home] if j % 4 == 3 else parts[home])
                 [(a + j) % len(parts[0])] for j in range(steps + 1)]
        plan = make_tour_plan(nodes, steps, mixed_fraction=0.25,
                              rollback_depth=steps - 1,
                              sro_ballast=ballast)
        world.launch(TourAgent(f"sw-{a}", plan), at=nodes[0], method="run")
    world.run()
    return world


def run_ft_ring_outage(world, ballast=3_000):
    """Ballast FT tours on the ring with shard 1 down from 0.08 s to
    2.0 s: shadows, the revive backlog and retained retries cross the
    links."""
    world.enable_trace_digest()
    world.kill_shard(1, at=0.08, restart_at=2.0)
    for a in range(3):
        plan = [FT_RING[(3 * a + j) % len(FT_RING)] for j in range(4)]
        agent = LinearAgent(f"ft-{a}", plan, savepoints={0: "sp"},
                            rollback_to="sp")
        agent.sro["ballast"] = b"x" * ballast
        world.launch(agent, at=plan[0], method="step",
                     protocol=Protocol.FAULT_TOLERANT)
    world.run()
    return world


def observe(world):
    return (world.outcomes(), world.counters(), world.epochs_run,
            world.trace_digests())


def test_ballast_swarm_is_pinned_across_backends():
    inproc = observe(run_ballast_swarm(
        ShardedWorld(n_shards=2, seed=3, epoch=1.0)))
    with ProcShardedWorld(n_shards=2, seed=3, epoch=1.0) as world:
        proc = observe(run_ballast_swarm(world))
        stats = world.serialization_stats()
    assert proc == inproc
    assert all(o["status"] == "finished" for o in proc[0].values())
    assert all(o["rollbacks_completed"] == 1 for o in proc[0].values())
    # Each frame crosses a link once: 8 489 248 bytes before the frame
    # table and the by-reference hosted shard.
    assert (stats["ipc_bytes_copied"], stats["frame_reused"]) == \
        (2_452_406, 92)


def test_ft_ring_outage_is_pinned_across_backends():
    inproc = observe(run_ft_ring_outage(build_ft_ring("sharded", seed=5)))
    world = build_ft_ring("proc", seed=5)
    with world:
        proc = observe(run_ft_ring_outage(world))
        stats = world.serialization_stats()
    assert proc == inproc
    # 804 863 bytes before the frame table and the by-reference shard;
    # 394 176 before liveness and suspension left the per-turn views
    # for the barrier view, which ships only when it changes.
    assert (stats["ipc_bytes_copied"], stats["frame_reused"]) == \
        (393_304, 54)
