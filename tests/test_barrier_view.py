"""The barrier rule: foreign liveness and suspension come from one view.

Every mid-epoch read one shard makes of another shard's node liveness
or suspension answers from the view taken at the epoch's opening
barrier (:class:`~repro.node.sharded.BarrierView`), on both sharded
backends.  A crash or a whole-shard kill in shard 0 is therefore seen
by shards 1 and 2 from the next barrier on — not sooner because shard 0
happens to run first — and the two backends stay bit-identical.
"""

from __future__ import annotations

import pytest

from repro import ProcShardedWorld, ShardedWorld
from repro.node.sharded import BarrierView
from repro.sim.failures import CrashPlan, FailureInjector
from repro.sim.kernel import Simulator
from tests.helpers import ClaimProbe, ClaimStager, LivenessProbe

EPOCH = 0.02
BACKENDS = {"sharded": ShardedWorld, "proc": ProcShardedWorld}


def observe(world):
    return (world.outcomes(), world.counters(), world.epochs_run,
            world.trace_digests())


def run_crash_read(backend):
    """``a`` (shard 0) crashes at 0.005; ``b`` (shard 1) reads it."""
    world = BACKENDS[backend](n_shards=2, seed=1, epoch=EPOCH)
    try:
        world.enable_trace_digest()
        world.add_nodes("a", "b")
        world.apply_crash_plans([CrashPlan("a", 0.005, 1.0)])
        world.launch(LivenessProbe("probe", "b", "a", 4), at="b",
                     method="read")
        world.run()
        return observe(world)
    finally:
        world.close()


def run_kill_quorum(backend):
    """Shard 0 claims work id 7, then dies in the same epoch; quorums on
    shards 1 and 2 read the claim."""
    world = BACKENDS[backend](n_shards=3, seed=1, epoch=EPOCH)
    if backend == "proc":
        # The probes reach the ledger through ``ctx._node.world.ft`` as
        # basic-protocol agents, which no production path does: only a
        # fault-tolerant launch puts a run on serial turns, so put this
        # one there by hand to give their claim reads live views.
        world._entangled = True
    try:
        world.enable_trace_digest()
        world.add_nodes("n0", "n1", "n2")
        world.kill_shard(0, at=0.018)
        world.launch(ClaimStager("stager", 7), at="n0", method="go")
        for node in ("n1", "n2"):
            world.launch(ClaimProbe(f"probe-{node}", node, 7, 4), at=node,
                         method="read")
        world.run()
        assert world.ledger_quorum_agrees()
        return observe(world)
    finally:
        world.close()


def kill_epoch_reads(result):
    """The readings taken inside the epoch the crash or kill fell in."""
    return [answer for at, answer in result if 0 < at <= EPOCH]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_foreign_crash_reads_up_until_the_next_barrier(backend):
    outcomes = run_crash_read(backend)[0]
    seen = outcomes["probe"]["result"]
    # The crash at 0.005 falls in the epoch (0, 0.02]: a read there,
    # even one after the crash instant, still sees ``a`` up ...
    assert [at for at, _ in seen if 0.005 < at <= EPOCH], seen
    assert kill_epoch_reads(seen) == [True] * len(kill_epoch_reads(seen))
    # ... and from the next barrier on, down.
    assert [up for at, up in seen if at > EPOCH] == [False, False]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_killed_shard_stays_in_the_quorum_until_the_next_barrier(backend):
    outcomes = run_kill_quorum(backend)[0]
    assert outcomes["stager"]["status"] == "finished"
    for node in ("n1", "n2"):
        seen = outcomes[f"probe-{node}"]["result"]
        # Shard 0 committed the claim and died inside (0, 0.02]: the
        # quorum still asks its replica until the barrier (the mirror
        # reaches shards 1 and 2 only at it), and after it the mirror
        # answers.
        assert kill_epoch_reads(seen) == ["n0"], seen
        assert [holder for at, holder in seen if at > EPOCH] == ["n0"] * 2


@pytest.mark.parametrize("scenario", [run_crash_read, run_kill_quorum])
def test_the_barrier_view_keeps_the_backends_identical(scenario):
    assert scenario("proc") == scenario("sharded")


def test_a_view_is_retaken_only_when_something_moved():
    view = BarrierView.initial(3)
    assert view.live_shards() == (0, 1, 2)
    assert view.retaken((False,) * 3, (frozenset(),) * 3) is view
    down = frozenset({"a"})
    moved = view.retaken((True, False, False), (down, frozenset(),
                                                frozenset()))
    assert moved is not view
    assert moved.live_shards() == (1, 2)
    assert not moved.node_up(0, "a") and moved.node_up(1, "a")


def test_down_nodes_is_replaced_on_every_transition_only():
    failures = FailureInjector(Simulator(seed=0))
    before = failures.down_nodes()
    assert failures.down_nodes() is before
    failures.force_crash("a")
    crashed = failures.down_nodes()
    assert crashed == {"a"} and before == frozenset()
    failures.force_crash("a")  # already down: nothing moves
    assert failures.down_nodes() is crashed
    failures.force_recover("a")
    assert failures.down_nodes() == frozenset()


def test_a_failure_free_run_keeps_the_initial_view():
    world = ShardedWorld(n_shards=2, seed=1, epoch=EPOCH)
    initial = world.view
    world.add_nodes("a", "b")
    world.launch(LivenessProbe("probe", "b", "a", 4), at="b",
                 method="read")
    world.run()
    assert world.epochs_run > 1
    assert world.view is initial
