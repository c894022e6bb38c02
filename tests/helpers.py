"""Shared test fixtures: picklable agents and registered compensations.

Agent classes used in tests must live in an importable module (pickle
captures them by reference, like the paper's platform ships code by
class name), so they are defined here rather than inside test
functions.
"""

from __future__ import annotations

from repro import (
    Bank,
    InfoDirectory,
    MobileAgent,
    World,
    agent_compensation,
    mixed_compensation,
    resource_compensation,
)
from repro.journal import MemoryJournal
from repro.journal.backends import frame
from repro.journal.journal import decode_record
from repro.resources.bank import OverdraftPolicy


# ---------------------------------------------------------------------------
# Compensating operations (unique names; the registry is global)
# ---------------------------------------------------------------------------

@resource_compensation("t.undo_transfer")
def t_undo_transfer(bank, params, ctx):
    bank.transfer(params["dst"], params["src"], params["amount"],
                  compensating=True)


@resource_compensation("t.undo_deposit")
def t_undo_deposit(bank, params, ctx):
    bank.withdraw(params["account"], params["amount"], compensating=True)


@agent_compensation("t.forget_note")
def t_forget_note(wro, params, ctx):
    notes = list(wro.get("notes", []))
    if params["note"] in notes:
        notes.remove(params["note"])
    wro["notes"] = notes
    wro["compensations"] = wro.get("compensations", 0) + 1


@agent_compensation("t.mark")
def t_mark(wro, params, ctx):
    wro.setdefault("marks", []).append(params.get("tag", "mark"))


@mixed_compensation("t.return_cash")
def t_return_cash(wro, bank, params, ctx):
    amount = wro.get("cash", 0)
    bank.deposit(params["account"], amount)
    wro["cash"] = 0
    wro["returned"] = wro.get("returned", 0) + amount


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------

class LinearAgent(MobileAgent):
    """Visits ``plan`` nodes in order, one bank transfer per step.

    ``rollback_at_end`` rolls back once to the named savepoint before
    finishing (detected via the WRO compensation counter).
    """

    def __init__(self, agent_id, plan, savepoints=(), rollback_to=None,
                 amounts=10):
        super().__init__(agent_id)
        self.plan = list(plan)
        self.savepoints = dict(savepoints)  # pos -> sp_id
        self.rollback_to = rollback_to
        self.amount = amounts
        self.sro["pos"] = 0

    def step(self, ctx):
        pos = self.sro["pos"]
        bank = ctx.resource("bank")
        bank.transfer("a", "b", self.amount)
        ctx.log_resource_compensation(
            "t.undo_transfer",
            {"src": "a", "dst": "b", "amount": self.amount},
            resource="bank")
        note = f"visited-{pos}"
        self.wro.setdefault("notes", []).append(note)
        ctx.log_agent_compensation("t.forget_note", {"note": note})
        self.sro["pos"] = pos + 1
        if pos + 1 < len(self.plan):
            ctx.goto(self.plan[pos + 1], "step")
        else:
            ctx.goto(self.plan[0], "wrap")
        if pos in self.savepoints:
            ctx.savepoint(self.savepoints[pos])

    def wrap(self, ctx):
        if (self.rollback_to is not None
                and not self.wro.get("compensations")):
            ctx.rollback(self.rollback_to)
        ctx.finish({
            "notes": list(self.wro.get("notes", [])),
            "compensations": self.wro.get("compensations", 0),
            "pos": self.sro["pos"],
        })


class OneShotAgent(MobileAgent):
    """Runs a single step that calls ``self.action(ctx)`` then finishes."""

    def go(self, ctx):
        result = self.action(ctx)
        ctx.finish(result)

    def action(self, ctx):  # overridden in subclasses
        return None


class LivenessProbe(MobileAgent):
    """Stays on ``node`` for ``reads`` steps; each step records
    ``(time, answer)``, where the answer is what the executing shard
    reads of ``target`` mid-epoch (:meth:`observe`).  Finishes with the
    list of readings.  Reads through the step's node, as the protocol
    code does: a probe, not an agent program."""

    def __init__(self, agent_id, node, target, reads):
        super().__init__(agent_id)
        self.node, self.target, self.reads = node, target, reads

    def observe(self, world):
        return world.node_up(self.target)

    def read(self, ctx):
        world = ctx._node.world
        seen = self.sro.setdefault("seen", [])
        seen.append((world.sim.now, self.observe(world)))
        if len(seen) < self.reads:
            ctx.goto(self.node, "read")
        else:
            ctx.finish(list(seen))


class ClaimProbe(LivenessProbe):
    """A :class:`LivenessProbe` of the ledger quorum: reads who holds
    work id ``target`` (every live replica is asked)."""

    def observe(self, world):
        return world.ft.claimed_by(self.target)


class ClaimStager(MobileAgent):
    """One step that claims work id ``work_id`` for its node in the
    step's transaction (the claim commits with the step)."""

    def __init__(self, agent_id, work_id):
        super().__init__(agent_id)
        self.work_id = work_id

    def go(self, ctx):
        ctx._node.world.ft.claim(ctx._tx, self.work_id, ctx.node_name)
        ctx.finish(self.work_id)


# ---------------------------------------------------------------------------
# Backend-neutral differential workload (tests/test_multiproc_differential.py)
#
# The same seeded FT itinerary workload — rollbacks, compensations,
# node crashes, whole-shard outages with restart — expressed through
# the call surface all three execution backends share (unsharded World,
# in-process ShardedWorld, process-backed ProcShardedWorld), so their
# runs can be compared agent by agent and bank by bank.  Everything
# here is module-level and picklable: that is the worker-process
# contract.
# ---------------------------------------------------------------------------

FT_RING = [f"n{i}" for i in range(9)]


def make_world(backend, seed=0, n_shards=3, **kwargs):
    """An empty world on ``backend``: ``"world"`` (single kernel),
    ``"sharded"`` (in-process shards) or ``"proc"`` (worker
    processes)."""
    from repro import ProcShardedWorld, ShardedWorld

    if backend == "world":
        return World(seed=seed, **kwargs)
    if backend == "sharded":
        return ShardedWorld(n_shards=n_shards, seed=seed, **kwargs)
    if backend == "proc":
        return ProcShardedWorld(n_shards=n_shards, seed=seed, **kwargs)
    raise ValueError(f"unknown backend {backend!r}")


def build_ft_ring(backend, seed=7, n_shards=3, takeover_timeout=0.05,
                  alternates=True, **kwargs):
    """A ring of banked nodes on any backend (see :func:`make_world`),
    with FT alternates.

    Node i's alternates are the next two ring nodes, which round-robin
    placement puts in the two other shards.
    """
    from repro import FTParams

    kwargs.setdefault("ft_params",
                      FTParams(takeover_timeout=takeover_timeout))
    world = make_world(backend, seed, n_shards, **kwargs)
    for name in FT_RING:
        node = world.add_node(name)
        bank = Bank("bank")
        bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    if alternates:
        ring = FT_RING
        for i, name in enumerate(ring):
            world.set_alternates(name, ring[(i + 1) % len(ring)],
                                 ring[(i + 2) % len(ring)])
    return world


def launch_ft_tours(world, n_agents=3, plan_len=4, rollback=True):
    """FT tours through every shard; each rolls back once at the end."""
    from repro.agent.packages import Protocol

    records = []
    for a in range(n_agents):
        start = 3 * a
        plan = [FT_RING[(start + j) % len(FT_RING)]
                for j in range(plan_len)]
        agent = LinearAgent(f"ag-{a}", plan,
                            savepoints={0: "sp"} if rollback else (),
                            rollback_to="sp" if rollback else None)
        records.append(world.launch(agent, at=plan[0], method="step",
                                    protocol=Protocol.FAULT_TOLERANT))
    return records


def ring_debits(world):
    """Per-node account-a debits: the exactly-once effect measure."""
    return {
        name: 1_000 - world.resource_state(name, "bank").peek("a")["balance"]
        for name in FT_RING
    }


def shard_nodes(shard, n_shards=3):
    """The ring nodes round-robin placement assigns to ``shard``."""
    return [name for i, name in enumerate(FT_RING)
            if i % n_shards == shard]


def scenario_record(world, backend):
    """The comparison record of a finished differential scenario."""
    result = {
        "outcomes": world.outcomes(),
        "debits": ring_debits(world),
        "ledger_agrees": (world.ledger_quorum_agrees()
                          if backend != "world" else True),
    }
    if backend != "world":
        result["counters"] = world.counters()
        result["epochs"] = world.epochs_run
        result["events"] = world.events_processed()
    return result


def run_differential_scenario(backend, seed, outage=None, n_agents=3,
                              rollback=True, **kwargs):
    """Run one differential scenario; returns the comparison record.

    ``outage`` is ``None`` or ``(shard, at, restart_at)``.  On the
    unsharded backend a whole-shard outage is expressed as what it does
    to the nodes — every node of the shard crashes at the kill time and
    recovers at the restart — which is exactly the sharded semantics
    minus the (outcome-invisible) kernel freeze.
    """
    from repro.sim.failures import CrashPlan

    world = build_ft_ring(backend, seed=seed, **kwargs)
    try:
        if outage is not None:
            shard, at, restart_at = outage
            if backend == "world":
                world.apply_crash_plans(
                    [CrashPlan(name, at, restart_at - at)
                     for name in shard_nodes(shard)])
            else:
                world.kill_shard(shard, at=at, restart_at=restart_at)
        launch_ft_tours(world, n_agents=n_agents, rollback=rollback)
        world.run(until=120.0)
        return scenario_record(world, backend)
    finally:
        world.close()


def run_crash_resume_scenario(backend, seed, kill_at, phase="commit",
                              outage=None, n_agents=3, rollback=True,
                              journal_factory=None, **kwargs):
    """Run the differential workload, crash the coordinator, resume.

    Builds the journaled world, hard-stops it at the first epoch
    barrier >= ``kill_at`` (``phase`` picks the commit-adjacent or the
    mid-barrier kill point), rebuilds it from the journal with
    :func:`repro.journal.resume_world` and runs the continuation to
    completion.  Returns the same comparison record as
    :func:`run_differential_scenario` — the crash-resume differential
    axis asserts the two are identical.

    ``journal_factory`` makes a fresh journal over the *same* durable
    backend per call (called twice: original run, recovery); the
    default keeps a single in-memory backend alive across the simulated
    crash.
    """
    from repro.errors import WorldKilled
    from repro.journal import MemoryJournal, WorldJournal, resume_world
    from repro.sim.failures import CrashPlan

    if journal_factory is None:
        shared = MemoryJournal()
        journal_factory = lambda: WorldJournal(shared)  # noqa: E731
    journal = journal_factory()
    world = build_ft_ring(backend, seed=seed, journal=journal, **kwargs)
    killed = False
    try:
        if outage is not None:
            shard, at, restart_at = outage
            if backend == "world":
                world.apply_crash_plans(
                    [CrashPlan(name, at, restart_at - at)
                     for name in shard_nodes(shard)])
            else:
                world.kill_shard(shard, at=at, restart_at=restart_at)
        launch_ft_tours(world, n_agents=n_agents, rollback=rollback)
        world.kill_world(at=kill_at, phase=phase)
        try:
            world.run(until=120.0)
        except WorldKilled:
            killed = True
    finally:
        world.close()
        journal.close()
    journal = journal_factory()
    resumed = resume_world(journal)
    try:
        resumed.run(until=120.0)
        return scenario_record(resumed, backend), killed
    finally:
        resumed.close()
        journal.close()


def build_line_world(n_nodes=4, seed=0, backend="world", **world_kwargs):
    """n nodes in a line, each with a bank holding accounts a and b and
    a directory, on any backend (see :func:`make_world`)."""
    world = make_world(backend, seed, **world_kwargs)
    for i in range(n_nodes):
        node = world.add_node(f"n{i}")
        bank = Bank("bank")
        bank.seed_account("a", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("b", 1_000, overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
        directory = InfoDirectory("directory")
        directory.publish("offers", [{"price": i}])
        node.add_resource(directory)
    return world


def bank_of(world: World, node: str) -> Bank:
    return world.node(node).get_resource("bank")


def live_attach_journal(payloads):
    """The journal ``payloads`` with a ``live_attach`` config marker, as
    older code wrote a journal attached to an already-running world."""
    from repro.journal.journal import encode_record

    _kind, config = decode_record(payloads[0])
    config["live_attach"] = {"events_processed": 40, "at": 0.05}
    live = MemoryJournal()
    live.append(encode_record("config", config))
    for payload in payloads[1:]:
        live.append(payload)
    return live


class RecordingJournal(MemoryJournal):
    """An in-RAM backend that keeps a synced-bytes watermark."""

    def __init__(self):
        super().__init__()
        self.synced_bytes = 0
        self.syncs = 0

    def sync(self):
        self.syncs += 1
        self.synced_bytes = self.size_bytes

    def marker_end(self, commit=None):
        """Offset just past commit marker ``commit`` (default: the last)."""
        payloads, _torn = self.read_all()
        offset = end = 0
        for payload in payloads:
            offset += len(frame(payload))
            kind, data = decode_record(payload)
            if kind == "epoch" and commit in (None, data["commit"]):
                end = offset
        return end

    def covers_last_marker(self):
        return self.synced_bytes >= self.marker_end() > 0
