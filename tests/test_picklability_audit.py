"""Tests: the process-picklability contract of everything that ships.

Worker-mode correctness rests on a contract the type system cannot
enforce: every object that crosses the coordinator/worker pipe — agent
packages, shadow-copy messages, ledger mirrors, whole bridge transfers
— must survive a ``spawn``-context pickle round trip with no captured
closures or live world references.  These tests pack real bridge
traffic (harvested from an in-process FT run with outage, so all three
kinds exist) and real workload packages through an actual spawned
process, and check that a violation fails *readably*, naming the
offending frame, before it can become an opaque worker crash.
"""

import multiprocessing

import pytest

from repro.agent.packages import AgentPackage
from repro.node.sharded import CrossShardBridge
from repro.storage.serialization import (
    assert_picklable,
    capture,
    find_unpicklable,
    restore,
)

from tests.helpers import build_ft_ring, launch_ft_tours


def harvest_bridge_traffic():
    """Every transfer the bridge of a kill+restart FT run routed."""
    transfers = []
    original = CrossShardBridge.route

    def recording_route(self, suspended):
        transfers.extend(self._pending)
        return original(self, suspended)

    CrossShardBridge.route = recording_route
    try:
        world = build_ft_ring("sharded", seed=7)
        world.kill_shard(1, at=0.08, restart_at=2.0)
        launch_ft_tours(world)
        world.run()
    finally:
        CrossShardBridge.route = original
    return transfers


def _roundtrip_child(conn):
    """Spawned auditor: echo a digest and a re-pickle of everything it
    can unpickle."""
    while True:
        blob = conn.recv()
        if blob is None:
            return
        obj = restore(blob)
        kind = getattr(obj, "kind", None)
        package = getattr(obj, "package", None) or \
            (obj if type(obj).__name__ == "AgentPackage" else None)
        if package is None and getattr(obj, "message", None) is not None:
            package = obj.message.payload
        size = package.size_bytes if package is not None else None
        # Re-pickling must also succeed (the coordinator forwards the
        # same object on to another worker); the echo comes back too.
        conn.send((type(obj).__name__, str(kind), size, capture(obj)))


@pytest.fixture(scope="module")
def spawn_auditor():
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    process = ctx.Process(target=_roundtrip_child, args=(child,),
                          daemon=True)
    process.start()
    child.close()
    yield parent
    parent.send(None)
    process.join(timeout=10)


def spawn_roundtrip(auditor, obj, context):
    """(type name, kind, package size, echoed object) from the auditor."""
    assert_picklable(obj, context)
    auditor.send(capture(obj))
    type_name, kind, size, echo = auditor.recv()
    return type_name, kind, size, restore(echo)


# -- every bridge traffic kind, through a real spawned process ---------------------


def test_all_bridge_traffic_kinds_survive_spawn_roundtrip(spawn_auditor):
    transfers = harvest_bridge_traffic()
    kinds = {t.kind for t in transfers}
    # The outage run must have exercised every traffic kind, or this
    # audit is vacuous.
    assert kinds == {"package", "shadow", "ledger"}
    for transfer in transfers:
        type_name, _kind, size, echo = spawn_roundtrip(
            spawn_auditor, transfer,
            f"bridge {transfer.kind} transfer to "
            f"{transfer.dest_name or transfer.dest_shard}")
        assert type_name == "_Transfer"
        assert echo == transfer
        if transfer.kind == "package":
            # The transfer-cost model survives the boundary: the framed
            # payload size the destination charges is the one computed
            # at the source.
            assert size == transfer.package.size_bytes
        elif transfer.kind == "shadow":
            assert size == transfer.message.payload.size_bytes


def test_workload_agent_packages_survive_spawn_roundtrip(spawn_auditor):
    """Every package the example FT workload mints is spawn-safe."""
    packages = []
    original = AgentPackage.pack.__func__

    def recording_pack(cls, *args, **kwargs):
        package = original(cls, *args, **kwargs)
        packages.append(package)
        return package

    AgentPackage.pack = classmethod(recording_pack)
    try:
        world = build_ft_ring("sharded", seed=11)
        launch_ft_tours(world)
        world.run()
    finally:
        AgentPackage.pack = classmethod(original)
    assert len(packages) > 10
    for package in packages:
        type_name, _kind, size, _echo = spawn_roundtrip(
            spawn_auditor, package,
            f"package of agent {package.agent_id} "
            f"(step {package.step_index}, {package.kind.value})")
        assert type_name == "AgentPackage"
        assert size == package.size_bytes


# -- readable failure on contract violations ---------------------------------------


class _Sneaky:
    """A payload that smuggles a closure into an attribute."""

    def __init__(self):
        self.fine = {"a": 1}
        self.smuggled = lambda: None


def test_violation_names_the_offending_attribute():
    offenders = find_unpicklable(_Sneaky())
    assert offenders
    paths = [path for path, _reason in offenders]
    assert "$.smuggled" in paths
    # The healthy part is not reported.
    assert all("fine" not in path for path in paths)


def test_assert_picklable_produces_a_contract_error():
    with pytest.raises(TypeError) as excinfo:
        assert_picklable({"frame": _Sneaky()}, "bridge outbox of shard 2")
    message = str(excinfo.value)
    assert "bridge outbox of shard 2" in message
    assert "$['frame'].smuggled" in message
    assert "closures" in message


def test_nested_offenders_are_all_reported():
    payload = {"a": [lambda: 1], "b": {"deep": (1, 2, lambda: 3)}}
    paths = {path for path, _ in find_unpicklable(payload)}
    assert "$['a'][0]" in paths
    assert "$['b']['deep'][2]" in paths


def test_picklable_objects_pass_silently():
    assert find_unpicklable({"x": [1, "two", (3.0,)]}) == []
    assert_picklable({"x": 1}, "anything")  # no raise


def test_cyclic_object_graphs_terminate_with_named_offender():
    cyclic = {"f": lambda: 1}
    cyclic["self"] = cyclic  # agent state graphs are commonly cyclic
    paths = {path for path, _ in find_unpicklable(cyclic)}
    assert "$['f']" in paths
    with pytest.raises(TypeError) as excinfo:
        assert_picklable(cyclic, "cyclic payload")
    assert "$['f']" in str(excinfo.value)


def _tick() -> None:
    pass


def test_scope_and_kernel_sequences_pickle_and_continue():
    """A scope and a kernel count in plain integers, so both pickle
    without a warning on every supported Python (pickling a stdlib
    ``count`` iterator is deprecated since 3.12) and every sequence
    continues where it stopped."""
    import warnings

    from repro.scope import ID_STRIDE, SEQUENCES, Scope
    from repro.sim.kernel import Simulator

    scope = Scope(3)
    first = {name: scope.mint(name) for name in SEQUENCES}
    assert first["work"] == 1 + 3 * ID_STRIDE
    assert first["message"] == 1
    sim = Simulator(seed=1)
    sim.schedule(0.5, _tick)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scope_copy, sim_copy = restore(capture((scope, sim)))
    assert {name: scope_copy.mint(name) for name in SEQUENCES} == \
        {name: value + 1 for name, value in first.items()}
    assert scope_copy.stats == scope.stats
    assert sim_copy.schedule(1.0, _tick).seq == 1
    assert sim_copy.peek_time() == 0.5
