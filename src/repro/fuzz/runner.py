"""Run fuzz cases on all three backends and cross-check the results.

Two independent nets catch a divergence:

* the **differential** net — outcomes must be identical across the
  unsharded :class:`World`, the in-process :class:`ShardedWorld` and
  the multiprocess :class:`ProcShardedWorld`; per-node balance maps,
  counters, epochs and event totals must be bit-identical between the
  two sharded backends; the replicated ledger must agree;
* the **model** net — every backend must match the placement-free
  prediction of :mod:`repro.fuzz.model`: agent outcome payloads,
  rollback counts, per-agent customer spend and shared-account totals.

The second net is what makes the fuzzer more than a consistency check:
a semantic-compensation bug that manifests identically on all three
backends (the realistic kind — the same registered operation runs
everywhere) slips through the first net and is caught by the second.

``check_case`` returns a list of human-readable failure strings
(empty = clean); ``run_seed_range`` drives it over ``range(a, b)`` and
collects one-line repro strings for the failing seeds.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.fuzz.generator import (
    FuzzCase,
    generate_case,
    repro_string,
    validate_case,
)
from repro.fuzz.model import predict
from repro.scenarios.agent import (
    CUSTOMER_SEED,
    SHARED_ACCOUNTS,
    ScenarioAgent,
)

#: Execution backends a case is cross-checked on, cheapest first.
BACKENDS = ("world", "sharded", "proc")


def build_case_world(case: FuzzCase, backend: str):
    """A world for ``case`` on ``backend``, banked and FT-wired."""
    from repro import (
        Bank,
        FTParams,
        ProcShardedWorld,
        ShardedWorld,
        World,
    )
    from repro.resources.bank import OverdraftPolicy

    kwargs = {"ft_params": FTParams(takeover_timeout=0.05)}
    if backend == "world":
        world = World(seed=case.seed, **kwargs)
    elif backend == "sharded":
        world = ShardedWorld(n_shards=case.n_shards, seed=case.seed,
                             **kwargs)
    elif backend == "proc":
        world = ProcShardedWorld(n_shards=case.n_shards, seed=case.seed,
                                 **kwargs)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    nodes = case.nodes()
    for name in nodes:
        node = world.add_node(name)
        bank = Bank("bank")
        for account in SHARED_ACCOUNTS:
            bank.seed_account(account, 0,
                              overdraft=OverdraftPolicy.ALLOWED)
        for plan in case.agents:
            bank.seed_account(f"cust-{plan.agent_id}", CUSTOMER_SEED,
                              overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
    for i, name in enumerate(nodes):
        world.set_alternates(name, nodes[(i + 1) % len(nodes)],
                             nodes[(i + 2) % len(nodes)])
    return world


def _shard_nodes(case: FuzzCase, shard: int) -> list[str]:
    """Nodes round-robin placement assigns to ``shard``."""
    return [name for i, name in enumerate(case.nodes())
            if i % case.n_shards == shard]


def run_case_on(case: FuzzCase, backend: str) -> dict[str, Any]:
    """One backend run; returns the comparable outcome surface."""
    from repro.agent.packages import Protocol, RollbackMode
    from repro.sim.failures import CrashPlan

    world = build_case_world(case, backend)
    try:
        if case.crashes:
            world.apply_crash_plans(
                [CrashPlan(crash["node"], crash["at"], crash["down"])
                 for crash in case.crashes])
        if case.outage is not None:
            if backend == "world":
                # Same semantics minus the (outcome-invisible) kernel
                # freeze: every node of the shard crashes and recovers.
                world.apply_crash_plans(
                    [CrashPlan(name, case.outage["at"],
                               case.outage["restart_at"]
                               - case.outage["at"])
                     for name in _shard_nodes(case, case.outage["shard"])])
            else:
                world.kill_shard(case.outage["shard"],
                                 at=case.outage["at"],
                                 restart_at=case.outage["restart_at"])
        for plan in case.agents:
            agent = ScenarioAgent(plan.agent_id, plan.steps)
            world.launch(agent, at=plan.steps[0].node, method="step",
                         mode=RollbackMode(case.mode),
                         protocol=Protocol.FAULT_TOLERANT)
        world.run(until=case.horizon)
        balances = {}
        for name in case.nodes():
            bank = world.resource_state(name, "bank")
            balances[name] = {account: bank.peek(account)["balance"]
                              for account in sorted(bank.keys())}
        result = {
            "outcomes": world.outcomes(),
            "balances": balances,
            "ledger_agrees": (world.ledger_quorum_agrees()
                              if backend != "world" else True),
        }
        if backend != "world":
            result["counters"] = world.counters()
            result["epochs"] = world.epochs_run
            result["events"] = world.events_processed()
        return result
    finally:
        world.close()


def _account_total(record: dict[str, Any], account: str) -> int:
    return sum(per_node.get(account, 0)
               for per_node in record["balances"].values())


def _check_model(backend: str, record: dict[str, Any],
                 expected: dict[str, Any], case: FuzzCase) -> list[str]:
    failures = []
    outcomes = record["outcomes"]
    for agent_id, prediction in expected["agents"].items():
        outcome = outcomes.get(agent_id)
        if outcome is None:
            failures.append(f"{backend}: agent {agent_id} has no outcome")
            continue
        if outcome["status"] != "finished":
            failures.append(
                f"{backend}: {agent_id} ended {outcome['status']!r} "
                f"({outcome.get('failure')})")
            continue
        if outcome["result"] != prediction["result"]:
            failures.append(
                f"{backend}: {agent_id} result {outcome['result']!r} != "
                f"model {prediction['result']!r}")
        if outcome["rollbacks_completed"] != prediction["rollbacks"]:
            failures.append(
                f"{backend}: {agent_id} completed "
                f"{outcome['rollbacks_completed']} rollbacks, model says "
                f"{prediction['rollbacks']}")
        actual_customer = _account_total(record, f"cust-{agent_id}")
        if actual_customer != prediction["customer_total"]:
            failures.append(
                f"{backend}: {agent_id} customer total {actual_customer} "
                f"!= model {prediction['customer_total']}")
    for account, total in expected["totals"].items():
        actual = _account_total(record, account)
        if actual != total:
            failures.append(
                f"{backend}: {account} total {actual} != model {total}")
    return failures


def _check_differential(records: dict[str, dict[str, Any]]) -> list[str]:
    failures = []
    backends = list(records)
    reference = backends[0]
    for backend in backends[1:]:
        if records[backend]["outcomes"] != records[reference]["outcomes"]:
            failures.append(
                f"outcomes diverge: {backend} != {reference}")
        for account in records[reference]["balances"][
                next(iter(records[reference]["balances"]))]:
            lhs = _account_total(records[reference], account)
            rhs = _account_total(records[backend], account)
            if lhs != rhs:
                failures.append(
                    f"{account} totals diverge: {reference}={lhs} "
                    f"{backend}={rhs}")
    for backend in backends:
        if not records[backend]["ledger_agrees"]:
            failures.append(f"{backend}: ledger quorum disagrees")
    if "sharded" in records and "proc" in records:
        sharded, proc = records["sharded"], records["proc"]
        if sharded["balances"] != proc["balances"]:
            failures.append("per-node balances diverge: sharded != proc")
        for key in ("counters", "epochs", "events"):
            if sharded[key] != proc[key]:
                failures.append(f"{key} diverge: sharded != proc")
    return failures


def check_case(case: FuzzCase,
               backends: Sequence[str] = BACKENDS) -> list[str]:
    """All nets over one case; returns failure strings (empty = clean)."""
    validate_case(case)
    expected = predict(case)
    failures: list[str] = []
    records: dict[str, dict[str, Any]] = {}
    for backend in backends:
        try:
            records[backend] = run_case_on(case, backend)
        except Exception as exc:  # noqa: BLE001 - a crash IS the finding
            failures.append(f"{backend}: crashed: {exc!r}")
    for backend, record in records.items():
        failures.extend(_check_model(backend, record, expected, case))
    if len(records) > 1:
        failures.extend(_check_differential(records))
    return failures


def run_seed(seed: int,
             backends: Sequence[str] = BACKENDS) -> list[str]:
    """Generate and check one seed; returns failure strings."""
    return check_case(generate_case(seed), backends)


def run_seed_range(start: int, stop: int,
                   backends: Sequence[str] = BACKENDS,
                   on_progress: Optional[Callable[[int, list], None]] = None
                   ) -> dict[str, Any]:
    """Sweep ``range(start, stop)``; collect failures + repro strings."""
    failures: dict[int, list[str]] = {}
    for seed in range(start, stop):
        messages = run_seed(seed, backends)
        if messages:
            failures[seed] = messages
        if on_progress is not None:
            on_progress(seed, messages)
    return {
        "seeds": stop - start,
        "failing_seeds": sorted(failures),
        "failures": failures,
        "repros": [repro_string(seed) for seed in sorted(failures)],
    }
