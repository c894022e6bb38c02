"""World building, tour running and result extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.agent.packages import Protocol, RollbackMode
from repro.bench.workloads import BANK, DIRECTORY, TourAgent, TourPlan
from repro.log.modes import LoggingMode
from repro.node.runtime import AgentStatus, World
from repro.resources.bank import Bank, OverdraftPolicy
from repro.resources.directory import InfoDirectory
from repro.sim.timing import NetworkParams, TimingModel


def build_tour_world(n_nodes: int, seed: int = 0,
                     logging_mode: LoggingMode = LoggingMode.STATE,
                     timing: Optional[TimingModel] = None,
                     net_params: Optional[NetworkParams] = None) -> World:
    """A ring of nodes, each hosting a bank and a directory."""
    kwargs: dict[str, Any] = {"seed": seed, "logging_mode": logging_mode}
    if timing is not None:
        kwargs["timing"] = timing
    if net_params is not None:
        kwargs["net_params"] = net_params
    world = World(**kwargs)
    for i in range(n_nodes):
        node = world.add_node(f"n{i}")
        bank = Bank(BANK)
        bank.seed_account("merchant", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        bank.seed_account("escrow", 1_000_000,
                          overdraft=OverdraftPolicy.ALLOWED)
        node.add_resource(bank)
        directory = InfoDirectory(DIRECTORY)
        directory.publish("offers", [{"item": "widget", "price": 10 + i}])
        node.add_resource(directory)
    return world


@dataclass
class TourResult:
    """Everything the claims and CLI tables need from one tour run."""

    status: AgentStatus
    result: Any
    sim_time: float  # the last barrier the run walked
    finished_at: float
    steps_committed: int
    rollbacks: int
    compensation_txs: int
    step_transfers: int
    compensation_transfers: int
    resume_transfers: int
    step_transfer_bytes: int
    compensation_transfer_bytes: int
    rce_ship_messages: int
    rce_ship_bytes: int
    rollback_latency: float
    final_package_bytes: int
    metrics: dict[str, Any] = field(default_factory=dict)
    # Incremental-serialization instrumentation for the world: how many
    # log-entry pickles actually happened vs were satisfied from entry
    # blob caches, and how many snapshots took the structural fast path.
    serialization_stats: dict[str, int] = field(default_factory=dict)

    @property
    def rollback_agent_transfers(self) -> int:
        """Agent moves attributable to the rollback itself."""
        return self.compensation_transfers


def rollback_latencies(world: World) -> list[float]:
    """Initiation→completion latency of every rollback in the run.

    Pairs rollback-initiated/rollback-completed timeline events per
    agent in order; retried initiations (same rollback re-initiated
    after a crash restarted the aborting step) collapse onto the first
    initiation, matching how a user would experience the latency.
    """
    starts: dict[str, list[float]] = {}
    latencies: list[float] = []
    for time, kind, details in world.metrics.timeline:
        if kind == "rollback-initiated":
            starts.setdefault(details["agent"], []).append(time)
        elif kind == "rollback-completed":
            pending = starts.get(details["agent"])
            if pending:
                latencies.append(time - pending[0])
                starts[details["agent"]] = []
    return latencies


def run_tour(plan: TourPlan, n_nodes: int,
             mode: RollbackMode = RollbackMode.BASIC,
             protocol: Protocol = Protocol.BASIC,
             seed: int = 0,
             logging_mode: LoggingMode = LoggingMode.STATE,
             world: Optional[World] = None) -> TourResult:
    """Run one tour to completion and harvest metrics."""
    if world is None:
        world = build_tour_world(n_nodes, seed=seed,
                                 logging_mode=logging_mode)
    agent = TourAgent(f"tour-{seed}-{mode.value}", plan)
    record = world.launch(agent, at=plan.steps[0].node, method="run",
                          mode=mode, protocol=protocol)
    world.run()
    metrics = world.metrics
    latencies = rollback_latencies(world)
    final_bytes = 0
    if record.final_agent is not None:
        from repro.storage.serialization import size_of
        final_bytes = size_of(record.final_agent)
    return TourResult(
        status=record.status,
        result=record.result,
        sim_time=world.sim.now,
        finished_at=(record.finished_at if record.finished_at is not None
                     else world.sim.now),
        steps_committed=record.steps_committed,
        rollbacks=record.rollbacks_completed,
        compensation_txs=record.compensation_txs,
        step_transfers=metrics.count("agent.transfers.step"),
        compensation_transfers=metrics.count("agent.transfers.compensation"),
        resume_transfers=metrics.count("agent.transfers.resume"),
        step_transfer_bytes=metrics.total_bytes("agent.transfers.step"),
        compensation_transfer_bytes=metrics.total_bytes(
            "agent.transfers.compensation"),
        rce_ship_messages=metrics.count("net.messages.rce-list"),
        rce_ship_bytes=metrics.total_bytes("net.rce-list"),
        rollback_latency=(sum(latencies) / len(latencies)) if latencies
        else 0.0,
        final_package_bytes=final_bytes,
        metrics=metrics.summary(),
        serialization_stats=world.serialization_stats(),
    )


def format_table(headers: list[str], rows: list[list[Any]],
                 title: str = "") -> str:
    """Render an ASCII table (what the CLI prints)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
