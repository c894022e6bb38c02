"""Per-layer metrics, computed from what the repetitions observed.

Every name is ``<layer module>.<quantity>``.  A layer a workload never
enters reads 0 there, which is the truth: no calls, no time.  Counts
come from the first traced repetition (they repeat exactly for a
seed); timings are medians over the traced repetitions.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Optional

from perf.measure import percentile


def _median(reps: list[dict], value: Callable[[dict], float]) -> float:
    return statistics.median(value(rep) for rep in reps)


def _prefix_sum(counters: dict[str, int], prefix: str,
                skip: tuple[str, ...] = ()) -> int:
    return sum(v for k, v in counters.items()
               if k.startswith(prefix) and k not in skip)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _step_percentiles(reps: list[dict]) -> tuple[float, float]:
    steps = [s * 1e6 for rep in reps for s in rep["steps_s"]]
    if not steps:
        return 0.0, 0.0
    return percentile(steps, 0.50), percentile(steps, 0.99)


def counted(rep: dict[str, Any]) -> dict[str, float]:
    """Layer metrics read off one repetition's counters."""
    c = rep["obs"]["counters"]
    s = rep["obs"]["stats"]
    committed = _prefix_sum(c, "tx.committed.")
    aborted = _prefix_sum(c, "tx.aborted.")
    reused = s.get("entry_blob_reused", 0)
    serialized = s.get("entry_blob_serialized", 0)
    return {
        "storage.entry_blob_serialized": serialized,
        "storage.entry_blob_reused": reused,
        "storage.reuse_ratio": _ratio(reused, reused + serialized),
        "storage.snapshot_fast": s.get("snapshot_fast", 0),
        "storage.snapshot_pickle": s.get("snapshot_pickle", 0),
        "agent.transfers.step": c.get("agent.transfers.step", 0),
        "agent.transfers.compensation":
            c.get("agent.transfers.compensation", 0),
        "log.savepoints_written": c.get("savepoints.written", 0),
        "log.truncations": c.get("log.truncations", 0),
        "log.entries_discarded": c.get("log.entries_discarded", 0),
        "core.rollbacks_completed": c.get("rollback.completed", 0),
        "core.compensation_ops": c.get("compensation.ops_executed", 0),
        "core.compensation_txs": c.get("compensation.tx_committed", 0),
        "core.rollback_bytes":
            c.get("bytes.agent.transfers.compensation", 0)
            + c.get("bytes.net.rce-list", 0),
        "core.sim_rollback_latency_s": rep["obs"]["sim_rollback_latency_s"],
        "tx.committed": committed,
        "tx.aborted": aborted,
        "tx.abort_ratio": _ratio(aborted, committed + aborted),
        "tx.2pc_commits": c.get("2pc.commits", 0),
        "net.messages": _prefix_sum(c, "net.messages."),
        "net.bytes": _prefix_sum(c, "bytes.net.", skip=("bytes.net.total",)),
        "net.retries": c.get("net.retries", 0),
        "net.gave_up": c.get("net.gave_up", 0),
        "exactly_once.promotions": c.get("ft.promotions", 0),
        "exactly_once.shadows_shipped": c.get("ft.shadows_shipped", 0),
        "exactly_once.quorum_reads": c.get("ft.ledger.quorum_reads", 0),
        "exactly_once.step_diverted": c.get("ft.step_diverted", 0),
    }


def kernel_layers(workload: str, traced: list[dict],
                  reference: Optional[dict],
                  unjournaled: Optional[dict]) -> dict[str, float]:
    """Layer metrics of a kernel workload's traced repetitions."""
    first = traced[0]
    obs = first["obs"]
    out = counted(first)
    out["sim.events"] = obs["events"]
    out["sim.events_per_s"] = _median(
        traced, lambda r: r["obs"]["events"] / r["wall_s"])
    # launch() was timed by the caller as "node.runtime.launch" spans.
    out["node.runtime.launch_us"] = _median(
        traced, lambda r: statistics.median(r["launches_s"]) * 1e6)
    p50, p99 = _step_percentiles(traced)
    epochs = max(obs["epochs"], 1)
    stats = obs["stats"]
    if workload == "tour-rollback":
        out["node.runtime.step_epoch_us_p50"] = p50
        out["node.runtime.step_epoch_us_p99"] = p99
    elif workload == "journal-resume":
        out["node.sharded.epochs"] = obs["epochs"]
        out["node.sharded.step_epoch_us_p50"] = p50
        out["node.sharded.step_epoch_us_p99"] = p99
    else:
        out["node.procshard.epochs"] = obs["epochs"]
        out["node.procshard.step_epoch_us_p50"] = p50
        out["node.procshard.step_epoch_us_p99"] = p99
        out["node.procshard.barrier_us"] = _median(
            traced, lambda r: r["wall_s"] / max(r["obs"]["epochs"], 1) * 1e6)
        out["node.procshard.spawn_s"] = _median(traced, lambda r: r["spawn_s"])
        out["node.procshard.close_s"] = _median(traced, lambda r: r["close_s"])
        out["node.procshard.worker_rss_mb"] = _median(
            traced, lambda r: r["worker_rss_mb"])
        out["node.procshard.spec_epochs_speculated"] = \
            stats["spec.epochs_speculated"]
        out["node.procshard.spec_epochs_rolled_back"] = \
            stats["spec.epochs_rolled_back"]
        out["node.procshard.spec_conflict_rate"] = stats["spec.conflict_rate"]
        out["node.procshard.teardown_suppressed"] = \
            stats["teardown.suppressed"]
        out["node.shmring.bytes_framed_per_barrier"] = \
            stats["ipc_bytes_framed"] / epochs
        out["node.shmring.bytes_copied_per_barrier"] = \
            stats["ipc_bytes_copied"] / epochs
        out["node.shmring.bytes_control_per_barrier"] = \
            stats["ipc_bytes_control"] / epochs
        out["node.shmring.frames"] = stats["frame_reused"]
        out["node.shmring.ring_spills"] = stats["ring_spills"]
        if reference is not None:
            proc_s = _median(traced, lambda r: r["wall_s"])
            out["node.procshard.inproc_run_s"] = reference["wall_s"]
            out["node.procshard.proc_run_s"] = proc_s
            out["node.procshard.proc_over_inproc"] = \
                reference["wall_s"] / proc_s
    if workload != "tour-rollback":
        out["node.sharded.bridge_transfers"] = \
            obs["counters"].get("bridge.transfers", 0)
    if workload == "journal-resume":
        out.update(journal_layers(traced, unjournaled))
    return out


def journal_layers(traced: list[dict],
                   unjournaled: Optional[dict]) -> dict[str, float]:
    first = traced[0]["journal"]
    agents = traced[0]["ops"] // 2
    out = {
        "journal.appends": len(first["appends_s"]),
        "journal.syncs": len(first["syncs_s"]),
        "journal.bytes": first["stats"]["bytes"],
        "journal.bytes_per_agent": first["stats"]["bytes"] / agents,
        "journal.records": first["stats"]["records_written"],
        "journal.commits": first["stats"]["commits"],
        "journal.kept_records": first["kept_records"],
        "journal.discarded_records": first["discarded_records"],
        "journal.append_s": _median(
            traced, lambda r: sum(r["journal"]["appends_s"])),
        "journal.sync_s": _median(
            traced, lambda r: sum(r["journal"]["syncs_s"])),
    }
    for key in ("full_run_s", "resume_s", "recover_s", "rebuild_replay_s",
                "tail_run_s"):
        out[f"journal.{key}"] = _median(traced, lambda r: r["journal"][key])
    out["journal.resume_over_full"] = _median(
        traced, lambda r: (r["journal"]["resume_s"] + r["journal"]["tail_run_s"])
        / r["journal"]["full_run_s"])
    if unjournaled is not None:
        out["journal.unjournaled_run_s"] = unjournaled["wall_s"]
        out["journal.overhead_ratio"] = \
            out["journal.full_run_s"] / unjournaled["wall_s"]
    return out


def service_layers(traced: list[dict], host: dict[str, float]
                   ) -> dict[str, float]:
    first = traced[0]
    out = counted(first)
    drained = first["drained"]
    out.update({
        "service.gateway.launch_p50_ms": _median(traced, lambda r: r["p50_ms"]),
        "service.gateway.launch_p90_ms": _median(traced, lambda r: r["p90_ms"]),
        "service.gateway.launch_p99_ms": _median(traced, lambda r: r["p99_ms"]),
        "service.gateway.post_ack_ms_p50": _median(
            traced, lambda r: percentile(r["acks_ms"], 0.50)),
        "service.gateway.post_ack_ms_p90": _median(
            traced, lambda r: percentile(r["acks_ms"], 0.90)),
        "service.gateway.rejected_429": sum(r["rejected_429"] for r in traced),
        "service.gateway.events_dropped": sum(
            r["drained"].get("events_dropped", 0) for r in traced),
        "service.gateway.snapshot_ms": _median(
            traced, lambda r: r["snapshot_ms"]),
        "service.gateway.spawn_s": _median(traced, lambda r: r["spawn_s"]),
        "service.host.epochs_per_launch":
            drained["epochs"] / max(first["ops"], 1),
        "service.host.latency_drift": _median(
            traced, lambda r: r["latency_drift"]),
        "service.host.drain_s": _median(traced, lambda r: r["drain_s"]),
        "service.host.launch_apply_ms_p50": host["launch_apply_ms_p50"],
        "service.host.launch_to_outcome_ms_p50":
            host["launch_to_outcome_ms_p50"],
        "node.sharded.epochs": drained["epochs"],
        "node.sharded.bridge_transfers":
            drained["counters"].get("bridge.transfers", 0),
    })
    return out
