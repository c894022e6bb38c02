"""Command-line interface.

``python -m repro <command>`` runs canned scenarios and prints the
metrics a platform operator would want.  Commands:

``tour``
    Run a tour workload: configurable steps,
    nodes, mixed-entry fraction, rollback mechanism, crash injection.
``compare``
    Run the same tour under the basic and the optimized mechanism and
    print the side-by-side table of Section 4.4.1's claims.
``predict``
    Run a tour's forward pass, then print the static rollback-cost
    prediction next to the measured values.
``trace``
    Run a tour with crash injection and print the event timeline.
``fuzz``
    Differential fuzzing: generate seeded scenario workloads and
    cross-check all three execution backends against each other and
    against the model oracle (``--seed-range A:B``), or replay one
    failing seed from its repro string (``--repro fuzz:v1:seed=N``).
``serve``
    Run the world-as-a-service HTTP gateway: create worlds with
    ``POST /worlds``, launch agents with ``POST /worlds/{id}/launch``,
    stream live telemetry from ``GET /worlds/{id}/events`` (SSE).
    SIGTERM/SIGINT drain gracefully (epoch finishes, journal commits,
    worker processes exit).

All scenarios are deterministic per ``--seed``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.agent.packages import RollbackMode
from repro.bench.harness import build_tour_world, format_table, run_tour
from repro.bench.workloads import make_tour_plan
from repro.sim.trace import describe_world, render_timeline


def _tour_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--nodes", type=int, default=5)
    parser.add_argument("--mixed", type=float, default=0.3,
                        help="fraction of steps with a mixed entry")
    parser.add_argument("--ace", type=float, default=0.2,
                        help="fraction of steps with agent-only entries")
    parser.add_argument("--depth", type=int, default=None,
                        help="rollback depth (default: everything)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crash-rate", type=float, default=0.0,
                        help="Poisson node outages per second per node")
    parser.add_argument("--mode", choices=["basic", "optimized", "saga"],
                        default="optimized")


def _build(args) -> tuple:
    nodes = [f"n{i}" for i in range(args.nodes)]
    plan = make_tour_plan(
        nodes, args.steps, mixed_fraction=args.mixed,
        ace_fraction=min(args.ace, max(0.0, 1.0 - args.mixed)),
        rollback_depth=args.depth or args.steps - 1)
    world = build_tour_world(args.nodes, seed=args.seed)
    if args.crash_rate > 0:
        world.failures.random_outages(nodes, horizon=30.0,
                                      rate_per_s=args.crash_rate,
                                      mean_downtime=0.3)
    return plan, world


def cmd_tour(args) -> int:
    from repro.errors import RollbackLivelock

    plan, world = _build(args)
    try:
        result = run_tour(plan, args.nodes, mode=RollbackMode(args.mode),
                          seed=args.seed, world=world)
    except RollbackLivelock as exc:
        # The saga baseline earns this honestly: its WRO image restore
        # erases the compensation-produced signal that would stop the
        # agent from rolling back again, so it loops forever.
        print(f"run livelocked: {exc}")
        print("(the saga baseline erases the weakly reversible rollback "
              "signal on restore — Section 4.1's argument, live)")
        return 1
    rows = [
        ["status", result.status.value],
        ["steps committed", result.steps_committed],
        ["rollbacks completed", result.rollbacks],
        ["compensation txs", result.compensation_txs],
        ["agent transfers (forward)", result.step_transfers],
        ["agent transfers (rollback)", result.compensation_transfers],
        ["RCE lists shipped", result.rce_ship_messages],
        ["rollback latency (s)", round(result.rollback_latency, 4)],
        ["finished at (s)", round(result.finished_at, 4)],
        ["crashes injected", world.failures.crashes_injected],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"tour: {args.steps} steps on {args.nodes} "
                             f"nodes, mode={args.mode}"))
    return 0 if result.status.value == "finished" else 1


def cmd_compare(args) -> int:
    rows = []
    for mode in (RollbackMode.BASIC, RollbackMode.OPTIMIZED):
        plan, world = _build(args)
        result = run_tour(plan, args.nodes, mode=mode, seed=args.seed,
                          world=world)
        rows.append([mode.value, result.status.value,
                     result.compensation_transfers,
                     result.rce_ship_messages,
                     result.compensation_transfer_bytes
                     + result.rce_ship_bytes,
                     round(result.rollback_latency, 4)])
    print(format_table(
        ["mode", "status", "rollback transfers", "RCE ships",
         "rollback bytes", "latency (s)"],
        rows, title="basic vs optimized (Section 4.4.1)"))
    return 0


def cmd_predict(args) -> int:
    from repro.bench.workloads import TourAgent
    from repro.core.inspector import format_log, predict_rollback

    plan, world = _build(args)
    mode = RollbackMode(args.mode)
    agent = TourAgent(f"cli-predict-{args.seed}", plan)
    world.launch(agent, at=plan.steps[0].node, method="run", mode=mode)
    captured = {}
    driver = world.rollback_driver(mode)
    original = driver.start_rollback

    def spy(node, item, sp_id):
        _agent, log = item.payload.unpack()
        captured["log"] = log
        captured["node"] = node.name
        original(node, item, sp_id)

    driver.start_rollback = spy
    world.run()
    driver.start_rollback = original
    if "log" not in captured:
        print("no rollback happened; nothing to predict")
        return 1
    prediction = predict_rollback(captured["log"], plan.rollback_to,
                                  captured["node"], mode)
    print("rollback log at initiation:")
    print(format_log(captured["log"]))
    print()
    rows = [
        ["compensation txs", prediction.compensation_txs,
         world.metrics.count("compensation.tx_committed")],
        ["agent transfers", prediction.agent_transfers,
         world.metrics.count("agent.transfers.compensation")],
        ["RCE lists shipped", prediction.rce_ships,
         world.metrics.count("net.messages.rce-list")],
    ]
    print(format_table(["metric", "predicted", "measured"], rows,
                       title=f"prediction vs measurement (mode={args.mode})"))
    return 0


def cmd_trace(args) -> int:
    plan, world = _build(args)
    result = run_tour(plan, args.nodes, mode=RollbackMode(args.mode),
                      seed=args.seed, world=world)
    print(render_timeline(world))
    print()
    print(describe_world(world))
    return 0 if result.status.value == "finished" else 1


def _fuzz_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed-range", default="0:20", metavar="A:B",
                        help="half-open seed range to sweep (default 0:20)")
    parser.add_argument("--repro", default=None, metavar="STRING",
                        help="replay one failing seed from its repro "
                             "string (fuzz:v1:seed=N)")
    parser.add_argument("--backends", default="world,sharded,proc",
                        help="comma-separated backend subset "
                             "(default: all three)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write failing-seed repro strings here, "
                             "one per line (CI artifact)")


def cmd_fuzz(args) -> int:
    from repro.fuzz import (
        BACKENDS,
        case_from_repro,
        check_case,
        parse_repro,
        repro_string,
        run_seed_range,
    )

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    unknown = [b for b in backends if b not in BACKENDS]
    if unknown:
        print(f"unknown backend(s) {unknown}; choose from {BACKENDS}")
        return 2

    if args.repro is not None:
        try:
            seed = parse_repro(args.repro)
        except ValueError as exc:
            print(exc)
            return 2
        failures = check_case(case_from_repro(args.repro), backends=backends)
        if failures:
            print(f"seed {seed} REPRODUCES ({len(failures)} finding(s)):")
            for message in failures:
                print(f"  {message}")
            return 1
        print(f"seed {seed}: clean on {', '.join(backends)}")
        return 0

    try:
        start, stop = (int(part) for part in args.seed_range.split(":"))
    except ValueError:
        print(f"--seed-range must be A:B, got {args.seed_range!r}")
        return 2
    if stop <= start:
        # A vacuous "all 0 seeds clean" exit 0 on 5:5 / 10:3 would let a
        # typo'd CI sweep pass without fuzzing anything.
        shape = "empty" if stop == start else "inverted"
        print(f"--seed-range must satisfy A < B, got {args.seed_range!r} "
              f"({shape} range — zero seeds would be fuzzed)")
        return 2

    def progress(seed, messages):
        marker = "DIVERGED" if messages else "ok"
        print(f"  seed {seed}: {marker}", flush=True)

    print(f"fuzzing seeds [{start}:{stop}) on {', '.join(backends)}")
    summary = run_seed_range(start, stop, backends=backends,
                             on_progress=progress)
    if args.out is not None:
        import pathlib

        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{line}\n" for line in summary["repros"]))
    if summary["failing_seeds"]:
        print(f"{len(summary['failing_seeds'])} of {summary['seeds']} "
              f"seeds diverged:")
        for seed in summary["failing_seeds"]:
            print(f"  {repro_string(seed)}")
            for message in summary["failures"][seed]:
                print(f"    {message}")
        return 1
    print(f"all {summary['seeds']} seeds clean "
          f"(zero divergences across {', '.join(backends)})")
    return 0


def _serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8472,
                        help="bind port; 0 picks a free one (default 8472)")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="per-tenant in-flight launch cap before "
                             "429 + Retry-After (default 8)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="per-world queued-launch cap (default 64)")
    parser.add_argument("--retry-after", type=float, default=1.0,
                        help="Retry-After seconds on 429 (default 1.0)")
    parser.add_argument("--metrics-every", type=int, default=16,
                        help="emit a metrics SSE event every N epochs "
                             "(default 16)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds to wait for each world to drain "
                             "on shutdown (default 30)")


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import serve

    if args.port < 0 or args.port > 65535:
        print(f"--port must be in [0, 65535], got {args.port}")
        return 2
    for name in ("max_inflight", "max_pending"):
        if getattr(args, name) < 1:
            print(f"--{name.replace('_', '-')} must be >= 1, got "
                  f"{getattr(args, name)}")
            return 2
    try:
        asyncio.run(serve(
            args.host, args.port,
            max_inflight=args.max_inflight,
            max_pending=args.max_pending,
            retry_after=args.retry_after,
            metrics_every=args.metrics_every,
            drain_timeout=args.drain_timeout))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partial rollback of mobile agent execution "
                    "(Straßer & Rothermel, ICDCS 2000) — scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("tour", cmd_tour, "run one tour workload"),
            ("compare", cmd_compare, "basic vs optimized side by side"),
            ("predict", cmd_predict, "static rollback cost prediction"),
            ("trace", cmd_trace, "run with timeline output")):
        p = sub.add_parser(name, help=doc)
        _tour_args(p)
        p.set_defaults(fn=fn)
    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing across the three backends")
    _fuzz_args(fuzz)
    fuzz.set_defaults(fn=cmd_fuzz)
    srv = sub.add_parser(
        "serve", help="run the world-as-a-service HTTP gateway")
    _serve_args(srv)
    srv.set_defaults(fn=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
