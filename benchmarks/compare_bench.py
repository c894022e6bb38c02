#!/usr/bin/env python3
"""Bench-regression gate: diff fresh bench JSONs against baselines.

CI runs the benches with ``BENCH_RESULTS_DIR`` pointing at a scratch
directory, then invokes this script to compare the freshly emitted
``BENCH_*.json`` artifacts against the committed baselines in
``benchmarks/results/`` with per-metric tolerances:

* ``higher`` — fresh must be >= baseline * tolerance (throughput-like
  metrics; tolerance < 1 absorbs machine noise);
* ``lower``  — fresh must be <= baseline * tolerance (latency-like);
* ``within`` — |fresh - baseline| <= tolerance * |baseline| (sizes);
* ``equal``  — exact match (deterministic counts, booleans).

Exit status: 0 when every metric passes, 1 on any regression, 2 on
usage/environment errors (missing fresh artifact, quick/full-mode
mismatch), 3 when a gated file has **no committed baseline** — a bench
was added to ``SPECS`` without committing its
``benchmarks/results/BENCH_*.json`` (run the bench once and commit the
emitted file).  A markdown report is written to ``--report`` (and
echoed) so CI can upload it as an artifact.

Refreshing baselines after an intentional perf change::

    PYTHONPATH=src python -m pytest -q --benchmark-disable \
        benchmarks/bench_serialization.py \
        benchmarks/bench_sharded_scale.py \
        benchmarks/bench_cross_shard_ft.py \
        benchmarks/bench_multiproc_shards.py \
        benchmarks/bench_journal.py \
        benchmarks/bench_fuzz_differential.py \
        benchmarks/bench_service.py

(which rewrites ``benchmarks/results/BENCH_*.json`` in place) — then
commit the changed JSONs with a note in the PR.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Optional

#: Metrics the gate enforces.  Deterministic counters get ``equal``;
#: wall-clock-derived ratios get generous tolerances (CI machines are
#: noisy); invariants (completion rate, exactly-once, quorum agreement)
#: must not degrade at all.
@dataclass(frozen=True)
class Spec:
    file: str
    path: str
    mode: str  # "higher" | "lower" | "within" | "equal"
    tolerance: float = 1.0


SPECS = [
    # Incremental serialization: the headline speedup may wobble with
    # the machine, but losing ~2/3 of it means a real regression; the
    # per-step flatness ratio is what guards the amortized-O(1) claim.
    Spec("BENCH_serialization.json", "speedup", "higher", 0.35),
    Spec(
        "BENCH_serialization.json",
        "incremental_flatness_last_over_first_chunk",
        "lower",
        2.0,
    ),
    # Batching / sharding: event counts are deterministic at a fixed
    # seed; byte totals depend on pickle details, so they get a band.
    Spec("BENCH_sharded_scale.json", "batching.reduction", "higher", 0.999),
    Spec("BENCH_sharded_scale.json", "batching.rows.0.net_messages", "equal"),
    Spec("BENCH_sharded_scale.json", "batching.rows.0.shadow_bytes", "within", 0.05),
    Spec("BENCH_sharded_scale.json", "sharding.outcomes_identical", "equal"),
    Spec(
        "BENCH_sharded_scale.json",
        "sharding.rows.1.events_busiest_kernel",
        "lower",
        1.10,
    ),
    # Cross-shard fault tolerance: pure invariants — any drop is a bug.
    Spec(
        "BENCH_cross_shard_ft.json",
        "scenarios.kill-1.completion_rate",
        "higher",
        1.0,
    ),
    Spec("BENCH_cross_shard_ft.json", "scenarios.kill-1.exactly_once", "equal"),
    Spec("BENCH_cross_shard_ft.json", "scenarios.kill-1.ledger_agrees", "equal"),
    Spec("BENCH_cross_shard_ft.json", "scenarios.kill-2.exactly_once", "equal"),
    Spec(
        "BENCH_cross_shard_ft.json",
        "scenarios.kill-1.max_recovery_latency",
        "lower",
        1.5,
    ),
    # Multiprocess shard workers: the equivalence half is invariant
    # (identical outcomes/counters and deterministic event/epoch totals
    # at a fixed seed — any drift is a correctness bug); the wall-clock
    # speedup is hardware-dependent (the baseline records cpu_count, the
    # bench itself asserts >= 1.5x whenever >= `workers` cores exist),
    # so the gate only refuses a large relative slide.
    Spec("BENCH_multiproc_shards.json", "speedup.outcomes_identical", "equal"),
    Spec("BENCH_multiproc_shards.json", "speedup.events_total", "equal"),
    Spec("BENCH_multiproc_shards.json", "speedup.epochs", "equal"),
    Spec("BENCH_multiproc_shards.json", "speedup.speedup", "higher", 0.6),
    # Write-ahead world journal: journaling must not change the run
    # (identical outcomes, deterministic event/epoch/commit counts at a
    # fixed seed) and crash-resume must land on the identical outcome
    # from the journaled frontier; the wall-clock ratios are
    # group-commit overhead and replay cost, banded generously for CI
    # machine noise.
    Spec("BENCH_journal.json", "overhead.outcomes_identical", "equal"),
    Spec("BENCH_journal.json", "overhead.events_total", "equal"),
    Spec("BENCH_journal.json", "overhead.epochs", "equal"),
    Spec("BENCH_journal.json", "overhead.commits", "equal"),
    Spec("BENCH_journal.json", "overhead.file_overhead_ratio", "lower", 2.0),
    Spec("BENCH_journal.json", "resume.outcome_identical", "equal"),
    Spec("BENCH_journal.json", "resume.torn_tail", "equal"),
    Spec("BENCH_journal.json", "resume.frontier_barrier", "equal"),
    Spec("BENCH_journal.json", "resume.resume_over_full_ratio", "lower", 3.0),
    # Differential fuzzing: zero divergences is the whole point — any
    # failing seed is a cross-backend or model-oracle mismatch.  The
    # predicted rollback total is deterministic at a fixed
    # GENERATOR_VERSION (a drift means the generator changed without a
    # version bump); seeds/minute guards the nightly lane's budget.
    Spec("BENCH_fuzz_differential.json", "sweep.divergences", "equal"),
    Spec("BENCH_fuzz_differential.json", "sweep.predicted_rollbacks", "equal"),
    Spec("BENCH_fuzz_differential.json", "sweep.seeds_per_minute", "higher", 0.3),
    Spec("BENCH_fuzz_differential.json", "tri.divergences", "equal"),
    # World-as-a-service gateway: the parity flags are the whole
    # contract — a launch streamed over HTTP must be bit-identical to
    # the scripted run on every backend — and every load launch must
    # reach a terminal outcome.  Requests/second and the p99
    # launch-to-outcome latency are wall-clock on a threaded client,
    # so they only guard against a collapse.
    Spec("BENCH_service.json", "parity.world_identical", "equal"),
    Spec("BENCH_service.json", "parity.sharded_identical", "equal"),
    Spec("BENCH_service.json", "parity.proc_identical", "equal"),
    Spec("BENCH_service.json", "load.completed", "equal"),
    Spec("BENCH_service.json", "load.post_req_per_s", "higher", 0.25),
    Spec("BENCH_service.json", "load.p99_ms", "lower", 4.0),
]


def lookup(data: Any, path: str) -> Any:
    """Resolve a dotted path; integer components index into lists."""
    node = data
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            if part not in node:
                raise KeyError(path)
            node = node[part]
        else:
            raise KeyError(path)
    return node


def check(spec: Spec, baseline: Any, fresh: Any) -> tuple[bool, str]:
    """One metric verdict: (passed, human-readable threshold)."""
    if spec.mode == "equal":
        return fresh == baseline, f"== {baseline!r}"
    if baseline is None or fresh is None:
        # A measurement that stopped being produced is a regression.
        return fresh == baseline, f"== {baseline!r}"
    if spec.mode == "higher":
        bound = baseline * spec.tolerance
        return fresh >= bound, f">= {bound:.6g}"
    if spec.mode == "lower":
        bound = baseline * spec.tolerance
        return fresh <= bound, f"<= {bound:.6g}"
    if spec.mode == "within":
        band = spec.tolerance * abs(baseline)
        return abs(fresh - baseline) <= band, f"{baseline:.6g} +/- {band:.6g}"
    raise ValueError(f"unknown mode {spec.mode!r}")


def load(directory: pathlib.Path, name: str) -> Optional[dict]:
    path = directory / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


def fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def compare(
    baseline_dir: pathlib.Path, fresh_dir: pathlib.Path
) -> tuple[list[str], int, int, int]:
    """Run every spec; returns (report lines, failures, usage errors,
    missing baseline files)."""
    lines = [
        "# Bench-regression report",
        "",
        f"baseline: `{baseline_dir}`  ",
        f"fresh: `{fresh_dir}`",
        "",
        "| metric | baseline | fresh | threshold | status |",
        "|---|---|---|---|---|",
    ]
    failures = 0
    errors = 0
    missing_baselines = 0
    for name in sorted({spec.file for spec in SPECS}):
        baseline_data = load(baseline_dir, name)
        fresh_data = load(fresh_dir, name)
        if fresh_data is None:
            lines.append(f"| {name} | - | **missing** | emitted | FAIL |")
            errors += 1
            continue
        if baseline_data is None:
            # A gated file with no committed baseline means the gate is
            # not actually gating it — fail loudly instead of skipping.
            lines.append(
                f"| {name} | **no baseline** | - | committed | NO-BASELINE |"
            )
            missing_baselines += 1
            continue
        if baseline_data.get("quick_mode") != fresh_data.get("quick_mode"):
            lines.append(
                f"| {name} | quick_mode="
                f"{baseline_data.get('quick_mode')} | quick_mode="
                f"{fresh_data.get('quick_mode')} | same mode | FAIL |"
            )
            errors += 1
            continue
        for spec in (s for s in SPECS if s.file == name):
            try:
                base_value = lookup(baseline_data, spec.path)
            except (KeyError, IndexError, ValueError):
                lines.append(
                    f"| {name}:{spec.path} | **no baseline** | - | - | SKIP |"
                )
                continue
            try:
                fresh_value = lookup(fresh_data, spec.path)
            except (KeyError, IndexError, ValueError):
                lines.append(
                    f"| {name}:{spec.path} | {fmt(base_value)} |"
                    f" **missing** | present | FAIL |"
                )
                failures += 1
                continue
            passed, threshold = check(spec, base_value, fresh_value)
            status = "ok" if passed else "FAIL"
            if not passed:
                failures += 1
            lines.append(
                f"| {name}:{spec.path} | {fmt(base_value)} |"
                f" {fmt(fresh_value)} | {threshold} | {status} |"
            )
    lines.append("")
    clean = not failures and not errors and not missing_baselines
    verdict = "PASS" if clean else "FAIL"
    lines.append(
        f"**{verdict}** — {failures} regression(s), {errors} gate"
        f" error(s), {missing_baselines} missing baseline file(s)."
    )
    if missing_baselines:
        lines.append(
            "\nA gated BENCH_*.json has no committed baseline: run the"
            " bench once and commit the emitted file under"
            " benchmarks/results/."
        )
    return lines, failures, errors, missing_baselines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff fresh bench JSONs against committed baselines."
    )
    parser.add_argument(
        "--fresh",
        required=True,
        type=pathlib.Path,
        help="directory holding the freshly emitted BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent / "results",
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--report",
        type=pathlib.Path,
        default=None,
        help="write the markdown report here as well",
    )
    args = parser.parse_args(argv)
    lines, failures, errors, missing = compare(args.baseline, args.fresh)
    report = "\n".join(lines) + "\n"
    print(report)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report)
    if errors:
        return 2
    if missing:
        return 3
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
