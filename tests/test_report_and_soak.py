"""Tests: report assembly and a long soak scenario."""

import pathlib

import pytest

from repro import AgentStatus, RollbackMode
from repro.bench import make_tour_plan, run_tour
from repro.bench.harness import build_tour_world
from repro.bench.report import (
    assemble_report,
    load_sections,
    metrics_report,
    write_report,
)


# -- report ------------------------------------------------------------------

def test_assemble_report_from_tables(tmp_path):
    (tmp_path / "fig4_basic.txt").write_text(
        "FIG4: basic rollback\nheader | value\na | 1\n")
    (tmp_path / "zz_custom.txt").write_text("CUSTOM\nx | y\n")
    report = assemble_report(tmp_path)
    assert report.startswith("# Benchmark results")
    assert "## FIG4: basic rollback" in report
    assert "## CUSTOM" in report
    # canonical section first, unknown sections after
    assert report.index("FIG4") < report.index("CUSTOM")


def test_assemble_report_empty_dir(tmp_path):
    report = assemble_report(tmp_path)
    assert "no result tables found" in report


def test_write_report_creates_file(tmp_path):
    (tmp_path / "prediction.txt").write_text("EVAL-PREDICT\nrow\n")
    out = write_report(tmp_path)
    assert out.exists()
    assert "EVAL-PREDICT" in out.read_text()


def test_load_sections_titles(tmp_path):
    (tmp_path / "a.txt").write_text("Title Line\nbody\n")
    sections = load_sections(tmp_path)
    assert sections[0].title == "Title Line"


def test_metrics_report_renders_counters():
    world = build_tour_world(2, seed=1)
    plan = make_tour_plan(["n0", "n1"], 3, rollback_depth=2)
    run_tour(plan, 2, seed=1, world=world)
    text = metrics_report(world)
    assert "| steps.committed |" in text
    assert text.startswith("| counter | value |")


def test_real_results_dir_assembles_when_present():
    results = pathlib.Path(__file__).resolve().parent.parent / \
        "benchmarks" / "results"
    # Bench runs write the *.txt tables (git-ignored); a fresh checkout
    # holds only the committed JSON baselines.
    if not results.exists() or not any(results.glob("*.txt")):
        pytest.skip("benchmarks not yet run")
    report = assemble_report(results)
    assert "FIG" in report


# -- soak ----------------------------------------------------------------------

def test_soak_long_tour_with_repeated_rollbacks_and_crashes():
    """A 30-step tour, 3 full rollbacks, random outages: everything
    still lands exactly once and the books balance."""
    n_nodes = 6
    nodes = [f"n{i}" for i in range(n_nodes)]
    plan = make_tour_plan(nodes, 30, mixed_fraction=0.3, ace_fraction=0.2,
                          none_fraction=0.1, savepoint_every=5,
                          rollback_depth=12, rollback_times=3)
    world = build_tour_world(n_nodes, seed=123)
    world.failures.random_outages(nodes, horizon=60.0, rate_per_s=0.15,
                                  mean_downtime=0.2)
    result = run_tour(plan, n_nodes, mode=RollbackMode.OPTIMIZED,
                      seed=123, world=world, max_events=5_000_000)
    assert result.status is AgentStatus.FINISHED
    assert result.rollbacks == 3
    assert result.result["rolled_back"] == 3
    # Conservation: bank money + agent purse constant.
    total = sum(world.node(f"n{i}").get_resource("bank").total_balance()
                for i in range(n_nodes))
    purse = sum(result.result["purse"].values())
    assert total + purse == n_nodes * 2_000_000
    # No locks, no queue residue, no active transactions anywhere.
    for i in range(n_nodes):
        node = world.node(f"n{i}")
        assert len(node.queue) == 0
        assert node.txm.active == set()
        assert node.get_resource("bank").locks.held_count() == 0
