"""Tests: the command-line interface."""

import pytest

from repro.cli import main


def test_tour_command_prints_metrics(capsys):
    code = main(["tour", "--steps", "5", "--nodes", "3", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "steps committed" in out
    assert "rollbacks completed" in out


def test_tour_with_crashes_still_finishes(capsys):
    code = main(["tour", "--steps", "5", "--nodes", "3",
                 "--crash-rate", "0.3", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "crashes injected" in out


def test_compare_command_shows_both_modes(capsys):
    code = main(["compare", "--steps", "6", "--nodes", "4",
                 "--mixed", "0.5", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "basic" in out and "optimized" in out


def test_predict_command_matches(capsys):
    code = main(["predict", "--steps", "5", "--nodes", "3",
                 "--mixed", "0.4", "--mode", "optimized", "--seed", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "predicted" in out and "measured" in out
    assert "BOS" in out  # the log rendering


def test_trace_command_emits_timeline(capsys):
    code = main(["trace", "--steps", "4", "--nodes", "3", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rollback initiated" in out
    assert "agents:" in out


def test_saga_mode_accepted(capsys):
    """The saga baseline's image restore erases the rollback signal, so
    the tour rolls back forever; the driver detects that and the CLI
    reports it instead of running into the kernel's event cap."""
    code = main(["tour", "--steps", "4", "--nodes", "3",
                 "--mode", "saga", "--seed", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "run livelocked:" in out
    assert "saga rollback livelock" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_fuzz_rejects_malformed_seed_range(capsys):
    code = main(["fuzz", "--seed-range", "abc"])
    out = capsys.readouterr().out
    assert code == 2
    assert "must be A:B" in out


def test_fuzz_rejects_empty_seed_range(capsys):
    # 5:5 is half-open and empty: sweeping zero seeds must not report
    # "all clean" with exit 0 — that would let a typo'd CI job pass.
    code = main(["fuzz", "--seed-range", "5:5"])
    out = capsys.readouterr().out
    assert code == 2
    assert "empty" in out and "A < B" in out


def test_fuzz_rejects_inverted_seed_range(capsys):
    code = main(["fuzz", "--seed-range", "10:3"])
    out = capsys.readouterr().out
    assert code == 2
    assert "inverted" in out and "A < B" in out


def test_fuzz_accepts_minimal_valid_range(capsys):
    code = main(["fuzz", "--seed-range", "0:1", "--backends", "world"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all 1 seeds clean" in out


def test_serve_rejects_bad_port(capsys):
    code = main(["serve", "--port", "70000"])
    out = capsys.readouterr().out
    assert code == 2
    assert "--port" in out


def test_serve_rejects_nonpositive_caps(capsys):
    code = main(["serve", "--port", "0", "--max-inflight", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "--max-inflight" in out
    code = main(["serve", "--port", "0", "--max-pending", "-1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "--max-pending" in out
