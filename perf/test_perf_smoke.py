"""Smoke test of the benchmark itself (collected by the tier-1 run).

Runs every workload the way the driver does, at ``--smoke`` sizes, in
both modes, and checks the contract: the last line of standard output
is one JSON object naming exactly the metrics ``BENCHMARK.json`` lists
for that mode, each with its unit, and every correctness check passed.
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_meets_the_contract(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert NAME.match(metric["name"]), metric["name"]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        with open(os.path.join(HERE, "out", f"trace-{workload}.json")) as fh:
            spans = json.load(fh)["spans"]
        assert spans and {"name", "start", "end", "parent"} <= set(spans[0])


def test_seed_changes_inputs_and_nothing_else_does():
    sys.path.insert(0, ROOT)
    try:
        from perf.inputs import make_inputs
    finally:
        sys.path.remove(ROOT)
    for workload in (w["name"] for w in SPEC["workloads"]):
        assert make_inputs(workload, 5) == make_inputs(workload, 5)
        assert make_inputs(workload, 5) != make_inputs(workload, 6)
        assert make_inputs(workload, 5, 0) != make_inputs(workload, 5, 1)


def test_benchmark_stands_apart_from_the_repo_benches():
    """``perf/`` carries its own load: nothing from ``repro.bench`` or
    ``benchmarks/``, so editing those cannot change what is measured."""
    for name in sorted(os.listdir(HERE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(HERE, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            for module in modules:
                assert not module.startswith(("repro.bench", "benchmarks",
                                              "bench_")), (name, module)


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only the benchmark, the command fails."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "tour-rollback",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
