#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

``python3 perf/compare.py A.json B.json [...]`` takes ``A.json`` as the
baseline and every later file as one run of the candidate.  With
``--vs`` the baseline is a set of runs too::

    python3 perf/compare.py a1.json a2.json --vs b1.json b2.json b3.json

The files are what an all-workload ``perf/run.py`` writes.  For each
workload and end-to-end metric it prints both sides' median and
quartiles and a verdict against the bound ``BENCHMARK.json`` fixes:

``regressed``
    the candidate's median is worse than the baseline's by more than
    the bound;
``unresolved``
    the quartiles of either side lie further apart than the bound, so
    these runs cannot tell, unless the candidate's quartiles are wholly
    on the better side of the baseline's;
``unchanged``
    neither: any difference is within the bound.

A side's spread is taken between its runs.  A side of one run has no
such spread; its repetitions' quartiles stand in, narrowed by the
square root of their count as the spread of a median is.

Wall-clock metrics are compared only between files stamped with the
same hardware (cores, platform, Python).  ``sim_*`` metrics and the
``outcome_digest`` repeat exactly on any machine and are always
compared.  Exit status 1 unless every row is ``unchanged``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Any, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP_KEYS = ("nproc", "platform", "machine", "python")


def side_summary(runs: list[dict[str, Any]], workload: str,
                 name: str) -> Optional[dict[str, float]]:
    """Median and quartiles of one metric over one side's runs."""
    found = [run["workloads"].get(workload, {}).get("end_to_end", {})
             .get(name) for run in runs]
    found = [entry for entry in found if entry is not None]
    if not found:
        return None
    if len(found) == 1:
        only = found[0]
        narrow = math.sqrt(only.get("n", 1))
        return {"median": only["median"], "runs": 1,
                "q1": only["median"] - (only["median"] - only["q1"]) / narrow,
                "q3": only["median"] + (only["q3"] - only["median"]) / narrow}
    medians = [entry["median"] for entry in found]
    q1, _, q3 = statistics.quantiles(medians, n=4)
    return {"median": statistics.median(medians), "q1": q1, "q3": q3,
            "runs": len(found)}


def verdict(base: dict[str, float], new: dict[str, float],
            better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change in the worse direction)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"]) / base["median"]
    spread = max((side["q3"] - side["q1"]) / side["median"]
                 for side in (base, new))
    if spread > bound:
        clear = (new["q3"] < base["q1"] if better == "lower"
                 else new["q1"] > base["q3"])
        if not clear:
            return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "unchanged"), worse_by


def same_hardware(runs: list[dict[str, Any]]) -> bool:
    stamps = {tuple(run["stamp"].get(k) for k in STAMP_KEYS) for run in runs}
    return len(stamps) == 1


def digests(runs: list[dict[str, Any]], workload: str) -> set:
    return {(run["seed"], run["workloads"].get(workload, {})
             .get("outcome_digest")) for run in runs}


def compare(base: list[dict[str, Any]], new: list[dict[str, Any]],
            spec: dict[str, Any]) -> list[tuple]:
    comparable = same_hardware(base + new)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = side_summary(base, workload, name)
            b = side_summary(new, workload, name)
            if a is None or b is None:
                rows.append((workload, name, a, b, "missing", 0.0))
            elif not comparable and not name.startswith("sim_"):
                rows.append((workload, name, a, b,
                             "refused: hardware stamps differ", 0.0))
            else:
                rows.append((workload, name, a, b, *verdict(
                    a, b, metric["better"], metric["bound"])))
        # Same seed, different digest: the simulated statistics moved.
        ours = dict(digests(base, workload))
        for seed, digest in digests(new, workload):
            if seed in ours and ours[seed] != digest:
                rows.append((workload, f"outcome_digest(seed {seed})",
                             None, None, "differs", 0.0))
    return rows


def _cell(side: Optional[dict[str, float]]) -> str:
    if side is None:
        return "-".rjust(36)
    return (f"{side['median']:>11.6g} [{side['q1']:.5g}, "
            f"{side['q3']:.5g}] n={side['runs']}").rjust(36)


def main(argv: list[str]) -> int:
    if "--vs" in argv:
        cut = argv.index("--vs")
        base_paths, new_paths = argv[:cut], argv[cut + 1:]
    else:
        base_paths, new_paths = argv[:1], argv[1:]
    if not base_paths or not new_paths:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    def load(paths: list[str]) -> list[dict[str, Any]]:
        runs = []
        for path in paths:
            with open(path) as fh:
                runs.append(json.load(fh))
        return runs

    base, new = load(base_paths), load(new_paths)
    print(f"baseline: {len(base)} run(s), commit "
          f"{base[0]['stamp']['commit'][:12]}; candidate: {len(new)} "
          f"run(s), commit {new[0]['stamp']['commit'][:12]}")
    status = 0
    for workload, name, a, b, word, worse_by in compare(base, new, spec):
        print(f"{workload:<15} {name:<22}{_cell(a)}{_cell(b)} "
              f"{worse_by * 100:+7.2f}% worse  {word}")
        if word != "unchanged" and not word.startswith("refused"):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
