"""Compare the exact figures of two ``perf/run.py --out`` result files.

``outcome_digest`` and ``sim_bytes_per_agent`` repeat exactly for a
seed on any machine (see ``perf/README.md``), so a change that does not
mean to move the simulated run must leave both alone on every workload.
Usage::

    python3 tools/perf_exact.py base.json head.json

Prints one line per workload and exits 1 when any workload's figures
differ, or when a workload ran on one side only.
"""

from __future__ import annotations

import json
import sys
from typing import Any


def exact_figures(path: str) -> dict[str, tuple[Any, Any]]:
    """Per workload: (outcome_digest, median sim_bytes_per_agent)."""
    with open(path) as fh:
        result = json.load(fh)
    return {
        workload: (entry.get("outcome_digest"),
                   entry.get("end_to_end", {})
                   .get("sim_bytes_per_agent", {}).get("median"))
        for workload, entry in result["workloads"].items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, head = (exact_figures(path) for path in argv)
    status = 0
    for workload in sorted(base.keys() | head.keys()):
        a, b = base.get(workload), head.get(workload)
        same = a == b and a is not None and None not in a
        status |= not same
        print(f"{workload:<16} {'same' if same else 'DIFFERS'}  "
              f"base {a}  head {b}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
