"""Tour workloads: the agent, the plan builder and the run harness.

The paper contains no measured evaluation ("will be evaluated in terms
of performance"), so this package provides the workload machinery that
evaluation would have used: parameterised *tour* workloads (an agent
visiting a chain of nodes, performing compensable work with a
controlled mix of operation-entry types, then rolling back), world
builders, and result extraction.  The CLI, the service's launch specs
and the tests (``tests/test_paper_claims.py`` asserts the paper's cost
claims with them) drive these; wall-clock cost is measured by the repo
benchmark in ``perf/``, which carries its own load.
"""

from repro.bench.workloads import StepSpec, TourAgent, TourPlan, make_tour_plan
from repro.bench.harness import (
    TourResult,
    build_tour_world,
    format_table,
    rollback_latencies,
    run_tour,
)

__all__ = [
    "StepSpec",
    "TourPlan",
    "TourAgent",
    "make_tour_plan",
    "build_tour_world",
    "run_tour",
    "TourResult",
    "rollback_latencies",
    "format_table",
]
