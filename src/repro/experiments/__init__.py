"""The paper's empirical study (Sections 3.4 and 4.2) as code.

One module per experiment family:

* :mod:`asg_budget` — Figures 7 and 8 (bounded-budget ASG).
* :mod:`gbg` — Figures 11 and 13 (Greedy Buy Game sweeps) plus the
  move-mix trajectory analysis of Section 4.2.2.
* :mod:`topology` — Figures 12 and 14 (initial-topology comparison).
* :mod:`runner` — the seeded sweep engine (serial or multi-process).
* :mod:`campaign` — the durable, resumable campaign store.
* :mod:`fabric` — the lease-based work-queue coordinator that drains
  campaigns and explorations with a crash-tolerant worker fleet.
* :mod:`columnar` — columnar compaction of the JSONL stores for
  streaming status/aggregation queries.
* :mod:`report` — ASCII rendering of the papers' plotted series.
"""

from . import (  # noqa: F401
    asg_budget,
    campaign,
    columnar,
    density,
    fabric,
    gbg,
    report,
    runner,
    topology,
)
from .config import FigureSpec
from .runner import TrialRecord

__all__ = [
    "asg_budget",
    "campaign",
    "columnar",
    "density",
    "fabric",
    "gbg",
    "topology",
    "runner",
    "report",
    "FigureSpec",
    "TrialRecord",
]
