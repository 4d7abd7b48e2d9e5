"""Multi-tenant DPR request scheduling (see docs/SCHEDULER.md).

The package layers a serving model over the driver stack:

* :mod:`repro.sched.request` — the swap-request/outcome data model;
* :mod:`repro.sched.cache` — LRU demand-paging of partial bitstreams
  into a DDR arena (repeat swaps skip the SD card);
* :mod:`repro.sched.scheduler` — the EDF + same-module-batching
  arbiter of the single ICAP port, driven one ``step()`` at a time;
* :mod:`repro.sched.workload` — synthetic Poisson/Zipf request streams
  and the small-RP serving platform;
* :mod:`repro.sched.replay` — trace replay and report generation for
  ``repro serve`` / ``repro sched-bench``.
"""

from repro.sched.cache import BitstreamCache, CacheStats, sd_load_cycles
from repro.sched.replay import (
    ReplayReport,
    bench,
    power_sweep,
    replay,
    summarize,
)
from repro.sched.request import (
    CANCELLED,
    COMPLETED,
    DROPPED,
    FAILED,
    REJECTED,
    TIMED_OUT,
    RequestOutcome,
    SwapRequest,
)
from repro.sched.scheduler import BitstreamRejected, DprScheduler
from repro.sched.workload import (
    WorkloadSpec,
    build_sched_soc,
    load_trace,
    make_cache,
    module_names,
    save_trace,
    synthesize,
)

__all__ = [
    "BitstreamCache",
    "CacheStats",
    "sd_load_cycles",
    "ReplayReport",
    "bench",
    "replay",
    "summarize",
    "power_sweep",
    "COMPLETED",
    "FAILED",
    "CANCELLED",
    "TIMED_OUT",
    "DROPPED",
    "REJECTED",
    "RequestOutcome",
    "SwapRequest",
    "BitstreamRejected",
    "DprScheduler",
    "WorkloadSpec",
    "build_sched_soc",
    "make_cache",
    "module_names",
    "synthesize",
    "save_trace",
    "load_trace",
]
