"""DPR scheduler: EDF arbitration of the single ICAP port.

The scheduler is the request-serving layer the ROADMAP's multi-tenant
item calls for: tenants :meth:`~DprScheduler.submit` streams of
:class:`~repro.sched.request.SwapRequest` and get back tickets, each an
index into :attr:`~DprScheduler.outcomes`, where the request's
:class:`~repro.sched.request.RequestOutcome` lands once it resolves.
Each :meth:`~DprScheduler.step` gives the fabric to one batch:

* **EDF** — among requests whose arrival time has passed, the earliest
  absolute deadline wins the ICAP port;
* **same-module batching** — the winner's module's next eligible
  requests ride the same partition residency (deadline order, bounded
  by ``batch_limit``), so one reconfiguration amortizes over the whole
  batch;
* **bitstream cache** — every swap takes its descriptor from the
  :class:`~repro.sched.cache.BitstreamCache`, so only cold modules pay
  the SD fault; requests for the already-resident module skip the DPR
  entirely.

Time is *simulated* time throughout: a step with nothing eligible
advances the SoC's clock to the next arrival, and otherwise the driver
stack advances it, so a replay is deterministic and wall-clock
independent.  Like the one physical configuration port, the scheduler
programs one batch at a time; :meth:`~DprScheduler.run` submits a
trace and steps until nothing is queued.

A failed reconfiguration (``ControllerError``; each driver's failure
path resets the ICAP) is retried ``MAX_RETRIES`` times after a backoff.
A batch whose swap still fails, or raises any other ``ReproError``,
fails its requests in-band (``status="failed"``) and the scheduler
keeps serving.  Any other exception escapes :meth:`~DprScheduler.step`.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, TYPE_CHECKING, Tuple, cast

import numpy as np

from repro.drivers.fileio import RmDescriptor
from repro.drivers.manager import ReconfigurationManager
from repro.drivers.rvcap_driver import ReconfigResult
from repro.errors import ControllerError, ReproError, SchedulerError
from repro.power.governor import PowerGovernor
from repro.power.profile import DEFAULT_PROFILE, PowerProfile
from repro.sched.cache import BitstreamCache
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

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.sim.kernel import Simulator
    from repro.soc.soc import Soc

#: span/metric track name
TRACK = "sched"

#: swap attempts repeated after a ControllerError
MAX_RETRIES = 1


class BitstreamRejected(SchedulerError):
    """The admission verifier refused a module's partial bitstream.

    Raised *before* the driver touches the ICAP; the scheduler serves
    it in-band as ``status="rejected"`` so one bad artifact cannot
    wedge a replay or scrub the partition.
    """

    def __init__(self, module: str, messages: List[str]) -> None:
        detail = "; ".join(messages[:3])
        if len(messages) > 3:
            detail += f" (+{len(messages) - 3} more)"
        super().__init__(
            f"bitstream for module {module!r} failed verification: "
            f"{detail}")
        self.module = module
        self.messages = messages


class _Entry:
    """Queue bookkeeping for one submitted request."""

    __slots__ = ("request", "seq", "arrival_cycle", "deadline_cycle",
                 "cancelled")

    def __init__(self, request: SwapRequest, seq: int,
                 freq_hz: float) -> None:
        self.request = request
        #: the ticket: submission order, the EDF tie-break
        self.seq = seq
        self.arrival_cycle = int(request.arrival_us * freq_hz / 1e6)
        self.deadline_cycle = int(request.deadline_us * freq_hz / 1e6)
        self.cancelled = False


class DprScheduler:
    """Multi-tenant front end over one ReconfigurationManager."""

    def __init__(self, manager: ReconfigurationManager, *,
                 cache: BitstreamCache,
                 batch_limit: int = 64,
                 drop_late: bool = False,
                 reconfig_mode: str = "interrupt",
                 verify: bool = False,
                 power_profile: Optional[PowerProfile] = None,
                 peak_power_mw: Optional[float] = None,
                 power_window_us: float = 200.0,
                 energy_budgets_nj: Optional[Dict[str, float]] = None) -> None:
        if batch_limit < 1:
            raise SchedulerError("batch_limit must be >= 1")
        self.manager = manager
        self.cache = cache
        self.batch_limit = batch_limit
        self.drop_late = drop_late
        self.reconfig_mode = reconfig_mode
        #: admission gate: statically verify each module's bitstream
        #: before its first reconfiguration (repro.verify)
        self.verify = verify
        #: verdict memo keyed by (module, ddr address, size) — the
        #: serving path re-loads the same image every cache refill, and
        #: the DDR copy is immutable between placements
        self._verify_memo: Dict[Tuple[str, int, int], List[str]] = {}
        self._freq_hz = manager.soc.sim.freq_hz
        # power accounting is opt-in: asking for a cap or budgets
        # implies the calibrated default profile
        if power_profile is None and (peak_power_mw is not None
                                      or energy_budgets_nj is not None):
            power_profile = DEFAULT_PROFILE
        self.power_profile = power_profile
        self.peak_power_mw = peak_power_mw
        self.energy_budgets_nj: Optional[Dict[str, float]] = (
            dict(energy_budgets_nj) if energy_budgets_nj else None)
        self._governor: Optional[PowerGovernor] = None
        if peak_power_mw is not None:
            self._governor = PowerGovernor(
                peak_power_mw, profile=self.power_profile,
                window_us=power_window_us, freq_hz=self._freq_hz)
        #: modeled energy charged to served requests (nJ)
        self.energy_nj_total = 0.0
        self.tenant_energy_nj: Dict[str, float] = {}
        #: not-yet-eligible entries, keyed by arrival
        self._arrivals: List[Tuple[int, int, _Entry]] = []
        #: the EDF queue: eligible entries per module, each heap keyed
        #: by (deadline, seq); a module leaves when its heap empties
        self._by_module: Dict[str, List[Tuple[int, int, _Entry]]] = {}
        #: every ticket's outcome, None until the request resolves
        self.outcomes: List[Optional[RequestOutcome]] = []
        #: unresolved entries by ticket; its length is the queue depth
        self._queued: Dict[int, _Entry] = {}
        #: cycles the ICAP spent programming (utilization numerator)
        self.icap_busy_cycles = 0
        #: batches serviced and the requests they carried
        self.batches = 0
        self.batched_requests = 0
        #: batches that programmed the ICAP / found their module resident
        self.reconfigurations = 0
        self.reconfig_skips = 0
        self._started_cycle: Optional[int] = None
        self._payload_frames: Dict[Tuple[int, int], np.ndarray] = {}
        #: instruments resolved once per attached Observability — the
        #: serving path must not pay a registry lookup (name formatting
        #: plus label-tuple sort) per event
        self._instrument_obs: Optional[Any] = None
        self._instruments: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def soc(self) -> "Soc":
        return self.manager.soc

    @property
    def sim(self) -> "Simulator":
        return self.manager.soc.sim

    @property
    def obs(self) -> "Optional[Observability]":
        return self.manager.soc.obs

    @property
    def submitted(self) -> int:  # the next ticket
        return len(self.outcomes)

    def _cycles_to_us(self, cycles: int) -> float:
        return cycles * 1e6 / self._freq_hz

    def _metrics(self, obs: Any) -> Dict[str, Any]:
        """The scheduler's instruments, cached per Observability.

        Registry lookups format the metric name and sort the label
        tuple on every call; the serving path emits several metrics per
        request, so instruments are resolved once and reused until the
        SoC's observability object is swapped.
        """
        if self._instrument_obs is not obs:
            m = obs.metrics
            # facts the scheduler counts for itself: the registry reads
            # them, from their values now on
            m.observed_counter("sched_requests_total",
                               "requests submitted to the scheduler",
                               self, "submitted")
            m.observed_counter("sched_icap_busy_cycles",
                               "cycles the ICAP spent programming",
                               self, "icap_busy_cycles")
            m.observed_counter("sched_batches_total", "batches serviced",
                               self, "batches")
            m.observed_counter("sched_reconfigurations_total",
                               "batches that programmed the ICAP",
                               self, "reconfigurations")
            m.observed_counter(
                "sched_reconfig_skips_total",
                "batches served by the already-resident module",
                self, "reconfig_skips")
            status_counters = {
                status: m.counter(
                    f"sched_{status}_total",
                    f"requests that finished {status}")
                for status in (COMPLETED, FAILED, TIMED_OUT, DROPPED,
                               CANCELLED, REJECTED)
            }
            self._instruments = {
                "depth": m.gauge("sched_queue_depth",
                                 "requests queued in the scheduler"),
                "batch_size": m.histogram("sched_batch_size",
                                          "requests per serviced batch"),
                "td": m.histogram("sched_td_cycles",
                                  "per-swap decision time"),
                "tr": m.histogram("sched_tr_cycles",
                                  "per-swap reconfiguration time"),
                "retries": m.counter(
                    "sched_reconfig_retries_total",
                    "reconfigurations retried after a failure"),
                "status": status_counters,
                "deadline_misses": m.counter(
                    "sched_deadline_misses_total",
                    "requests that missed their deadline"),
                "latency": m.histogram("sched_latency_cycles",
                                       "arrival-to-completion latency"),
                "queue_wait": m.histogram("sched_queue_wait_cycles",
                                          "arrival-to-service queue wait"),
                "tc": m.histogram("sched_tc_cycles",
                                  "per-request payload compute time"),
            }
            if self.power_profile is not None:
                # power instruments exist only when accounting is on,
                # so plain replays keep their exact metric surface
                m.observed_counter(
                    "sched_power_deferrals_total",
                    "reconfigurations deferred by the power governor",
                    self, "power_deferrals")
                self._instruments.update({
                    "energy": m.counter(
                        "sched_energy_nj_total",
                        "modeled energy charged to requests (nJ)"),
                    "energy_tenant": {},
                    "reconfig_energy": m.histogram(
                        "sched_reconfig_energy_nj",
                        "modeled per-batch reconfiguration energy (nJ)"),
                    "peak_power": m.gauge(
                        "sched_peak_window_power_mw",
                        "max windowed average power attained (mW)",
                        merge_mode="max"),
                })
            self._instrument_obs = obs
        return self._instruments

    def _sample_depth(self) -> None:
        obs = self.obs
        if obs is not None:
            depth = float(len(self._queued))
            self._metrics(obs)["depth"].set(depth)
            obs.tracer.count("sched.queue_depth", self.sim.now, depth)

    # ------------------------------------------------------------------
    # the synchronous surface
    # ------------------------------------------------------------------
    def submit(self, request: SwapRequest) -> int:
        """Queue a request; returns its ticket, its index in outcomes."""
        if request.module not in self.soc.registered_modules:
            raise SchedulerError(
                f"unknown module {request.module!r}: registered modules "
                f"are {self.soc.registered_modules}")
        obs = self.obs
        if obs is not None:
            self._metrics(obs)  # a new registry counts this request
        entry = _Entry(request, len(self.outcomes), self._freq_hz)
        self.outcomes.append(None)
        self._queued[entry.seq] = entry
        heapq.heappush(self._arrivals,
                       (entry.arrival_cycle, entry.seq, entry))
        self._sample_depth()
        return entry.seq

    def cancel(self, ticket: int) -> bool:
        """Mark a queued request, still counted in its batch, to resolve
        CANCELLED at admission; False once it has resolved."""
        entry = self._queued.get(ticket)
        if entry is None:
            return False
        entry.cancelled = True
        return True

    def step(self) -> bool:
        """Serve one batch; with nothing arrived, advance the clock to
        the earliest arrival instead.  False when nothing is queued."""
        self._promote_arrivals()
        if self._by_module:
            self._service_batch(self._collect_batch())
        elif self._arrivals:
            self.sim.advance_to(self._arrivals[0][0])
        else:
            return False
        return True

    def run(self, requests: List[SwapRequest]) -> List[RequestOutcome]:
        """Submit ``requests``, step until idle; their outcomes in order."""
        tickets = [self.submit(request) for request in requests]
        while self.step():
            pass
        return [cast(RequestOutcome, self.outcomes[t]) for t in tickets]

    def _promote_arrivals(self) -> None:
        now = self.sim.now
        moved = False
        while self._arrivals and self._arrivals[0][0] <= now:
            _, _, entry = heapq.heappop(self._arrivals)
            heapq.heappush(
                self._by_module.setdefault(entry.request.module, []),
                (entry.deadline_cycle, entry.seq, entry))
            moved = True
        if moved:
            self._sample_depth()

    def _collect_batch(self) -> List[_Entry]:
        """The earliest (deadline, seq) head of all module heaps, plus
        its heap's next ``batch_limit - 1`` entries, in that order."""
        module, heap = min(self._by_module.items(),
                           key=lambda item: item[1][0])
        batch = [heapq.heappop(heap)[2]
                 for _ in range(min(len(heap), self.batch_limit))]
        if not heap:
            del self._by_module[module]
        return batch

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def _service_batch(self, batch: List[_Entry]) -> None:
        sim = self.sim
        obs = self.obs
        if self._started_cycle is None:
            self._started_cycle = sim.now
        module = batch[0].request.module
        span = None
        if obs is not None:
            span = obs.tracer.begin(TRACK, "batch", sim.now, module=module,
                                    size=len(batch))
        runnable = [e for e in batch if self._admit(e)]
        if runnable:
            self._run_batch(module, runnable)
        self.batches += 1
        self.batched_requests += len(batch)
        if obs is not None:
            obs.tracer.end(span, sim.now)
            self._metrics(obs)["batch_size"].record(len(batch))
        self._sample_depth()

    def _admit(self, entry: _Entry) -> bool:
        """Pre-service gate: cancellation, queue timeout, late drop."""
        request = entry.request
        now_us = self._cycles_to_us(self.sim.now)
        if entry.cancelled:
            self._finish(entry, self._outcome(
                entry, CANCELLED, start=None,
                error="cancelled before service"))
            return False
        if (request.timeout_us is not None
                and now_us > request.arrival_us + request.timeout_us):
            self._finish(entry, self._outcome(
                entry, TIMED_OUT, start=None,
                error=f"queue wait exceeded {request.timeout_us} us"))
            return False
        if self.drop_late and now_us > request.deadline_us:
            self._finish(entry, self._outcome(
                entry, DROPPED, start=None,
                error="deadline passed before service"))
            return False
        if (self.energy_budgets_nj is not None
                and request.tenant is not None):
            budget = self.energy_budgets_nj.get(request.tenant)
            if (budget is not None
                    and self.tenant_energy_nj.get(request.tenant, 0.0)
                    >= budget):
                self._finish(entry, self._outcome(
                    entry, DROPPED, start=None,
                    error="tenant energy budget exhausted"))
                return False
        return True

    def _run_batch(self, module: str, entries: List[_Entry]) -> None:
        sim = self.sim
        obs = self.obs
        start_us = self._cycles_to_us(sim.now)
        cache_hit: Optional[bool] = None
        td_us = tr_us = 0.0
        try:
            result, cache_hit = self._ensure_loaded(module)
        except BitstreamRejected as exc:
            # static verifier refused the artifact before any ICAP
            # traffic; distinct from FAILED so replays can tell "bad
            # artifact" from "hardware fault"
            if obs is not None:
                obs.tracer.instant(TRACK, "bitstream_rejected", sim.now,
                                   module=module)
            for entry in entries:
                self._finish(entry, self._outcome(
                    entry, REJECTED, start=start_us, error=str(exc),
                    cache_hit=cache_hit))
            return
        except ReproError as exc:
            # a swap that failed its retries, a pbit missing from the
            # card, a refused switch, a power cap infeasible for one
            # atomic reconfiguration: served in-band as FAILED, so every
            # submitted request resolves and the scheduler keeps serving
            for entry in entries:
                self._finish(entry, self._outcome(
                    entry, FAILED, start=start_us, error=str(exc),
                    cache_hit=cache_hit))
            return
        reconfig_share_nj = 0.0
        reconfigured = result is not None
        if result is None:
            self.reconfig_skips += 1
        else:
            self.reconfigurations += 1
            td_us, tr_us = result.td_us, result.tr_us
            busy = int(tr_us * self._freq_hz / 1e6)
            self.icap_busy_cycles += busy
            if self._governor is not None:
                # actual interval: the admission estimate was an upper
                # bound starting no earlier, so the commit never
                # violates the windows admission checked
                self._governor.commit(sim.now - busy, sim.now)
            if self.power_profile is not None:
                batch_nj = self.power_profile.reconfig_energy_nj(
                    busy, self._freq_hz)
                reconfig_share_nj = batch_nj / len(entries)
            if obs is not None:
                instruments = self._metrics(obs)
                instruments["td"].record(int(td_us * self._freq_hz / 1e6))
                instruments["tr"].record(busy)
                if self.power_profile is not None:
                    instruments["reconfig_energy"].record(
                        int(batch_nj))
                    if self._governor is not None:
                        instruments["peak_power"].set(
                            self._governor.max_window_power_mw())
        for index, entry in enumerate(entries):
            self._run_payload(entry, start_us,
                              td_us=td_us if index == 0 else 0.0,
                              tr_us=tr_us if index == 0 else 0.0,
                              cache_hit=cache_hit,
                              reconfigured=reconfigured and index == 0,
                              batched=index > 0,
                              reconfig_share_nj=reconfig_share_nj)

    def _ensure_loaded(
            self, module: str
    ) -> Tuple[Optional[ReconfigResult], Optional[bool]]:
        """Swap ``module`` in, its descriptor from the cache.

        Returns ``(ReconfigResult | None, cache_hit | None)``, None
        when the module's RP already holds it.  A failed load has
        already reset the ICAP and re-coupled the RP, so a retry only
        waits out ``recovery_backoff_us`` first.
        """
        manager, soc = self.manager, self.soc
        if soc.active_module(soc.module_rp_index(module)) == module:
            return None, None
        attempts = 0
        while True:
            descriptor, cache_hit = self.cache.get(module)
            if self.verify:
                self._verify_descriptor(module, descriptor)
            if self._governor is not None:
                self._defer_for_power(module, descriptor)
            try:
                return manager.load_module(
                    module, descriptor=descriptor,
                    mode=self.reconfig_mode), cache_hit
            except ControllerError:
                attempts += 1
                if attempts > MAX_RETRIES:
                    raise
                obs = self.obs
                if obs is not None:
                    self._metrics(obs)["retries"].inc()
                timing = soc.config.timing
                manager.port.elapse(max(1, int(
                    timing.recovery_backoff_us * timing.soc_freq_hz / 1e6)))

    def _verify_descriptor(self, module: str,
                           descriptor: RmDescriptor) -> None:
        """Statically verify the module's DDR-resident bitstream.

        Raises :class:`BitstreamRejected` (served in-band as REJECTED)
        when the stream is malformed or configures frames outside the
        module's declared partition — before the driver issues a single
        ICAP write.  The verdict is memoized per DDR placement, so a
        clean trace pays one verification per (module, address, size).
        """
        key = (module, descriptor.start_address, descriptor.pbit_size)
        errors = self._verify_memo.get(key)
        if errors is None:
            # local import: the verifier pulls the whole static-analysis
            # stack, which verify=False replays never need
            from repro.fpga.bitstream import Bitstream
            from repro.lint.findings import Severity
            from repro.verify import verify_bitstream

            soc = self.soc
            raw = soc.ddr_read(descriptor.start_address,
                               descriptor.pbit_size)
            rp = soc.partitions[soc.module_rp_index(module)]
            report = verify_bitstream(Bitstream.from_bytes(raw), rp,
                                      name=module)
            errors = [f"{f.rule_id}: {f.message}" for f in report.findings
                      if f.severity is Severity.ERROR]
            self._verify_memo[key] = errors
        if errors:
            raise BitstreamRejected(module, errors)

    def _defer_for_power(self, module: str,
                         descriptor: RmDescriptor) -> None:
        """Hold the batch until the peak-power governor admits it.

        The estimate (pbit size at 4 B/cycle plus a fixed driver
        overhead) upper-bounds the actual busy window, so the committed
        interval can only be shorter than what admission reserved.
        Raises :class:`SchedulerError` (served in-band as FAILED) when
        the cap is infeasible for a single atomic reconfiguration.
        """
        governor = self._governor
        assert governor is not None
        assert self.power_profile is not None
        est = self.power_profile.estimate_reconfig_cycles(
            descriptor.pbit_size)
        delay = governor.admission_delay(self.sim.now, est)
        if not delay:
            return
        governor.note_deferral(delay)
        obs = self.obs
        if obs is not None:
            obs.tracer.instant(TRACK, "power_deferral", self.sim.now,
                               module=module, cycles=delay)
        self.manager.port.elapse(delay)

    def _run_payload(self, entry: _Entry, start_us: float, *,
                     td_us: float, tr_us: float,
                     cache_hit: Optional[bool], reconfigured: bool,
                     batched: bool,
                     reconfig_share_nj: float = 0.0) -> None:
        request = entry.request
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(TRACK, "request", self.sim.now,
                                    id=request.request_id,
                                    module=request.module)
        tc_us = 0.0
        error: Optional[str] = None
        try:
            if request.payload_shape is not None:
                image = self._payload_frame(request.payload_shape)
                _out, times = self.manager.process_image(
                    request.module, image)
                tc_us = times.tc_us
        except ReproError as exc:
            error = str(exc)
        finally:
            if obs is not None:
                obs.tracer.end(span, self.sim.now)
        status = FAILED if error is not None else COMPLETED
        if self.power_profile is not None:
            nj = reconfig_share_nj
            if tc_us:
                nj += self.power_profile.payload_energy_nj(tc_us)
            if nj:
                self._charge_energy(request.tenant, nj)
        outcome = self._outcome(entry, status, start=start_us, error=error,
                                cache_hit=cache_hit)
        outcome.td_us, outcome.tr_us, outcome.tc_us = td_us, tr_us, tc_us
        outcome.reconfigured = reconfigured
        outcome.batched = batched
        self._finish(entry, outcome)

    def _charge_energy(self, tenant: Optional[str], nj: float) -> None:
        self.energy_nj_total += nj
        if tenant is not None:
            self.tenant_energy_nj[tenant] = (
                self.tenant_energy_nj.get(tenant, 0.0) + nj)
        obs = self.obs
        if obs is not None:
            instruments = self._metrics(obs)
            instruments["energy"].inc(int(nj))
            if tenant is not None:
                per_tenant = instruments["energy_tenant"]
                counter = per_tenant.get(tenant)
                if counter is None:
                    counter = obs.metrics.counter(
                        "sched_tenant_energy_nj",
                        "modeled energy charged per tenant (nJ)",
                        labels={"tenant": tenant})
                    per_tenant[tenant] = counter
                counter.inc(int(nj))

    # ------------------------------------------------------------------
    # outcome bookkeeping
    # ------------------------------------------------------------------
    def _outcome(self, entry: _Entry, status: str, *,
                 start: Optional[float], error: Optional[str] = None,
                 cache_hit: Optional[bool] = None) -> RequestOutcome:
        request = entry.request
        finish = self._cycles_to_us(self.sim.now) \
            if status == COMPLETED else None
        return RequestOutcome(
            request_id=request.request_id,
            module=request.module,
            status=status,
            arrival_us=request.arrival_us,
            deadline_us=request.deadline_us,
            start_us=start,
            finish_us=finish,
            cache_hit=cache_hit,
            error=error,
        )

    def _finish(self, entry: _Entry, outcome: RequestOutcome) -> None:
        """Resolve the entry's ticket and record terminal metrics."""
        del self._queued[entry.seq]
        self.outcomes[entry.seq] = outcome
        obs = self.obs
        if obs is not None:
            instruments = self._metrics(obs)
            instruments["status"][outcome.status].inc()
            if outcome.deadline_missed:
                instruments["deadline_misses"].inc()
                obs.tracer.instant(TRACK, "deadline_miss", self.sim.now,
                                   id=outcome.request_id,
                                   module=outcome.module)
            if outcome.latency_us is not None:
                instruments["latency"].record(
                    int(outcome.latency_us * self._freq_hz / 1e6))
            if outcome.start_us is not None:
                wait = max(0.0, outcome.start_us - outcome.arrival_us)
                instruments["queue_wait"].record(
                    int(wait * self._freq_hz / 1e6))
            if outcome.tc_us:
                instruments["tc"].record(
                    int(outcome.tc_us * self._freq_hz / 1e6))

    # ------------------------------------------------------------------
    # payload frames (content is irrelevant; geometry must match the RM)
    # ------------------------------------------------------------------
    def _payload_frame(self, shape: Tuple[int, int]) -> np.ndarray:
        frame = self._payload_frames.get(shape)
        if frame is None:
            height, width = shape
            frame = (np.add.outer(np.arange(height, dtype=np.uint16),
                                  np.arange(width, dtype=np.uint16))
                     & 0xFF).astype(np.uint8)
            self._payload_frames[shape] = frame
        return frame

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def icap_utilization(self) -> float:
        """Fraction of elapsed time the ICAP spent programming."""
        if self._started_cycle is None:
            return 0.0
        elapsed = self.sim.now - self._started_cycle
        return self.icap_busy_cycles / elapsed if elapsed else 0.0

    @property
    def power_deferrals(self) -> int:
        """Reconfigurations the peak-power governor held back."""
        return self._governor.deferrals if self._governor is not None else 0

    def power_summary(self) -> Optional[Dict[str, Any]]:
        """Energy/power accounting totals (None when accounting is off)."""
        if self.power_profile is None:
            return None
        governor = self._governor
        return {
            "profile_version": self.power_profile.version,
            "energy_nj_total": round(self.energy_nj_total, 3),
            "energy_by_tenant": {
                tenant: round(nj, 3)
                for tenant, nj in sorted(self.tenant_energy_nj.items())},
            "power_deferrals": self.power_deferrals,
            "power_deferred_cycles": (
                governor.deferred_cycles if governor is not None else 0),
            "power_cap_mw": self.peak_power_mw,
            "peak_window_power_mw": (
                governor.max_window_power_mw() if governor is not None
                else None),
        }
