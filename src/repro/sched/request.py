"""Request model for the multi-tenant DPR scheduler.

A :class:`SwapRequest` is one tenant ask: *swap accelerator X into the
partition by deadline Z, then run payload W*.  Arrival and deadline are
absolute **simulated** timestamps (microseconds of SoC time) — the
scheduler serves a simulated request stream, so wall-clock never enters
the model and two replays of the same trace are byte-identical.

A :class:`RequestOutcome` is the terminal record the scheduler stores
under each request's ticket when it resolves; failures are reported
in-band through ``status`` rather than as raised exceptions so a replay
of thousands of requests aggregates cleanly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ControllerError

#: terminal request states
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
TIMED_OUT = "timed_out"
DROPPED = "dropped"
#: the admission verifier found the module's bitstream malformed; the
#: ICAP was never touched
REJECTED = "rejected"

STATUSES = (COMPLETED, FAILED, CANCELLED, TIMED_OUT, DROPPED, REJECTED)


@dataclass(frozen=True)
class SwapRequest:
    """One "swap module in by a deadline, run a payload" request."""

    #: registered RM name to swap into the partition
    module: str
    #: absolute simulated arrival time (us); the request is not
    #: eligible for service before this instant
    arrival_us: float
    #: absolute simulated completion deadline (us)
    deadline_us: float
    #: (height, width) of a uint8 frame to stream through the RM after
    #: the swap; None is a pure reconfiguration request
    payload_shape: Optional[Tuple[int, int]] = None
    #: maximum queue wait after arrival before the scheduler gives up
    #: on the request (None = wait forever)
    timeout_us: Optional[float] = None
    #: caller-chosen identifier carried through to the outcome
    request_id: int = 0
    #: tenant the request bills against; None bills the shared pool.
    #: Per-tenant energy budgets (``DprScheduler(energy_budgets_nj=...)``)
    #: key on this name.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arrival_us < 0:
            raise ControllerError("arrival_us must be >= 0")
        if self.deadline_us < self.arrival_us:
            raise ControllerError(
                f"request {self.request_id}: deadline {self.deadline_us} "
                f"precedes arrival {self.arrival_us}")
        if self.timeout_us is not None and self.timeout_us <= 0:
            raise ControllerError("timeout_us must be positive")

    @property
    def slack_us(self) -> float:
        return self.deadline_us - self.arrival_us

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        if self.payload_shape is not None:
            out["payload_shape"] = list(self.payload_shape)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SwapRequest":
        shape = data.get("payload_shape")
        return cls(
            module=data["module"],
            arrival_us=float(data["arrival_us"]),
            deadline_us=float(data["deadline_us"]),
            payload_shape=tuple(shape) if shape else None,
            timeout_us=data.get("timeout_us"),
            request_id=int(data.get("request_id", 0)),
            tenant=data.get("tenant"),
        )


@dataclass
class RequestOutcome:
    """Terminal record of one request's journey through the scheduler."""

    request_id: int
    module: str
    status: str
    arrival_us: float
    deadline_us: float
    #: service start (first scheduler attention) and completion, in
    #: simulated us; None when the request never ran
    start_us: Optional[float] = None
    finish_us: Optional[float] = None
    #: Table-IV style per-request breakdown; zero when the batch rode a
    #: module that was already resident
    td_us: float = 0.0
    tr_us: float = 0.0
    tc_us: float = 0.0
    #: True/False when the swap touched the bitstream cache;
    #: None when no reconfiguration was needed at all
    cache_hit: Optional[bool] = None
    #: this request's batch actually programmed the ICAP
    reconfigured: bool = False
    #: rode a batch whose DPR was paid by an earlier request
    batched: bool = False
    error: Optional[str] = None

    @property
    def latency_us(self) -> Optional[float]:
        """Arrival-to-completion latency (None when never completed)."""
        if self.finish_us is None:
            return None
        return self.finish_us - self.arrival_us

    @property
    def deadline_missed(self) -> bool:
        """A request misses unless it *completed* by its deadline."""
        if self.status != COMPLETED or self.finish_us is None:
            return True
        return self.finish_us > self.deadline_us

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["latency_us"] = self.latency_us
        out["deadline_missed"] = self.deadline_missed
        return out
