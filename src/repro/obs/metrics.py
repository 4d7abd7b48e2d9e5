"""Metrics registry: named counters, gauges and HDR-style histograms.

Components register instruments once, at observability attach time.
A fact a component already counts for itself (the ICAP's words, a
crossbar's transactions, ``Soc.stats()``) is registered *observed*:
the registry reads the component's own counter when a snapshot, export
or merge asks, so each fact is counted once.  A fact only the exports
need (histograms, DMA bytes and stalls, crossbar contention) is
*pushed*: the component resolves the instrument once and updates it on
its hot path with plain attribute operations (a counter's or gauge's
``value``) or one :meth:`Histogram.record` call — no registry lookups,
no string formatting.
Besides counters the registry holds distribution-valued measurements
(per-burst DMA latency, interrupt service latency) a scalar snapshot
cannot hold.

Histograms use HDR-style bucketing: values below 8 get exact unit
buckets, larger values land in power-of-two octaves split into 8
sub-buckets, bounding the relative quantization error at 12.5 % while
keeping memory constant for any value range — the standard shape for
latency distributions in serving systems.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, TypeVar

_SUB_BITS = 3          # 8 sub-buckets per octave
_SUB = 1 << _SUB_BITS
_LINEAR_LIMIT = 1 << _SUB_BITS


def _bucket_index(value: int) -> int:
    """Bucket of ``value`` (tabulated below ``_SMALL_LIMIT``, inlined
    above it by :meth:`Histogram.record`)."""
    if value < _LINEAR_LIMIT:
        return max(0, value)
    shift = value.bit_length() - 1 - _SUB_BITS
    return (shift << _SUB_BITS) + (value >> shift)


#: bucket index of every value below 4096 (most recorded latencies),
#: so :meth:`Histogram.record` needs no arithmetic for them
_SMALL_LIMIT = 1 << 12
_SMALL_INDEX = tuple(_bucket_index(value) for value in range(_SMALL_LIMIT))


def _bucket_upper_bound(index: int) -> int:
    """Largest value that maps into bucket ``index`` (inclusive)."""
    if index < _LINEAR_LIMIT:
        return index
    # indexes [8, 15] come from shift 0 (values 8..15), [16, 23] from
    # shift 1, ... — the octave is (index >> _SUB_BITS) - 1
    shift = (index >> _SUB_BITS) - 1
    sub = index & (_SUB - 1) | _SUB
    return ((sub + 1) << shift) - 1


LabelItems = Tuple[Tuple[str, str], ...]


class _Instrument:
    """Shared identity: a name plus optional prometheus-style labels."""

    __slots__ = ("name", "help", "labels")

    def __init__(self, name: str, help_text: str,
                 labels: Optional[Dict[str, str]]) -> None:
        self.name = name
        self.help = help_text
        self.labels: LabelItems = tuple(sorted((labels or {}).items()))

    @property
    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"


_InstrumentT = TypeVar("_InstrumentT", bound=_Instrument)


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, name: str, help_text: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, help_text, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class ObservedCounter(Counter):
    """A counter that reads component counters instead of being pushed.

    Each source is an ``(owner, attribute)`` pair naming a running count
    the component keeps for itself.  The value is the sum over sources
    of that count's change since the source was attached, computed when
    read; it pickles as a plain :class:`Counter` holding that value.
    """

    __slots__ = ("_sources",)

    def __init__(self, name: str, help_text: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        _Instrument.__init__(self, name, help_text, labels)
        self._sources: List[Tuple[object, str, int]] = []

    def observe(self, owner: object, attr: str) -> None:
        """Count ``owner.attr`` from its value now; a pair already
        observed keeps its first baseline."""
        if not any(o is owner and a == attr for o, a, _ in self._sources):
            self._sources.append((owner, attr, getattr(owner, attr)))

    @property
    def value(self) -> int:
        return sum(getattr(owner, attr) - base
                   for owner, attr, base in self._sources)

    @value.setter
    def value(self, _value: int) -> None:
        _refuse_push(self)

    def __reduce__(self) -> Tuple[Any, ...]:
        return _plain, (Counter, self.name, self.help, dict(self.labels),
                        {"value": self.value})


#: gauge cross-shard reductions :meth:`MetricsRegistry.merge` accepts
GAUGE_MERGE_MODES = ("max", "min", "sum", "last")


def _checked_merge_mode(merge_mode: str) -> str:
    if merge_mode not in GAUGE_MERGE_MODES:
        raise ValueError(
            f"gauge merge_mode {merge_mode!r} not in {GAUGE_MERGE_MODES}")
    return merge_mode


def _combine(merge_mode: str, current: float, incoming: float) -> float:
    """Reduce two gauge values per ``merge_mode``."""
    if merge_mode == "max":
        return max(current, incoming)
    if merge_mode == "min":
        return min(current, incoming)
    if merge_mode == "sum":
        return current + incoming
    return incoming  # "last"


class Gauge(_Instrument):
    """A value that can go up and down.

    ``merge_mode`` declares how shard values reduce when registries
    merge: ``max`` (the default — order-independent and right for
    peaks/high-water marks), ``min``, ``sum`` (for gauges that are
    really partitioned totals) or ``last`` (explicitly order-dependent;
    only sound when every shard reports the same value).
    """

    __slots__ = ("value", "merge_mode")

    def __init__(self, name: str, help_text: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 merge_mode: str = "max") -> None:
        super().__init__(name, help_text, labels)
        self.value = 0.0
        self.merge_mode = _checked_merge_mode(merge_mode)

    def set(self, value: float) -> None:
        self.value = value


class ObservedGauge(Gauge):
    """A gauge that reads component state instead of being set.

    Each source is a callable returning the current level; the value
    reduces the sources' readings per ``merge_mode`` (``max``), the rule
    :meth:`MetricsRegistry.merge` applies across registries.  It pickles
    as a plain :class:`Gauge` holding that value.
    """

    __slots__ = ("_sources",)

    def __init__(self, name: str, help_text: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        _Instrument.__init__(self, name, help_text, labels)
        self.merge_mode = "max"
        self._sources: List[Callable[[], float]] = []

    def observe(self, read: Callable[[], float]) -> None:
        self._sources.append(read)

    @property
    def value(self) -> float:
        readings = [read() for read in self._sources]
        if not readings:
            return 0.0
        return reduce(lambda a, b: _combine(self.merge_mode, a, b), readings)

    @value.setter
    def value(self, _value: float) -> None:
        _refuse_push(self)

    def __reduce__(self) -> Tuple[Any, ...]:
        return _plain, (Gauge, self.name, self.help, dict(self.labels),
                        {"value": self.value, "merge_mode": self.merge_mode})


def _refuse_push(instrument: _Instrument) -> None:
    raise TypeError(f"metric {instrument.name!r} is observed: it reads its "
                    f"sources and cannot be incremented or set")


def _plain(cls: Type[_InstrumentT], name: str, help_text: str,
           labels: Dict[str, str], state: Dict[str, Any]) -> _InstrumentT:
    """A pushed instrument holding ``state``: what an observed one
    unpickles to."""
    instrument = cls(name, help_text, labels)
    for attr, value in state.items():
        setattr(instrument, attr, value)
    return instrument


class Histogram(_Instrument):
    """HDR-style histogram over non-negative integer values (cycles)."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self, name: str, help_text: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, help_text, labels)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int, count: int = 1) -> None:
        """Record ``value`` ``count`` times in one call (negative values
        clamp to 0; a count below 1 records nothing)."""
        if count <= 0:
            return
        value = int(value)
        if value < _SMALL_LIMIT:
            if value < 0:
                value = 0
            index = _SMALL_INDEX[value]
        else:
            shift = value.bit_length() - 1 - _SUB_BITS
            index = (shift << _SUB_BITS) + (value >> shift)
        buckets = self.buckets
        if index in buckets:
            buckets[index] += count
        else:
            buckets[index] = count
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    #: ``record_count(value, count)``: the name the DMA engine's flush
    #: uses for its folded per-burst latency counts
    record_count = record

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int:
        """Value at quantile ``q`` in [0, 1] (bucket upper bound)."""
        if not self.count:
            return 0
        target = max(1, int(q * self.count + 0.5))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return min(_bucket_upper_bound(index),
                           self.max if self.max is not None else 0)
        return self.max or 0

    def cumulative_buckets(self) -> List[Tuple[int, int]]:
        """Sorted (upper_bound, cumulative_count) pairs (prometheus le)."""
        out: List[Tuple[int, int]] = []
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            out.append((_bucket_upper_bound(index), seen))
        return out


class MetricsRegistry:
    """Instrument factory and container; idempotent per (name, labels)."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], _Instrument] = {}

    def _get(self, cls: Type[_InstrumentT], name: str, help_text: str,
             labels: Optional[Dict[str, str]]) -> _InstrumentT:
        key = (name, tuple(sorted((labels or {}).items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, help_text, labels)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}")
        return instrument

    def counter(self, name: str, help_text: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Dict[str, str]] = None, *,
              merge_mode: Optional[str] = None) -> Gauge:
        instrument = self._get(Gauge, name, help_text, labels)
        if merge_mode is not None:
            instrument.merge_mode = _checked_merge_mode(merge_mode)
        return instrument

    def observed_counter(self, name: str, help_text: str, owner: object,
                         attr: str, labels: Optional[Dict[str, str]] = None
                         ) -> ObservedCounter:
        """Register ``owner.attr`` as a source of counter ``name``."""
        instrument = self._get(ObservedCounter, name, help_text, labels)
        instrument.observe(owner, attr)
        return instrument

    def observed_gauge(self, name: str, help_text: str,
                       read: Callable[[], float],
                       labels: Optional[Dict[str, str]] = None
                       ) -> ObservedGauge:
        """Register ``read`` as a source of gauge ``name``."""
        instrument = self._get(ObservedGauge, name, help_text, labels)
        instrument.observe(read)
        return instrument

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Dict[str, str]] = None) -> Histogram:
        return self._get(Histogram, name, help_text, labels)

    def instruments(self) -> List[_Instrument]:
        """All instruments, sorted by (name, labels) for stable export."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def get(self, name: str,
            labels: Optional[Dict[str, str]] = None) -> Optional[_Instrument]:
        return self._instruments.get(
            (name, tuple(sorted((labels or {}).items()))))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry.

        The per-instrument merge policy (documented in
        docs/OBSERVABILITY.md and covered by the merge unit tests):

        * **Counter** — values add (a count is a count on any shard);
        * **Histogram** — bucket-wise add, plus count/total and
          min/max merges, so every quantile reflects all shards;
        * **Gauge** — reduced per the *destination* gauge's
          ``merge_mode``: ``max`` (default), ``min``, ``sum`` or
          ``last``.  A gauge the destination has never seen adopts the
          source's mode and value.

        Every default reduction is order-independent, which is what
        keeps the fleet runner's serial vs. sharded outputs
        byte-identical.  Observed instruments in ``other`` merge as
        their values now; the destination's must be pushed ones.
        """
        for instrument in other.instruments():
            labels = dict(instrument.labels)
            if isinstance(instrument, Counter):
                self.counter(instrument.name, instrument.help,
                             labels).inc(instrument.value)
            elif isinstance(instrument, Gauge):
                existing = self.get(instrument.name, labels)
                mine = self.gauge(instrument.name, instrument.help, labels)
                if existing is None:
                    mine.merge_mode = instrument.merge_mode
                    mine.set(instrument.value)
                else:
                    mine.set(_combine(mine.merge_mode, mine.value,
                                      instrument.value))
            else:
                assert isinstance(instrument, Histogram)
                mine = self.histogram(instrument.name, instrument.help,
                                      labels)
                for index, n in instrument.buckets.items():
                    mine.buckets[index] = mine.buckets.get(index, 0) + n
                mine.count += instrument.count
                mine.total += instrument.total
                if instrument.min is not None and (
                        mine.min is None or instrument.min < mine.min):
                    mine.min = instrument.min
                if instrument.max is not None and (
                        mine.max is None or instrument.max > mine.max):
                    mine.max = instrument.max

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every instrument (JSON-exportable)."""
        out: Dict[str, object] = {}
        for instrument in self.instruments():
            key = instrument.name + instrument.label_suffix
            if isinstance(instrument, Counter):
                out[key] = instrument.value
            elif isinstance(instrument, Gauge):
                out[key] = instrument.value
            else:
                assert isinstance(instrument, Histogram)
                out[key] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "min": instrument.min,
                    "max": instrument.max,
                    "mean": round(instrument.mean, 3),
                    "p50": instrument.percentile(0.50),
                    "p99": instrument.percentile(0.99),
                }
        return out
