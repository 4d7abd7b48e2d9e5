"""Metrics registry: named counters, gauges and HDR-style histograms.

Components register instruments once (at observability attach time) and
update them on hot paths with plain attribute operations — no dict
lookups, no string formatting.  Besides counters the registry holds
distribution-valued measurements (per-burst DMA latency, interrupt
service latency, crossbar contention) a scalar snapshot cannot hold.
``Soc.capture_stats_metrics`` mirrors the ``Soc.stats()`` snapshot
into it as ``soc_*`` gauges, for the SD, SPI and hart counters no
instrument keeps.

Histograms use HDR-style bucketing: values below 8 get exact unit
buckets, larger values land in power-of-two octaves split into 8
sub-buckets, bounding the relative quantization error at 12.5 % while
keeping memory constant for any value range — the standard shape for
latency distributions in serving systems.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, TypeVar

_SUB_BITS = 3          # 8 sub-buckets per octave
_SUB = 1 << _SUB_BITS
_LINEAR_LIMIT = 1 << _SUB_BITS


def _bucket_index(value: int) -> int:
    if value < _LINEAR_LIMIT:
        return max(0, value)
    shift = value.bit_length() - 1 - _SUB_BITS
    return (shift << _SUB_BITS) + (value >> shift)


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


#: gauge cross-shard reductions :meth:`MetricsRegistry.merge` accepts
GAUGE_MERGE_MODES = ("max", "min", "sum", "last")


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
        if merge_mode not in GAUGE_MERGE_MODES:
            raise ValueError(
                f"gauge merge_mode {merge_mode!r} not in "
                f"{GAUGE_MERGE_MODES}")
        self.value = 0.0
        self.merge_mode = merge_mode

    def set(self, value: float) -> None:
        self.value = value


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

    def record(self, value: int) -> None:
        self.record_count(value, 1)

    def record_many(self, values: List[int]) -> None:
        """Record a batch of values in one call.

        Exactly equivalent to calling :meth:`record` per value — hot
        paths (the DMA descriptor engine) accumulate samples locally
        and flush them in bulk instead of paying one method call per
        burst.
        """
        buckets = self.buckets
        get = buckets.get
        total = 0
        lo = hi = None
        for value in values:
            value = int(value)
            if value < 0:
                value = 0
            # _bucket_index, inlined (negatives already clamped)
            if value < _LINEAR_LIMIT:
                index = value
            else:
                shift = value.bit_length() - 1 - _SUB_BITS
                index = (shift << _SUB_BITS) + (value >> shift)
            buckets[index] = get(index, 0) + 1
            total += value
            if lo is None or value < lo:
                lo = value
            if hi is None or value > hi:
                hi = value
        if lo is None:
            return
        self.count += len(values)
        self.total += total
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    def record_count(self, value: int, count: int) -> None:
        """Record ``value`` ``count`` times in one call.

        Exactly equivalent to ``count`` calls of :meth:`record`; the DMA
        bulk step uses it because a run of bursts has at most three
        distinct latencies.
        """
        if count <= 0:
            return
        value = int(value)
        if value < 0:
            value = 0
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

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
            if merge_mode not in GAUGE_MERGE_MODES:
                raise ValueError(
                    f"gauge merge_mode {merge_mode!r} not in "
                    f"{GAUGE_MERGE_MODES}")
            instrument.merge_mode = merge_mode
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
        byte-identical.
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
                elif mine.merge_mode == "max":
                    mine.set(max(mine.value, instrument.value))
                elif mine.merge_mode == "min":
                    mine.set(min(mine.value, instrument.value))
                elif mine.merge_mode == "sum":
                    mine.set(mine.value + instrument.value)
                else:  # "last"
                    mine.set(instrument.value)
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
