"""LRU partial-bitstream cache: hot pbits live in DDR, cold on SD.

``init_RModules`` (the paper's Listing 1, step 1) loads *every*
registered pbit into DDR up front — fine for three case-study filters,
hopeless for a multi-tenant catalog that outgrows the DDR budget.  The
:class:`BitstreamCache` replaces the eager load with demand paging: the
first swap of a module walks the SD/FAT32 path and stages the pbit into
a bounded DDR arena; repeat swaps hit the arena and skip the SD card
entirely.  Eviction is LRU over whole bitstreams.

Miss-path timing
----------------
The FAT32 mount used here reads card blocks through the untimed
backdoor (wall-clock fast), and the cache charges the *simulated* cost
of the transfer explicitly, calibrated to the SPI-mode SD link the
timed :class:`~repro.drivers.fileio.SpiSdBlockDevice` models: at the
default divider of 4 every byte occupies the shift register for
``8 * 4`` bus cycles, plus a per-block command/token/CRC envelope and a
per-file directory-plus-FAT walk.  A 15.8 KB pbit therefore costs
~5.3 ms of simulated time to fault in — two orders of magnitude above
its ~63 us reconfiguration — which is exactly why repeat swaps must
bypass the card.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.drivers.fileio import RmDescriptor
from repro.drivers.mmio import HostPort
from repro.errors import CacheCapacityError
from repro.fat32.blockdev import BLOCK_SIZE
from repro.fat32.filesystem import Fat32FileSystem

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.obs.metrics import Histogram

#: SPI-mode SD link cost model (matches SpiSdBlockDevice at divider 4)
SPI_DIVIDER = 4
CYCLES_PER_BYTE = 8 * SPI_DIVIDER
#: CMD17 frame (6 bytes), response/token hunt, CRC16 and turnaround
BLOCK_OVERHEAD_CYCLES = 420
#: directory lookup plus FAT chain walk per file open
FILE_OVERHEAD_CYCLES = 2400

#: DDR placement granularity for cached bitstreams
ARENA_ALIGN = 64


def sd_load_cycles(nbytes: int) -> int:
    """Simulated cycles to fault ``nbytes`` in from the SD card."""
    blocks = -(-nbytes // BLOCK_SIZE) if nbytes else 1
    return (FILE_OVERHEAD_CYCLES
            + blocks * (BLOCK_SIZE * CYCLES_PER_BYTE + BLOCK_OVERHEAD_CYCLES))


#: CacheStats field -> (observed counter, help text)
_OBSERVED_STATS = {
    "hits": ("sched_cache_hits_total", "bitstream cache hits"),
    "misses": ("sched_cache_misses_total",
               "bitstream cache misses (SD faults)"),
    "evictions": ("sched_cache_evictions_total",
                  "LRU evictions from the bitstream arena"),
    "sd_bytes_loaded": ("sched_cache_sd_bytes_total",
                        "pbit bytes faulted in from the SD card"),
}


@dataclass
class CacheStats:
    """Running counters; the obs metrics registry observes them."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: bytes faulted in over the (modelled) SD link
    sd_bytes_loaded: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _Extent:
    """One resident bitstream in the arena."""

    descriptor: RmDescriptor
    address: int
    size: int = field(init=False)

    def __post_init__(self) -> None:
        self.size = (self.descriptor.pbit_size + ARENA_ALIGN - 1) \
            & ~(ARENA_ALIGN - 1)


class BitstreamCache:
    """Demand-paged LRU cache of partial bitstreams in a DDR arena."""

    def __init__(self, port: HostPort, filesystem: Fat32FileSystem, *,
                 arena_base: int, arena_bytes: int,
                 charge_sd_time: bool = True) -> None:
        if arena_bytes <= 0:
            raise CacheCapacityError("cache arena must be non-empty")
        self.port = port
        self.fs = filesystem
        self.arena_base = arena_base
        self.arena_bytes = arena_bytes
        self.charge_sd_time = charge_sd_time
        self.stats = CacheStats()
        #: name -> extent, in LRU order (first item = coldest)
        self._resident: "OrderedDict[str, _Extent]" = OrderedDict()
        #: sorted, coalesced (address, size) free extents
        self._free: List[Tuple[int, int]] = [(arena_base, arena_bytes)]
        #: the observability the stats are registered with, and its
        #: fault-cost histogram once a fault has registered it
        self._observed_by: "Optional[Observability]" = None
        self._h_fault: "Optional[Histogram]" = None

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _observe(self) -> "Optional[Observability]":
        """The SoC's observability; the first time the cache sees one it
        registers its stats and resident bytes as observed instruments."""
        obs = self.port.soc.obs
        if obs is not None and obs is not self._observed_by:
            self._observed_by = obs
            metrics = obs.metrics
            for attr, (name, help_text) in _OBSERVED_STATS.items():
                metrics.observed_counter(name, help_text, self.stats, attr)
            metrics.observed_gauge(
                "sched_cache_resident_bytes",
                "bytes of pbit data resident in the arena",
                lambda: float(self.resident_bytes))
            self._h_fault = None
        return obs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contains(self, name: str) -> bool:
        return name in self._resident

    @property
    def resident_modules(self) -> List[str]:
        """Module names in LRU order, coldest first."""
        return list(self._resident)

    @property
    def resident_bytes(self) -> int:
        return sum(e.size for e in self._resident.values())

    # ------------------------------------------------------------------
    # the cache operation
    # ------------------------------------------------------------------
    def get(self, name: str) -> Tuple[RmDescriptor, bool]:
        """Descriptor for ``name``'s pbit in DDR, faulting it in on miss.

        Returns ``(descriptor, hit)``.  The descriptor's
        ``start_address`` points into the cache arena, ready for
        :meth:`ReconfigurationManager.load_module`'s ``descriptor``
        override.
        """
        self._observe()
        extent = self._resident.get(name)
        if extent is not None:
            self._resident.move_to_end(name)
            self.stats.hits += 1
            return extent.descriptor, True
        descriptor = self._fault_in(name)
        self.stats.misses += 1
        return descriptor, False

    def prefetch(self, names: List[str]) -> int:
        """Warm the arena with ``names`` (most valuable last); returns
        the number of modules actually faulted in.  Prefetches count no
        demand hit or miss."""
        loaded = 0
        for name in names:
            if not self.contains(name):
                self._fault_in(name)
                loaded += 1
        return loaded

    def invalidate(self, name: str) -> bool:
        """Drop ``name`` from the arena (e.g. after an SD rewrite)."""
        extent = self._resident.pop(name, None)
        if extent is None:
            return False
        self._release(extent)
        return True

    # ------------------------------------------------------------------
    # miss path
    # ------------------------------------------------------------------
    def _fault_in(self, name: str) -> RmDescriptor:
        from repro.fpga.bitfile import is_bit_file, parse_bit_file

        soc = self.port.soc
        obs = self._observe()
        # the untimed steps that can raise come before the span opens,
        # so a missing file or an oversized pbit leaves no span open
        file_name = f"{name.upper()}.PBI"
        data = self.fs.read_file(file_name)
        if is_bit_file(data):
            _header, bitstream = parse_bit_file(data)
            data = bitstream.to_bytes()
        address = self._allocate(len(data))
        span = None
        if obs is not None:
            span = obs.tracer.begin("sched", "cache_fault", soc.sim.now,
                                    module=name)
        if self.charge_sd_time:
            self.port.elapse(sd_load_cycles(len(data)))
        soc.ddr_write(address, data)
        descriptor = RmDescriptor(
            name=name,
            file_name=file_name,
            start_address=address,
            pbit_size=len(data),
            functionality=name,
        )
        self._resident[name] = _Extent(descriptor, address)
        self.stats.sd_bytes_loaded += len(data)
        if obs is not None:
            obs.tracer.end(span, soc.sim.now, bytes=len(data))
            histogram = self._h_fault
            if histogram is None:
                histogram = self._h_fault = obs.metrics.histogram(
                    "sched_cache_fault_cycles",
                    "simulated cycles per cache fault")
            histogram.record(
                sd_load_cycles(len(data)) if self.charge_sd_time else 0)
        return descriptor

    # ------------------------------------------------------------------
    # arena allocator: first-fit free list, LRU eviction on pressure
    # ------------------------------------------------------------------
    def _allocate(self, nbytes: int) -> int:
        size = (nbytes + ARENA_ALIGN - 1) & ~(ARENA_ALIGN - 1)
        if size > self.arena_bytes:
            raise CacheCapacityError(
                f"pbit of {nbytes} bytes exceeds the {self.arena_bytes}-"
                "byte cache arena")
        while True:
            for index, (addr, free) in enumerate(self._free):
                if free >= size:
                    remainder = free - size
                    if remainder:
                        self._free[index] = (addr + size, remainder)
                    else:
                        del self._free[index]
                    return addr
            if not self._resident:
                # arena is empty yet fragmented-by-construction: cannot
                # happen with coalescing, but guard against it anyway
                raise CacheCapacityError(
                    f"no contiguous {size}-byte extent in an empty arena")
            self._evict_one()

    def _evict_one(self) -> None:
        _name, extent = self._resident.popitem(last=False)
        self._release(extent)
        self.stats.evictions += 1

    def _release(self, extent: _Extent) -> None:
        """Return an extent to the free list, coalescing neighbours."""
        self._free.append((extent.address, extent.size))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for addr, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((addr, size))
        self._free = merged

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view for reports."""
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "hit_rate": round(self.stats.hit_rate, 4),
            "sd_bytes_loaded": self.stats.sd_bytes_loaded,
            "resident_modules": self.resident_modules,
            "resident_bytes": self.resident_bytes,
            "arena_bytes": self.arena_bytes,
        }
