"""The assembled FPGA-based RISC-V SoC (Fig. 1 + Fig. 2).

:class:`Soc` owns every component instance and the bookkeeping that
crosses subsystem boundaries: which reconfigurable module is loaded
(derived from the actual configuration-memory contents, not from driver
say-so), the RM's stream attachment, and hart construction for firmware
runs.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.accel import make_accelerator
from repro.accel.base import StreamAccelerator
from repro.axi.crossbar import AxiCrossbar
from repro.core.hwicap import AxiHwIcap
from repro.core.rvcap import RvCapController
from repro.errors import ControllerError
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.icap import Icap
from repro.fpga.partition import ReconfigurableModule, ReconfigurablePartition
from repro.mem.bootrom import BootRom
from repro.mem.ddr import DdrController
from repro.riscv.assembler.program import Program
from repro.riscv.hart import Hart
from repro.sim.kernel import Simulator
from repro.soc.clint import Clint
from repro.soc.config import SocConfig
from repro.soc.plic import Plic
from repro.soc.sdcard import SdCard
from repro.soc.spi import SpiController
from repro.soc.uart import Uart

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability


class Soc:
    """Top-level container for the reference SoC."""

    def __init__(self, config: SocConfig) -> None:
        self.config = config
        self.sim = Simulator(freq_hz=config.timing.soc_freq_hz)
        # populated by the builder:
        self.xbar: AxiCrossbar
        self.dma_xbar: AxiCrossbar
        self.ddr: DdrController
        self.bootrom: BootRom
        self.clint: Clint
        self.plic: Plic
        self.uart: Uart
        self.spi: SpiController
        self.sdcard: SdCard
        self.config_memory: ConfigMemory
        self.icap: Icap
        self.rvcap: RvCapController
        self.hwicap: AxiHwIcap
        self.partitions: list[ReconfigurablePartition] = []
        self.bitgen: Bitgen
        self.hart: Optional[Hart] = None

        #: attached observability (None = detached, zero emit overhead)
        self.obs: Optional["Observability"] = None

        #: symbolic wire name -> PLIC source id, filled by the builder;
        #: the DRC checks this map for duplicate and out-of-range sources
        self.irq_sources: Dict[str, int] = {}

        #: (rp_index, content signature) -> module name
        self._module_signatures: Dict[tuple[int, str], str] = {}
        self._modules: Dict[str, ReconfigurableModule] = {}
        #: module name -> index of the partition it was registered for
        self._module_rp_index: Dict[str, int] = {}
        self.active_rms: Dict[int, Optional[StreamAccelerator]] = {}
        self.active_module_names: Dict[int, Optional[str]] = {}

        # memoized DDR window + bound accessors for the hart's cacheable
        # data path (resolved on first use: self.ddr is builder-set)
        self._ddr_lo = config.layout.ddr_base
        self._ddr_span = config.layout.ddr_size
        self._ddr_load_word: Optional[Callable[[int, int], int]] = None
        self._ddr_store_word: Optional[Callable[[int, int, int], None]] = None

    @property
    def rp(self) -> ReconfigurablePartition:
        """The primary (index 0) reconfigurable partition."""
        return self.partitions[0]

    @property
    def active_rm(self) -> Optional[StreamAccelerator]:
        """Legacy single-RP view: RP 0's active accelerator."""
        return self.active_rms.get(0)

    @property
    def active_module_name(self) -> Optional[str]:
        """Legacy single-RP view: RP 0's active module name."""
        return self.active_module_names.get(0)

    def active_module(self, rp_index: int) -> Optional[str]:
        return self.active_module_names.get(rp_index)

    # ------------------------------------------------------------------
    # module registry: signatures map config-memory contents -> RM
    # ------------------------------------------------------------------
    def register_module(self, module: ReconfigurableModule,
                        rp_index: int = 0) -> None:
        """Register an RM so the SoC can recognize its configuration."""
        rp = self.partitions[rp_index]
        payload = self.bitgen.frame_payload(rp, module)
        signature = hashlib.sha256(payload.tobytes()).hexdigest()
        self._module_signatures[(rp_index, signature)] = module.name
        self._modules[module.name] = module
        self._module_rp_index[module.name] = rp_index

    def module(self, name: str) -> ReconfigurableModule:
        return self._modules[name]

    def module_rp_index(self, name: str) -> int:
        """Partition index a registered module targets (default RP 0)."""
        return self._module_rp_index.get(name, 0)

    @property
    def registered_modules(self) -> list[str]:
        return sorted(self._modules)

    def _rp_signature(self, rp_index: int) -> str:
        rp = self.partitions[rp_index]
        frames = self.config_memory.read_frames(rp.base_far, rp.frames)
        return hashlib.sha256(frames.tobytes()).hexdigest()

    def on_reconfiguration_complete(self) -> None:
        """ICAP completion hook: re-derive each RP's active module from
        the actual configuration-memory contents."""
        for rp_index, rp in enumerate(self.partitions):
            signature = self._rp_signature(rp_index)
            name = self._module_signatures.get((rp_index, signature))
            if name == self.active_module_names.get(rp_index):
                continue  # unchanged
            if name is None:
                # unknown contents: partition holds no recognizable module
                self.active_rms[rp_index] = None
                self.active_module_names[rp_index] = None
                rp.loaded_module = None
                self.rvcap.attach_rm_streams(None, None, rp_index=rp_index)
                continue
            module = self._modules[name]
            rp.loaded_module = module
            self.active_module_names[rp_index] = name
            if module.behavior is not None:
                rm = make_accelerator(module.behavior,
                                      width=module.frame_width,
                                      height=module.frame_height)
                self.active_rms[rp_index] = rm
                self.rvcap.attach_rm_streams(rm, rm, rp_index=rp_index)
            else:
                self.active_rms[rp_index] = None
                self.rvcap.attach_rm_streams(None, None, rp_index=rp_index)

    # ------------------------------------------------------------------
    # firmware support
    # ------------------------------------------------------------------
    def load_firmware(self, program: Program) -> Hart:
        """Program the boot memory and construct a hart at its entry."""
        layout = self.config.layout
        if program.base != layout.bootrom_base:
            raise ControllerError(
                f"firmware base {program.base:#x} does not match boot ROM "
                f"at {layout.bootrom_base:#x}"
            )
        self.bootrom.load_image(program.text)
        hart = Hart(
            self.sim,
            self.xbar,
            fetch_backdoor=self._fetch,
            data_load=self._data_load,
            data_store=self._data_store,
            is_cacheable=layout.is_cacheable,
            timing=self.config.timing.cpu,
            reset_pc=program.entry,
            # the two windows below are exactly is_cacheable's ranges,
            # letting the hart classify accesses with inline compares
            cacheable_windows=(
                (layout.ddr_base, layout.ddr_base + layout.ddr_size),
                (layout.bootrom_base,
                 layout.bootrom_base + layout.bootrom_size),
            ),
            fast_memory=(layout.ddr_base,
                         layout.ddr_base + layout.ddr_size,
                         self.ddr.memory),
        )
        self.clint.connect_hart(hart.csr.set_mip_bit)
        self.plic.connect_hart(hart.csr.set_mip_bit)
        hart.csr.time_source = lambda: self.clint.mtime
        self.hart = hart
        return hart

    def _fetch(self, addr: int, nbytes: int) -> bytes:
        layout = self.config.layout
        if layout.bootrom_base <= addr < layout.bootrom_base + layout.bootrom_size:
            return self.bootrom.fetch(addr - layout.bootrom_base, nbytes)
        if layout.ddr_base <= addr < layout.ddr_base + layout.ddr_size:
            return self.ddr.dump(addr - layout.ddr_base, nbytes)
        raise ControllerError(f"instruction fetch from unmapped {addr:#x}")

    def _data_load(self, addr: int, nbytes: int) -> int:
        offset = addr - self._ddr_lo
        if 0 <= offset < self._ddr_span:
            fn = self._ddr_load_word
            if fn is None:
                fn = self._ddr_load_word = self.ddr.memory.load_word
            return fn(offset, nbytes)
        layout = self.config.layout
        if layout.bootrom_base <= addr < layout.bootrom_base + layout.bootrom_size:
            data = self.bootrom.fetch(addr - layout.bootrom_base, nbytes)
            return int.from_bytes(data, "little")
        raise ControllerError(f"cacheable load from unmapped {addr:#x}")

    def _data_store(self, addr: int, value: int, nbytes: int) -> None:
        offset = addr - self._ddr_lo
        if 0 <= offset < self._ddr_span:
            fn = self._ddr_store_word
            if fn is None:
                fn = self._ddr_store_word = self.ddr.memory.store_word
            fn(offset, value, nbytes)
            return
        raise ControllerError(f"cacheable store to unmapped {addr:#x}")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_observability(self,
                             obs: Optional["Observability"] = None
                             ) -> "Observability":
        """Attach a span tracer + metrics registry to every instrumented
        component (DMA channels, ICAP parser, AXIS2ICAP, AXIS switch, RP
        control, PLIC, both crossbars, AXI_HWICAP), and register each
        :meth:`stats` key as an observed ``soc_*`` gauge, so one export
        also carries the SD, SPI and hart counters no instrument keeps.

        Returns the :class:`~repro.obs.Observability` (a fresh one is
        created when None is given).  Detached components pay only an
        ``is not None`` check per emit site.
        """
        from repro.obs import Observability
        if obs is None:
            obs = Observability()
        self.obs = obs
        clock = lambda: self.sim.now
        self.rvcap.dma.attach_obs(obs)
        self.icap.attach_obs(obs)
        self.rvcap.axis2icap.attach_obs(obs)
        self.rvcap.switch.attach_obs(obs, clock)
        self.rvcap.rp_control.attach_obs(obs, clock)
        self.plic.attach_obs(obs)
        self.xbar.attach_obs(obs)
        self.dma_xbar.attach_obs(obs)
        self.hwicap.attach_obs(obs)
        for key in self.stats():
            obs.metrics.observed_gauge(
                f"soc_{key}", "Soc.stats() counter",
                lambda key=key: self.stats()[key])
        return obs

    def stats(self) -> Dict[str, int | float]:
        """Counter snapshot across all subsystems (side-effect free)."""
        stats: Dict[str, int | float] = {
            "sim_cycles": self.sim.now,
            "sim_time_us": self.sim.now_us,
            "sim_events": self.sim.events_processed,
            "xbar_transactions": self.xbar.transactions,
            "xbar_decode_errors": self.xbar.decode_errors,
            "ddr_bytes_read": self.ddr.bytes_read,
            "ddr_bytes_written": self.ddr.bytes_written,
            "icap_words": self.icap.words_consumed,
            "icap_reconfigurations": self.icap.reconfigurations_completed,
            "icap_errors": int(self.icap.error),
            "config_frames_written": self.config_memory.frames_written,
            "dma_mm2s_transfers": self.rvcap.dma.mm2s.transfers_completed,
            "dma_s2mm_transfers": self.rvcap.dma.s2mm.transfers_completed,
            "hwicap_words": self.hwicap.words_transferred,
            "plic_claims": self.plic.claims,
            "spi_transfers": self.spi.transfers,
            "sd_reads": self.sdcard.reads,
            "sd_writes": self.sdcard.writes,
        }
        hart = self.hart
        if hart is not None:
            stats.update({
                "cpu_instructions": hart.instret,
                "cpu_cycles": hart.cycles,
                "cpu_mmio_accesses": hart.mmio_accesses,
                "cpu_traps": hart.trap_count,
                "dcache_hits": hart.dcache.hits,
                "dcache_misses": hart.dcache.misses,
            })
        return stats

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @property
    def now_us(self) -> float:
        return self.sim.now_us

    def ddr_write(self, addr: int, data: bytes) -> None:
        """Zero-time backdoor DDR write at an absolute address."""
        self.ddr.load_image(addr - self.config.layout.ddr_base, data)

    def ddr_read(self, addr: int, nbytes: int) -> bytes:
        """Zero-time backdoor DDR read at an absolute address."""
        return self.ddr.dump(addr - self.config.layout.ddr_base, nbytes)
