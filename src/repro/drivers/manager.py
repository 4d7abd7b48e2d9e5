"""High-level reconfiguration management: the user-facing API.

``ReconfigurationManager`` ties the whole stack together — SD card,
FAT32, the pbit store, the RV-CAP driver and the accelerators — into
the workflow the paper's case study runs: *load filter, reconfigure,
stream an image through it, measure Td/Tr/Tc/Tex* (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.drivers.fileio import PbitStore, RmDescriptor
from repro.drivers.hwicap_driver import HwIcapDriver
from repro.drivers.mmio import HostPort
from repro.drivers.rvcap_driver import ReconfigResult, RvCapDriver
from repro.errors import ControllerError
from repro.fat32 import Fat32FileSystem, SdBackdoorBlockDevice, make_disk_image
from repro.fat32.blockdev import BlockDevice
from repro.soc.soc import Soc


@dataclass(frozen=True)
class ExecutionTimes:
    """Table IV row: decision + reconfiguration + compute = total."""

    accelerator: str
    td_us: float
    tr_us: float
    tc_us: float

    @property
    def tex_us(self) -> float:
        return self.td_us + self.tr_us + self.tc_us


class ReconfigurationManager:
    """One-stop driver stack over a built SoC."""

    def __init__(self, soc: Soc, *, controller: str = "rvcap",
                 hwicap_unroll: int = 16) -> None:
        self.soc = soc
        self.port = HostPort(soc)
        self.rvcap = RvCapDriver(self.port)
        self.hwicap = HwIcapDriver(self.port, unroll=hwicap_unroll)
        if controller not in ("rvcap", "hwicap"):
            raise ControllerError(f"unknown controller {controller!r}")
        self.controller = controller
        self.store: Optional[PbitStore] = None
        self.loaded_module: Optional[str] = None
        self.last_reconfig: Optional[ReconfigResult] = None

    # ------------------------------------------------------------------
    # provisioning: build the SD card and load the pbit store
    # ------------------------------------------------------------------
    def provision_sdcard(self, modules: Optional[list[str]] = None) -> None:
        """Generate partial bitstreams and place them on the SD card."""
        soc = self.soc
        names = modules or soc.registered_modules
        files: Dict[str, bytes] = {}
        for name in names:
            bitstream = soc.bitgen.generate(soc.rp, soc.module(name))
            files[f"{name.upper()}.PBI"] = bitstream.to_bytes()
        soc.sdcard.load_blocks(make_disk_image(files).populated_blocks())

    def init_rmodules(self, modules: Optional[list[str]] = None, *,
                      block_device: Optional[BlockDevice] = None) -> None:
        """Mount the card and load every pbit into DDR (Listing 1 step 1).

        ``block_device`` overrides the default backdoor card access —
        the injection seam the fault campaign uses to model SD read
        failures without touching the drivers.
        """
        names = modules or self.soc.registered_modules
        device = block_device or SdBackdoorBlockDevice(self.soc.sdcard)
        filesystem = Fat32FileSystem.mount(device)
        self.store = PbitStore(self.port, filesystem)
        self.store.init_rmodules(names)

    def descriptor(self, name: str) -> RmDescriptor:
        if self.store is None:
            raise ControllerError("call init_rmodules first")
        return self.store.descriptor(name)

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def load_module(self, name: str, *, force: bool = False,
                    mode: str = "interrupt",
                    descriptor: Optional[RmDescriptor] = None
                    ) -> Optional[ReconfigResult]:
        """Ensure ``name`` is loaded; skips the DPR when already active.

        ``descriptor`` overrides the pbit-store lookup — the seam the
        scheduler's bitstream cache uses to point the DMA at a cached
        copy in DDR instead of the store's init_rmodules placement.
        """
        if self.loaded_module == name and not force:
            return None
        if descriptor is None:
            descriptor = self.descriptor(name)
        elif descriptor.name != name:
            raise ControllerError(
                f"descriptor is for {descriptor.name!r}, not {name!r}")
        try:
            if self.controller == "rvcap":
                result = self.rvcap.init_reconfig_process(descriptor,
                                                          mode=mode)
            else:
                result = self.hwicap.init_reconfig_process(descriptor)
        except Exception:
            # A failed DPR leaves the partition in an unknown state (it
            # may be partially scrubbed).  Invalidate the cached name so
            # a later load of the *previous* module actually re-programs
            # instead of skipping against stale state.
            self.loaded_module = None
            self.last_reconfig = None
            raise
        if self.soc.active_module_name != name:
            raise ControllerError(
                f"after reconfiguration the RP holds "
                f"{self.soc.active_module_name!r}, expected {name!r}"
            )
        self.loaded_module = name
        self.last_reconfig = result
        return result

    # ------------------------------------------------------------------
    # acceleration: the Sec. IV-D image pipeline
    # ------------------------------------------------------------------
    def process_image(self, accelerator: str, image: np.ndarray, *,
                      src_address: Optional[int] = None,
                      dst_address: Optional[int] = None) -> tuple[np.ndarray, ExecutionTimes]:
        """Reconfigure (if needed) and run one image through the RM.

        Returns the filtered image and the Table-IV timing breakdown.
        """
        if image.dtype != np.uint8 or image.ndim != 2:
            raise ControllerError("expected a 2-D uint8 image")
        try:
            module = self.soc.module(accelerator)
        except KeyError:
            module = None  # unregistered: load_module reports it
        # the RM is built for one frame size: a smaller frame leaves S2MM
        # waiting for bytes the filter never emits, a larger one
        # overruns the RM mid-transfer
        if module is not None and image.shape != (module.frame_height,
                                                  module.frame_width):
            raise ControllerError(
                f"image is {image.shape[0]}x{image.shape[1]} (HxW) but RM "
                f"{accelerator!r} takes {module.frame_height}x"
                f"{module.frame_width} frames")
        layout = self.soc.config.layout
        # compare against None, not truthiness: an explicit address of 0
        # (or the DDR base itself when ddr_base == 0) is a valid target
        src = src_address if src_address is not None \
            else layout.ddr_base + (64 << 20)
        dst = dst_address if dst_address is not None \
            else layout.ddr_base + (80 << 20)
        reconfig = self.load_module(accelerator)
        td_us = reconfig.td_us if reconfig else 0.0
        tr_us = reconfig.tr_us if reconfig else 0.0
        self.soc.ddr_write(src, image.tobytes())
        nbytes = image.size
        tc_us = self.rvcap.run_accelerator(src, dst, nbytes, nbytes)
        out = np.frombuffer(self.soc.ddr_read(dst, nbytes), dtype=np.uint8)
        times = ExecutionTimes(accelerator=accelerator, td_us=td_us,
                               tr_us=tr_us, tc_us=tc_us)
        return out.reshape(image.shape).copy(), times
