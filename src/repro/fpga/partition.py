"""Reconfigurable partition (RP) and module (RM) descriptors.

An RP is a floorplanned rectangle of device columns plus the resource
budget it offers to hosted modules; an RM is one synthesized function
(e.g. a Sobel filter) that fits the budget and ships as a partial
bitstream.  The reference RP reproduces the paper's configuration:
budget 3200 LUT / 6400 FF / 30 BRAM / 20 DSP (Table III) and a frame
footprint whose partial bitstream is exactly 650 892 bytes (Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BitstreamError
from repro.fpga.device import FpgaDevice, KINTEX7_325T
from repro.fpga.frames import FrameAddress


@dataclass(frozen=True)
class RpGeometry:
    """A pblock rectangle: column counts per type, spanning ``rows``."""

    clb_cols: int
    bram_cols: int
    dsp_cols: int
    rows: int = 1

    def frames(self, device: FpgaDevice) -> int:
        return device.frames_for_columns(
            self.clb_cols, self.bram_cols, self.dsp_cols, self.rows
        )

    def scaled(self, factor: int) -> "RpGeometry":
        """Grow the rectangle vertically (more clock-region rows)."""
        return RpGeometry(self.clb_cols, self.bram_cols, self.dsp_cols,
                          self.rows * factor)


@dataclass(frozen=True)
class ResourceBudget:
    """User resources an RP offers to its modules."""

    luts: int
    ffs: int
    brams: int
    dsps: int

    def fits(self, other: "ResourceBudget") -> bool:
        return (other.luts <= self.luts and other.ffs <= self.ffs
                and other.brams <= self.brams and other.dsps <= self.dsps)


@dataclass
class ReconfigurableModule:
    """One hardware function deliverable as a partial bitstream."""

    name: str
    resources: ResourceBudget
    #: key selecting the behavioural model in acceleration mode
    #: (e.g. "sobel"); None for pure-reconfiguration test modules
    behavior: Optional[str] = None
    #: frame geometry the streaming RM is built for; the case-study
    #: filters process 512x512 (Table IV), smaller tiles let the
    #: scheduler serve thousands of requests per simulated second
    frame_width: int = 512
    frame_height: int = 512

    def utilization_of(self, rp_budget: ResourceBudget) -> dict[str, float]:
        """Percent utilization of the RP budget (Table III footnote)."""
        return {
            "luts": 100.0 * self.resources.luts / rp_budget.luts,
            "ffs": 100.0 * self.resources.ffs / rp_budget.ffs,
            "brams": 100.0 * self.resources.brams / rp_budget.brams,
            "dsps": 100.0 * self.resources.dsps / rp_budget.dsps,
        }


@dataclass
class ReconfigurablePartition:
    """A floorplanned partition hosting swappable modules."""

    name: str
    geometry: RpGeometry
    budget: ResourceBudget
    base_far: FrameAddress = field(default_factory=FrameAddress)
    device: FpgaDevice = KINTEX7_325T

    @property
    def frames(self) -> int:
        return self.geometry.frames(self.device)

    @property
    def frame_words(self) -> int:
        return self.frames * self.device.words_per_frame

    def check_fits(self, module: ReconfigurableModule) -> None:
        if not self.budget.fits(module.resources):
            raise BitstreamError(
                f"module {module.name!r} does not fit RP {self.name!r}: "
                f"needs {module.resources}, budget {self.budget}"
            )

    def contains_far(self, far: FrameAddress, count: int = 1) -> bool:
        """True when [far, far+count) lies inside this partition."""
        start = far.linear_index()
        base = self.base_far.linear_index()
        return base <= start and start + count <= base + self.frames


#: The paper's reference RP (Sec. IV-A / Table III): resource budget as
#: reported, rectangle chosen so the partial bitstream is 650 892 bytes.
REFERENCE_RP_GEOMETRY = RpGeometry(clb_cols=25, bram_cols=4, dsp_cols=3, rows=1)
REFERENCE_RP_BUDGET = ResourceBudget(luts=3200, ffs=6400, brams=30, dsps=20)


def make_reference_rp(name: str = "rp0",
                      device: FpgaDevice = KINTEX7_325T) -> ReconfigurablePartition:
    """The RP used throughout the paper's evaluation."""
    return ReconfigurablePartition(
        name=name,
        geometry=REFERENCE_RP_GEOMETRY,
        budget=REFERENCE_RP_BUDGET,
        base_far=FrameAddress(block_type=0, row=1, column=10, minor=0),
        device=device,
    )
