"""Deterministic fault injectors for the simulated SoC.

Every injector *wraps* an existing component (an AXI port, a block
device, a DMA channel) instead of forking it, so the system under test
runs the exact production code paths with one surgically placed
failure.  All randomness lives in :class:`FaultPlan`, seeded once per
campaign, so a failing sweep point reproduces bit-for-bit from its
seed.

Injection points
----------------
* :class:`FaultyAxiPort` — a DDR/crossbar proxy whose Nth read or
  write byte fails the surrounding burst with SLVERR (the DMA observes
  a mid-transfer bus error);
* :class:`FaultyBlockDevice` — an SD block-device proxy failing a
  chosen ``read_block`` call (by ordinal or LBA);
* :class:`DmaResetInjector` — a simulation process that soft-resets a
  DMA channel a chosen number of cycles into its transfer;
* :func:`flip_word_bit` / :func:`truncate_at_word` — pure bitstream
  corruptions applied to the in-DDR ``.pbit`` image.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.axi.interface import AxiSlave
from repro.axi.types import AxiResp, AxiResult
from repro.core.dma import CR_RESET, DmaChannel
from repro.errors import FilesystemError
from repro.fat32.blockdev import BlockDevice
from repro.sim.kernel import Delay, Simulator


class FaultyAxiPort(AxiSlave):
    """AXI slave proxy that fails one burst at a chosen byte offset.

    Offsets are *cumulative* over all traffic seen by the proxy: with
    ``fail_read_at=4096``, the read burst containing the 4096th byte
    returns SLVERR.  With ``once=True`` (default) the injector disarms
    after firing, so a retried transfer goes through clean — exactly
    the transient-fault model the recovery path is designed for.
    ``once=False`` models a hard fault: every burst from the offset
    onward fails, so no amount of retrying gets past it.
    """

    def __init__(self, inner: AxiSlave, *,
                 fail_read_at: Optional[int] = None,
                 fail_write_at: Optional[int] = None,
                 once: bool = True) -> None:
        self.inner = inner
        self.fail_read_at = fail_read_at
        self.fail_write_at = fail_write_at
        self.once = once
        self.armed = True
        self.faults_injected = 0
        self.read_bytes = 0
        self.write_bytes = 0

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def _trip(self, threshold: Optional[int], seen: int, nbytes: int) -> bool:
        if threshold is None or not self.armed:
            return False
        if not seen <= threshold < seen + nbytes:
            return False
        self.faults_injected += 1
        if self.once:
            self.armed = False
        return True

    # ------------------------------------------------------------------
    # AxiSlave implementation: delegate, with the fault check on each
    # access (the DMA reaches these through the default resolved ports)
    # ------------------------------------------------------------------
    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        tripped = self._trip(self.fail_read_at, self.read_bytes, nbytes)
        self.read_bytes += nbytes
        if tripped:
            if not self.once:
                self.fail_read_at = self.read_bytes  # hard fault: stay down
            return AxiResult(b"", now + 1, AxiResp.SLVERR)
        return self.inner.read(addr, nbytes, now)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        tripped = self._trip(self.fail_write_at, self.write_bytes, len(data))
        self.write_bytes += len(data)
        if tripped:
            if not self.once:
                self.fail_write_at = self.write_bytes
            return AxiResult(b"", now + 1, AxiResp.SLVERR)
        return self.inner.write(addr, data, now)


def install_mem_fault(channel: DmaChannel, **kwargs) -> FaultyAxiPort:
    """Interpose a :class:`FaultyAxiPort` on a DMA channel's memory port."""
    proxy = FaultyAxiPort(channel.mem_port, **kwargs)
    channel.mem_port = proxy
    return proxy


def remove_mem_fault(channel: DmaChannel, proxy: FaultyAxiPort) -> None:
    """Undo :func:`install_mem_fault` (restores the wrapped port)."""
    if channel.mem_port is proxy:
        channel.mem_port = proxy.inner


class FaultyBlockDevice(BlockDevice):
    """Block-device proxy failing a chosen ``read_block`` call.

    ``fail_at_read`` counts calls (0 = the very first read);
    ``fail_lba`` targets one sector regardless of order.  Writes pass
    through untouched.
    """

    def __init__(self, inner: BlockDevice, *,
                 fail_at_read: Optional[int] = None,
                 fail_lba: Optional[int] = None,
                 once: bool = True) -> None:
        self.inner = inner
        self.fail_at_read = fail_at_read
        self.fail_lba = fail_lba
        self.once = once
        self.armed = True
        self.faults_injected = 0
        self.reads = 0

    @property
    def num_blocks(self) -> int:
        return self.inner.num_blocks

    def read_block(self, lba: int) -> bytes:
        ordinal = self.reads
        self.reads += 1
        hit = self.armed and (
            (self.fail_at_read is not None and ordinal == self.fail_at_read)
            or (self.fail_lba is not None and lba == self.fail_lba)
        )
        if hit:
            self.faults_injected += 1
            if self.once:
                self.armed = False
            raise FilesystemError(
                f"injected SD read failure at block {lba} "
                f"(read #{ordinal})"
            )
        return self.inner.read_block(lba)

    def write_block(self, lba: int, data: bytes) -> None:
        self.inner.write_block(lba, data)


class DmaResetInjector:
    """Soft-reset a DMA channel mid-transfer, at a deterministic point.

    A simulation process waits for the channel to go busy, sleeps
    ``delay_cycles``, and writes ``DMACR.Reset`` if the transfer is
    still in flight — modelling an external agent (watchdog, another
    core) yanking the channel out from under the driver.
    """

    def __init__(self, sim: Simulator, channel: DmaChannel,
                 delay_cycles: int) -> None:
        self.sim = sim
        self.channel = channel
        self.delay_cycles = delay_cycles
        self.fired = False
        self._armed = True
        sim.add_process(self._saboteur(), name=f"fault.reset.{channel.name}")

    def cancel(self) -> None:
        self._armed = False

    def _saboteur(self):
        while self._armed and not self.channel.busy:
            yield Delay(32)
        if self._armed:
            yield Delay(self.delay_cycles)
        if self._armed and self.channel.busy:
            self.channel.write_cr(CR_RESET)
            self.fired = True


# ----------------------------------------------------------------------
# bitstream corruptions (pure functions over the .pbit bytes)
# ----------------------------------------------------------------------
def flip_word_bit(data: bytes, word_index: int, bit: int) -> bytes:
    """Flip one bit of the ``word_index``-th big-endian config word."""
    if not 0 <= word_index < len(data) // 4:
        raise ValueError(f"word {word_index} outside the bitstream")
    if not 0 <= bit < 32:
        raise ValueError(f"bit {bit} outside a 32-bit word")
    out = bytearray(data)
    word = int.from_bytes(out[4 * word_index : 4 * word_index + 4], "big")
    word ^= 1 << bit
    out[4 * word_index : 4 * word_index + 4] = word.to_bytes(4, "big")
    return bytes(out)


def truncate_at_word(data: bytes, word_index: int) -> bytes:
    """Cut the bitstream short after ``word_index`` words."""
    if not 0 < word_index <= len(data) // 4:
        raise ValueError(f"word {word_index} outside the bitstream")
    return data[: 4 * word_index]


class FaultPlan:
    """Seeded source of injection points: one plan, one reproducible sweep."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def byte_offset(self, nbytes: int) -> int:
        """A byte offset inside the middle half of an ``nbytes`` object.

        The middle half keeps the point inside the bitstream's frame
        payload (the header and trailer are a few hundred bytes of a
        multi-hundred-KB file), so the fault lands mid-FDRI.
        """
        return self.rng.randrange(nbytes // 4, 3 * nbytes // 4)

    def word_index(self, nwords: int) -> int:
        """A word index inside the middle half of the bitstream."""
        return self.rng.randrange(max(1, nwords // 4), 3 * nwords // 4)

    def bit(self) -> int:
        return self.rng.randrange(32)

    def fraction(self, lo: float = 0.2, hi: float = 0.8) -> float:
        return self.rng.uniform(lo, hi)

    def read_ordinal(self, hi: int = 40) -> int:
        """Which SD block read to fail (early enough to always fire)."""
        return self.rng.randrange(1, hi)
