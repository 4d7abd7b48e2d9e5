"""The fused MMIO port against the plain crossbar transaction.

:mod:`repro.axi.fastpath` emits one closure per 32-bit register access
that must reproduce the plain ``AxiCrossbar.read``/``write``
transaction exactly.  These properties drive random sequences of
32-bit reads and writes to every declared register of the CLINT, PLIC,
UART, SPI (reads only: the fuser refuses SPI writes), RP control, DMA
and HWICAP on twin SoCs: one issues each access through its cached
fused port, the other through the plain transaction.  The fused twin
also interleaves plain accesses.  Issue gaps of 0-6 cycles are shorter
than a round trip, so accesses overlap and queue at the crossbar
region.  Optional clock advances let CLINT timer events and PLIC
interrupt latches fire between them.

The reference SoC gives every AXI4-Lite converter one crossbar region,
and a region holds each access until its converter has let go, so no
access ever waits at the converter itself.  The twins therefore map
each converter chain a second time at an alias window: an access
through the alias can arrive while the converter still serves the
primary window, which exercises the converter's serialization too.

After every access the twins must agree on the value returned, the
completion cycle, the crossbar's watermarks and transaction count,
every converter's watermark, every bank's register storage,
``AxiHwIcap._now``, the interrupt lines and, with observability
attached, the whole metrics snapshot.  Writes that need set-up are left
out: DMA LENGTH and DMACR (they launch or reset transfers) and
RM_SELECT values other than 0 (the reference SoC has one partition).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.fastpath import fuse_read_port, fuse_write_port
from repro.axi.memory_map import Region
from repro.axi.protocol_converter import Axi4ToLiteConverter
from repro.axi.types import AxiResp
from repro.axi.width_converter import AxiWidthConverter
from repro.core import dma as dr
from repro.core import hwicap as hw
from repro.core import rp_control as rc
from repro.soc import clint as cl
from repro.soc import spi
from repro.soc.builder import build_soc
from repro.soc.soc import Soc

#: the lite windows mapped a second time, and where their aliases go
_LITE = ("uart", "spi", "rp_ctrl", "dma", "hwicap")
_ALIAS_BASE = 0x3000_4000

#: DMA registers whose writes launch, stop or reset a transfer
_DMA_SETUP = (dr.MM2S_DMACR, dr.MM2S_LENGTH, dr.S2MM_DMACR, dr.S2MM_LENGTH)


class _Reg(NamedTuple):
    window: str
    offset: int
    addr: int
    writable: bool
    #: value every write is masked with (0 pins RM_SELECT to 0)
    mask: int


def _banks(soc: Soc) -> Dict[str, object]:
    return {"clint": soc.clint, "plic": soc.plic, "uart": soc.uart,
            "spi": soc.spi, "rp_ctrl": soc.rvcap.rp_control,
            "dma": soc.rvcap.dma, "hwicap": soc.hwicap}


def _twin() -> Tuple[Soc, List[Tuple[int, int, bool]]]:
    """A reference SoC with the alias windows, observability and a
    recorder on the CLINT's and PLIC's interrupt lines."""
    soc = build_soc(with_case_study_modules=False)
    for index, name in enumerate(_LITE):
        region = soc.xbar.memory_map.region_named(name)
        soc.xbar.attach(f"{name}_alias", _ALIAS_BASE + index * 0x1000,
                        region.size, region.slave)
    soc.attach_observability()
    lines: List[Tuple[int, int, bool]] = []

    def set_mip(bit: int, value: bool) -> None:
        lines.append((soc.sim.now, bit, value))

    soc.clint.connect_hart(set_mip)
    soc.plic.connect_hart(set_mip)
    return soc, lines


def _registers() -> List[_Reg]:
    soc, _lines = _twin()
    regs = []
    for region in soc.xbar.memory_map:
        name = region.name.removesuffix("_alias")
        bank = _banks(soc).get(name)
        if bank is None:
            continue
        for offset in bank.register_offsets():  # type: ignore[attr-defined]
            writable = name != "spi" and not (
                name == "dma" and offset in _DMA_SETUP)
            mask = (0 if name == "rp_ctrl" and offset == rc.RM_SELECT_OFFSET
                    else 0xFFFF_FFFF)
            regs.append(_Reg(region.name, offset, region.base + offset,
                             writable, mask))
    return regs


REGISTERS = _registers()


def _converter(region: Region) -> Tuple[Optional[Axi4ToLiteConverter], int]:
    """The region's AXI4-Lite converter and the entry delay to it."""
    slave, entry = region.slave, 0
    while isinstance(slave, (AxiWidthConverter, Axi4ToLiteConverter)):
        entry += slave.stage_latency
        if isinstance(slave, Axi4ToLiteConverter):
            return slave, entry
        slave = slave.inner
    return None, 0


def _observe(soc: Soc, lines: List[Tuple[int, int, bool]]) -> dict:
    xbar = soc.xbar
    protos = {r.name: _converter(r)[0] for r in xbar.memory_map}
    return {
        "now": soc.sim.now,
        "transactions": xbar.transactions,
        "regions": {r.name: xbar._busy_until.get(id(r))
                    for r in xbar.memory_map},
        "converters": {name: proto._busy_until
                       for name, proto in protos.items() if proto is not None},
        "storage": {name: dict(bank._storage)  # type: ignore[attr-defined]
                    for name, bank in _banks(soc).items()},
        "hwicap_now": soc.hwicap._now,
        "fifo": tuple(soc.hwicap._fifo),
        "lines": tuple(lines),
        "metrics": soc.obs.metrics.snapshot(),
    }


class _Step(NamedTuple):
    #: "fused", "plain" (a plain access on the fused twin too) or "irq"
    kind: str
    reg: int
    write: bool
    value: int
    gap: int
    advance: int


#: register index by (window, offset), and each register's twin in the
#: primary or alias window (None for the CLINT and the PLIC)
_INDEX = {(r.window, r.offset): i for i, r in enumerate(REGISTERS)}
_TWIN = [_INDEX.get((r.window.removesuffix("_alias") if r.window.endswith(
    "_alias") else f"{r.window}_alias", r.offset)) for r in REGISTERS]


@st.composite
def _sequences(draw: st.DrawFn) -> List[_Step]:
    """Up to 40 steps over a working set of a few registers, each maybe
    with its alias twin, so accesses meet at regions and converters."""
    pool = set(draw(st.lists(st.integers(0, len(REGISTERS) - 1),
                             min_size=1, max_size=3)))
    for reg in list(pool):
        if _TWIN[reg] is not None and draw(st.integers(0, 2)):
            pool.add(_TWIN[reg])
    step = st.builds(
        _Step,
        kind=st.sampled_from(("fused", "fused", "fused", "plain", "irq")),
        reg=st.sampled_from(sorted(pool)),
        write=st.booleans(),
        value=st.one_of(st.integers(0, 15), st.integers(0, 2**32 - 1)),
        gap=st.one_of(st.just(0), st.integers(0, 6)),
        advance=st.one_of(st.just(0), st.just(0), st.just(0), st.just(0),
                          st.integers(1, 400)),
    )
    return draw(st.lists(step, min_size=1, max_size=40))


def _plain(soc: Soc, addr: int, write: bool, value: int, t: int) -> tuple:
    """One plain crossbar transaction issued at ``t``."""
    if write:
        result = soc.xbar.write(addr, value.to_bytes(4, "little"), t)
        return result.resp, result.complete_at
    result = soc.xbar.read(addr, 4, t)
    return result.resp, result.value(), result.complete_at


def _run_twins(steps: List[_Step]) -> Counter:
    """Replay ``steps`` on both twins, comparing after every step.

    Returns how many accesses waited at a crossbar region and at a
    converter (counted on the plain twin before each access).
    """
    fused, fused_lines = _twin()
    plain, plain_lines = _twin()
    reads: Dict[int, object] = {}
    writes: Dict[int, object] = {}
    waits: Counter = Counter()
    t = 0
    for step in steps:
        t += step.gap + step.advance
        for soc in (fused, plain):
            soc.sim.advance_to(t)
        if step.kind == "irq":
            for soc in (fused, plain):
                soc.plic.raise_irq(1 + step.reg % 2)
            assert _observe(fused, fused_lines) == _observe(plain, plain_lines)
            continue
        reg = REGISTERS[step.reg]
        write = step.write and reg.writable
        value = step.value & reg.mask
        xbar = plain.xbar
        region = xbar.region_for(reg.addr)
        assert region is not None
        arrive = t + xbar.request_latency
        start = max(arrive, xbar._busy_until.get(id(region), 0))
        waits["region"] += start > arrive
        proto, entry = _converter(region)
        waits["converter"] += (proto is not None
                               and proto._busy_until > start + entry)
        expected = _plain(plain, reg.addr, write, value, t)
        if step.kind == "plain":
            got = _plain(fused, reg.addr, write, value, t)
        elif write:
            port = writes.get(reg.addr)
            if port is None:
                port = writes[reg.addr] = fuse_write_port(fused.xbar,
                                                          reg.addr, 4)
            assert port is not None, f"{reg.window} {reg.addr:#x} write"
            got = (AxiResp.OKAY, port(value, t))  # type: ignore[operator]
        else:
            port = reads.get(reg.addr)
            if port is None:
                port = reads[reg.addr] = fuse_read_port(fused.xbar,
                                                        reg.addr, 4)
            assert port is not None, f"{reg.window} {reg.addr:#x} read"
            got = (AxiResp.OKAY, *port(t))  # type: ignore[operator]
        assert got == expected, (step, reg)
        assert _observe(fused, fused_lines) == _observe(plain, plain_lines)
    return waits


@settings(max_examples=200, deadline=None)
@given(_sequences())
def test_fused_ports_match_the_plain_transaction(steps):
    _run_twins(steps)


def test_accesses_wait_at_the_region_and_the_converter():
    """Liveness: back-to-back accesses queue at the crossbar region,
    and one through an alias window queues at the converter the
    primary window still holds."""
    mtime = _INDEX["clint", cl.MTIME_OFFSET]
    sr = _INDEX["hwicap", hw.SR_OFFSET]
    sr_alias = _INDEX["hwicap_alias", hw.SR_OFFSET]
    steps = [
        _Step("fused", mtime, False, 0, 0, 0),
        _Step("fused", mtime, False, 0, 0, 0),
        _Step("fused", sr, False, 0, 10, 0),
        _Step("fused", sr_alias, False, 0, 0, 0),
        _Step("plain", sr, False, 0, 0, 0),
    ]
    waits = _run_twins(steps)
    assert waits["region"] >= 2
    assert waits["converter"] >= 1


def test_every_register_fuses():
    """Every drawn register fuses: the CLINT and the PLIC (no AXI4-Lite
    converter in front) as well as the lite banks behind one."""
    soc, _lines = _twin()
    windows = Counter()
    for reg in REGISTERS:
        assert fuse_read_port(soc.xbar, reg.addr, 4) is not None, reg
        if reg.writable:
            assert fuse_write_port(soc.xbar, reg.addr, 4) is not None, reg
        windows[reg.window] += 1
    assert set(windows) == {"clint", "plic", *_LITE,
                            *(f"{name}_alias" for name in _LITE)}


def test_refusals_keep_the_plain_path():
    """What the fuser refuses stays on the plain transaction, with the
    plain path's responses and errors."""
    soc, _lines = _twin()
    xbar = soc.xbar
    layout = soc.config.layout
    mtime = layout.clint_base + cl.MTIME_OFFSET
    dma_sr = layout.dma_base + dr.MM2S_DMASR
    refused = {
        "64-bit CLINT": (mtime, 8, AxiResp.OKAY),
        "64-bit DMA": (layout.dma_base + dr.MM2S_SA, 8, AxiResp.OKAY),
        "sub-word CLINT": (mtime, 2, AxiResp.SLVERR),
        "sub-word DMA": (dma_sr, 1, AxiResp.SLVERR),
        "unaligned PLIC": (layout.plic_base + 0x2002, 4, AxiResp.SLVERR),
        "unaligned DMA": (dma_sr + 2, 4, AxiResp.SLVERR),
        "unmapped": (0x4000_0000, 4, AxiResp.DECERR),
        "isolated RM port": (layout.rm_base + rc.VERSION_OFFSET, 4,
                             AxiResp.OKAY),
    }
    for name, (addr, nbytes, resp) in refused.items():
        assert fuse_read_port(xbar, addr, nbytes) is None, name
        assert fuse_write_port(xbar, addr, nbytes) is None, name
        assert xbar.read(addr, nbytes, soc.sim.now).resp is resp, name
    # SPI writes add the shift time, so only SPI reads fuse
    tx = layout.spi_base + spi.TXDATA_OFFSET
    assert fuse_write_port(xbar, tx, 4) is None
    assert fuse_read_port(xbar, tx, 4) is not None
    # the RM port answers zeros while decoupled: its behaviour changes
    # at run time, so it must stay on the plain path
    rm_version = layout.rm_base + rc.VERSION_OFFSET
    assert xbar.read(rm_version, 4, 0).value() == rc.RpControlInterface.VERSION
    soc.rvcap.rp_control._write_decouple(1)
    assert xbar.read(rm_version, 4, 0).value() == 0
