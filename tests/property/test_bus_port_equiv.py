"""Every data-path layer's resolved port against the plain bodies.

A burst is timed once per layer, in the layer's resolved port: the
crossbar's arbitration closure per region and direction, the DDR port's
read, write and timing-only bodies, the stream switch's accept and
produce ports (see :mod:`repro.axi.interface`).  The plain methods are
thin wrappers over them.  :mod:`tests.property.bus_oracle` keeps the
per-call bodies the ports replaced.

The properties build twin fabrics from the production classes: a main
crossbar with a DDR region, a register-bank region and a hole, over a
``DdrController`` whose two more named ports sit behind crossbars of
their own (one maps twice the memory, so its upper half answers SLVERR,
the other half of it, so the rest is a hole), and a stream switch with
a capture sink and a FIFO.  The reference twin has the oracle bound
over its plain methods and serves every step through them.  The
production twin serves each step the way the step says: a plain call,
a resolved port over a random window (a region's own closure, or a
decoding port when the window leaves one region), a timing-only fill,
the DDR's own ports, or a switch accept or produce, plain or resolved.
A memory step is a run of sequential bursts, issued back to back as a
DMA descriptor issues them or all at once, so the DDR's sequential
stream, its row entries and the crossbar's waits all occur.  The DDR
timing is random, including a capped device bandwidth, so the ports
also share the device watermark.

After every step the twins must agree on the result, every crossbar
watermark and counter, every DDR port's state, the row activations, the
byte counters, the memory contents, the register bank, the switch's
sinks and, when observability is attached, the metrics snapshot.  The
oracle must have run on the reference twin and never on the production
one.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.crossbar import AxiCrossbar
from repro.axi.interface import RegisterBank
from repro.axi.stream import CaptureSink, StreamFifo
from repro.axi.stream_switch import AxiStreamSwitch
from repro.axi.types import AxiResp, AxiResult
from repro.errors import BusError
from repro.mem.ddr import DdrController, DdrTiming
from repro.obs import Observability
from repro.sim.kernel import Simulator

from tests.property import bus_oracle

DDR_SIZE = 0x4000
DDR_BASE = 0x8000_0000
REGS_BASE = 0x1000
HOLE = 0x4000_0000
#: where the two named ports' crossbars map the DDR
XA_BASE, XA_SIZE = 0x0, 2 * DDR_SIZE
XB_BASE, XB_SIZE = 0x2_0000, DDR_SIZE // 2

#: per crossbar, the addresses worth aiming near: region starts and
#: ends, holes
ANCHORS = (
    (DDR_BASE, DDR_BASE + DDR_SIZE, REGS_BASE, REGS_BASE + 0x1000, HOLE),
    (XA_BASE, XA_BASE + DDR_SIZE, XA_BASE + XA_SIZE),
    (XB_BASE, XB_BASE + XB_SIZE, XB_BASE + DDR_SIZE),
)


class Fabric(NamedTuple):
    crossbars: Tuple[AxiCrossbar, AxiCrossbar, AxiCrossbar]
    ddr: DdrController
    regs: RegisterBank
    switch: AxiStreamSwitch
    capture: CaptureSink
    fifo: StreamFifo
    obs: Any


def _fabric(timing: DdrTiming, observed: bool) -> Fabric:
    ddr = DdrController(DDR_SIZE, timing)
    regs = RegisterBank("regs")
    for offset in range(0, 0x20, 4):
        regs.define_register(offset, reset=offset * 0x0101_0101)
    main = AxiCrossbar("main")
    main.attach("ddr", DDR_BASE, DDR_SIZE, ddr)
    main.attach("regs", REGS_BASE, 0x1000, regs)
    xa = AxiCrossbar("xa", request_latency=2)
    xa.attach("ddr", XA_BASE, XA_SIZE, ddr.port("a"))
    xb = AxiCrossbar("xb", response_latency=3)
    xb.attach("ddr", XB_BASE, XB_SIZE, ddr.port("b"))
    switch = AxiStreamSwitch()
    capture = CaptureSink(bytes_per_cycle=4)
    fifo = StreamFifo("rm", depth=512)
    switch.attach_sink("icap", capture)
    switch.attach_sink("rm", fifo)
    switch.attach_source("rm", fifo)
    obs = None
    if observed:
        obs = Observability()
        for xbar in (main, xa, xb):
            xbar.attach_obs(obs)
        switch.attach_obs(obs, Simulator())
    return Fabric((main, xa, xb), ddr, regs, switch, capture, fifo, obs)


def _observe(fabric: Fabric) -> Dict[str, Any]:
    ddr = fabric.ddr
    return {
        "crossbars": [(sorted((r.name, xbar._busy_until.get(id(r)))
                              for r in xbar.memory_map),
                       xbar.transactions, xbar.decode_errors)
                      for xbar in fabric.crossbars],
        "ports": {name: (port.busy_until, port.next_seq_addr, port.open_row)
                  for name, port in ddr._ports.items()},
        "ddr": (ddr.row_activates, ddr.bytes_read, ddr.bytes_written,
                ddr._device_free),
        "memory": {page: bytes(data)
                   for page, data in ddr.memory._pages.items()},
        "regs": dict(fabric.regs._storage),
        "switch": (fabric.switch.selected, bytes(fabric.capture.data),
                   fabric.capture._busy_until, bytes(fabric.fifo._buffer),
                   fabric.fifo._busy_until),
        "metrics": (fabric.obs.metrics.snapshot()
                    if fabric.obs is not None else None),
    }


class Step(NamedTuple):
    #: "plain", "port" or "fill" on a crossbar; "ddr", "ddr_port" or
    #: "ddr_fill" on the controller or a named port; "select",
    #: "accept" or "produce" on the switch (plain or resolved)
    kind: str
    target: int
    write: bool
    addr: int
    nbytes: int
    #: resolved window [lo, hi); None for plain calls
    window: Any
    gap: int
    fill: int
    #: memory steps: a run of ``count`` sequential bursts from ``addr``,
    #: each issued when the one before completes (``paced``, as a DMA
    #: descriptor issues them) or all at the step's cycle
    count: int = 1
    paced: bool = True


def _span(draw: st.DrawFn, anchors: Tuple[int, ...]) -> Tuple[int, int]:
    """A length and an address near one of ``anchors``, sometimes
    ending exactly there."""
    anchor = draw(st.sampled_from(anchors))
    nbytes = draw(st.sampled_from((0, 4, 8, 64, 128)) | st.integers(1, 700))
    if draw(st.booleans()):
        return max(0, anchor - nbytes), nbytes
    return max(0, anchor + draw(st.integers(-600, 600))), nbytes


@st.composite
def _steps(draw: st.DrawFn) -> Step:
    kind = draw(st.sampled_from(
        ("plain", "plain", "port", "port", "port", "fill", "ddr",
         "ddr_port", "ddr_fill", "select", "accept", "accept", "produce")))
    # same-cycle issue is the interesting case: ports meet at a busy
    # region, a busy DDR port or the shared device watermark
    gap = draw(st.sampled_from((0, 0, 0, 1, 5)) | st.integers(0, 400))
    fill = draw(st.integers(0, 255))
    write = draw(st.booleans())
    window = None
    count = draw(st.sampled_from((1, 1, 2, 5, 12)))
    if kind in ("plain", "port", "fill"):
        target = draw(st.integers(0, 2))
        addr, nbytes = _span(draw, ANCHORS[target])
        if kind != "plain":
            # a window, and a run of accesses inside it
            lo = addr
            hi = lo + draw(st.integers(1, 3 * DDR_SIZE))
            addr = draw(st.integers(lo, hi - 1))
            nbytes = draw(st.integers(1, min(hi - addr, 700)))
            count = min(count, (hi - addr) // nbytes)
            window = (lo, hi)
        if kind == "fill":
            write = False
    elif kind in ("ddr", "ddr_port", "ddr_fill"):
        target = draw(st.integers(0, 2))  # default, "a", "b"
        addr, nbytes = _span(draw, (0, DDR_SIZE // 2, DDR_SIZE))
        if kind == "ddr_fill":
            write = False
    else:
        target = draw(st.integers(0, 1))  # "icap", "rm"
        addr, nbytes, count = 0, draw(st.integers(1, 300)), 1
    return Step(kind, target, write, addr, nbytes, window, gap, fill, count,
                draw(st.booleans()))


_PORT_NAMES = ("default", "a", "b")
_SWITCH_PORTS = ("icap", "rm")


def _outcome(call: Any) -> Any:
    """What a step returns, or the bus error it raises."""
    try:
        return call()
    except BusError as exc:
        return ("BusError", str(exc))


def _reference(fabric: Fabric, step: Step, addr: int, t: int) -> Any:
    """One burst of the step at ``addr`` through the oracle: a plain
    call for every form."""
    payload = bytes([step.fill]) * step.nbytes
    if step.kind in ("plain", "port", "fill"):
        xbar = fabric.crossbars[step.target]
        if step.write:
            return xbar.write(addr, payload, t)
        result = xbar.read(addr, step.nbytes, t)
        return result.complete_at if step.kind == "fill" else result
    if step.kind in ("ddr", "ddr_port", "ddr_fill"):
        port = fabric.ddr.port(_PORT_NAMES[step.target])
        slave = fabric.ddr if step.target == 0 else port
        if step.kind == "ddr_fill":
            return bus_oracle.ddr_fill_timing(port, addr, step.nbytes, t)
        if step.write:
            return slave.write(addr, payload, t)
        return slave.read(addr, step.nbytes, t)
    return _switch_step(fabric, step, t, resolved=False)


def _production(fabric: Fabric, step: Step, addr: int, t: int,
                ports: Dict[Any, Any]) -> Any:
    """One burst of the step at ``addr``, the way the step says, on the
    production twin."""
    payload = bytes([step.fill]) * step.nbytes
    if step.kind == "plain":
        xbar = fabric.crossbars[step.target]
        if step.write:
            return xbar.write(addr, payload, t)
        return xbar.read(addr, step.nbytes, t)
    if step.kind in ("port", "fill"):
        # ports stay resolved across steps, as a DMA descriptor's do
        key = (step.kind, step.target, step.write, step.window)
        port = ports.get(key)
        if port is None:
            xbar = fabric.crossbars[step.target]
            resolve = (xbar.resolve_fill_port if step.kind == "fill"
                       else xbar.resolve_write if step.write
                       else xbar.resolve_read)
            port = ports[key] = resolve(*step.window)
        if step.kind == "fill":
            return port(addr, step.nbytes, t)[1]
        return AxiResult(*port(addr, payload if step.write
                               else step.nbytes, t))
    if step.kind in ("ddr", "ddr_port", "ddr_fill"):
        slave = (fabric.ddr if step.target == 0
                 else fabric.ddr.port(_PORT_NAMES[step.target]))
        if step.kind == "ddr":
            if step.write:
                return slave.write(addr, payload, t)
            return slave.read(addr, step.nbytes, t)
        lo, hi = 0, addr + 1
        if step.kind == "ddr_fill":
            return slave.resolve_fill_port(lo, hi)(addr, step.nbytes, t)[1]
        if step.write:
            return AxiResult(*slave.resolve_write(lo, hi)(addr, payload, t))
        return AxiResult(*slave.resolve_read(lo, hi)(addr, step.nbytes, t))
    return _switch_step(fabric, step, t, resolved=True)


def _switch_step(fabric: Fabric, step: Step, t: int, *, resolved: bool) -> Any:
    switch = fabric.switch
    if step.kind == "select":
        return _outcome(lambda: switch.select(_SWITCH_PORTS[step.target]))
    # a resolved switch step resolves on every other step, so the plain
    # wrappers run on the production twin too
    resolve = resolved and step.fill % 2 == 0
    if step.kind == "accept":
        data = bytes([step.fill]) * step.nbytes
        if resolve:
            return _outcome(lambda: switch.resolve_accept()(data, t))
        return _outcome(lambda: switch.accept(data, t))
    if resolve:
        return _outcome(lambda: switch.resolve_produce()(step.nbytes, t))
    return _outcome(lambda: switch.produce(step.nbytes, t))


def _ids(fabric: Fabric) -> set:
    return {id(fabric.ddr), *map(id, fabric.ddr._ports.values()),
            *map(id, fabric.crossbars), id(fabric.switch)}


def _run_twins(timing: DdrTiming, observed: bool, steps: List[Step]) -> None:
    reference = _fabric(timing, observed)
    production = _fabric(timing, observed)
    bus_oracle.install(reference.crossbars, reference.ddr, reference.switch)
    bus_oracle.RAN_ON.clear()
    ports: Dict[Any, Any] = {}
    t = 0
    for step in steps:
        t += step.gap
        issue = t
        for burst in range(step.count):
            addr = step.addr + burst * step.nbytes
            expected = _reference(reference, step, addr, issue)
            got = _production(production, step, addr, issue, ports)
            assert got == expected, (step, burst)
            assert _observe(production) == _observe(reference), (step, burst)
            if step.paced:
                issue = getattr(expected, "complete_at", expected)
    # liveness: the oracle served the reference twin, never production
    ran = {obj for _body, obj in bus_oracle.RAN_ON}
    assert ran <= _ids(reference)
    assert not ran & _ids(production)
    assert bus_oracle.RAN_ON or all(s.kind == "select" for s in steps)


timings = st.builds(
    DdrTiming,
    first_access_latency=st.integers(0, 30),
    row_miss_penalty=st.integers(0, 8),
    row_bytes=st.sampled_from((256, 1024, 8192)),
    bytes_per_beat=st.sampled_from((4, 8)),
    device_beats_per_cycle=st.sampled_from((0, 0, 1, 2)),
)


@settings(max_examples=300, deadline=None)
@given(timings, st.booleans(), st.lists(_steps(), min_size=4, max_size=40))
def test_resolved_ports_match_the_plain_bodies(timing, observed, steps):
    _run_twins(timing, observed, steps)


def test_every_oracle_body_runs_on_the_reference_twin_only():
    """Liveness: a fixed sequence reaches every oracle body on the
    reference twin; windows resolve to region or decoding ports."""
    steps = [
        Step("plain", 0, True, DDR_BASE + 64, 128, None, 0, 7),
        Step("port", 1, False, 64, 128, (0, 4096), 3, 0),
        Step("port", 2, True, XB_BASE + XB_SIZE - 64, 128,
             (XB_BASE, XB_BASE + 2 * XB_SIZE), 1, 1),  # leaves the region
        Step("fill", 0, False, DDR_BASE + 192, 64,
             (DDR_BASE, DDR_BASE + DDR_SIZE), 2, 0),
        Step("fill", 0, False, REGS_BASE, 8, (REGS_BASE, REGS_BASE + 16),
             0, 0),
        Step("ddr_fill", 1, False, DDR_SIZE - 32, 64, None, 0, 0),
        Step("ddr_port", 2, False, 0, 64, None, 0, 0),
        Step("select", 1, False, 0, 0, None, 0, 0),
        Step("accept", 1, False, 0, 64, None, 0, 2),
        Step("produce", 1, False, 0, 32, None, 0, 3),
    ]
    _run_twins(DdrTiming(), True, steps)
    bodies = {body for body, _obj in bus_oracle.RAN_ON}
    assert bodies == {"route", "ddr_read", "ddr_write", "ddr_fill_timing",
                      "switch_accept", "switch_produce"}

    fabric = _fabric(DdrTiming(), False)
    main, xa, xb = fabric.crossbars
    # a window inside one region resolves to that region's own closure,
    # the same one on every resolve; one that leaves it decodes
    inside = main.resolve_read(DDR_BASE, DDR_BASE + 256)
    assert inside is main.resolve_read(DDR_BASE + 512, DDR_BASE + DDR_SIZE)
    assert inside is not main.resolve_read(DDR_BASE, DDR_BASE + DDR_SIZE + 1)
    assert xb.resolve_write(XB_BASE, XB_BASE + XB_SIZE + 8)(
        XB_BASE + XB_SIZE, b"x" * 8, 0)[2] is AxiResp.DECERR
    # the DDR answers past its end from any window
    assert xa.resolve_read(XA_BASE, XA_BASE + XA_SIZE)(
        DDR_SIZE, 8, 0)[2] is AxiResp.SLVERR
    # the controller's ports are objects of their own, made once
    assert fabric.ddr.port("a") is fabric.ddr.port("a")
    assert fabric.ddr.port("a") is not fabric.ddr.port("default")


def test_ports_meet_at_the_shared_device_watermark():
    """Two DDR ports issuing in one cycle on a 1-beat/cycle device: the
    second waits exactly the cycle the first holds the device, through
    the plain call, a resolved port and a crossbar's port alike."""
    timing = DdrTiming(first_access_latency=0, device_beats_per_cycle=1)
    steps = [
        Step("ddr", 0, False, 0, 8, None, 0, 0),  # holds the device 1 cycle
        Step("ddr_port", 1, True, 64, 8, None, 0, 1),  # waits for it
        Step("ddr", 2, False, 128, 8, None, 0, 0),
        Step("port", 1, False, 256, 8, (0, 512), 0, 0),
    ]
    _run_twins(timing, False, steps)
    # liveness: port "a" started a cycle late, behind the device
    fabric = _fabric(timing, False)
    ddr = fabric.ddr
    assert ddr.read(0, 8, 0).complete_at == 1
    assert ddr.port("a").resolve_write(0, 72)(64, b"x" * 8, 0)[1] == 2
