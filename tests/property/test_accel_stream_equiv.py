"""On-demand accelerator output vs the eager per-row reference.

``StreamAccelerator`` filters its output on demand: ``accept`` only
counts the rows whose input has arrived, and ``produce`` runs the
golden filter once over every ready row not yet filtered.  The
reference below is the eager model it replaced, kept here as the
oracle: it filters each row's 3-row slab as soon as the row's input
lands and queues ``(ready cycle, row bytes)`` pairs that ``produce``
splits into bursts.

The properties drive both through the same operation sequences and
require every return value and every piece of public state to agree
after every call, then swap the reference into the SoC and require the
serving replay and the Table IV flow to come out identical.
"""

from collections import Counter
from typing import Callable, List, Tuple
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ACCELERATOR_TIMINGS, GOLDEN_FILTERS, scene_image
from repro.accel.base import (
    _GOLDEN_MEMO_MAX_IMAGE,
    BYTES_PER_BEAT,
    AcceleratorTiming,
    StreamAccelerator,
)
from repro.axi.stream import StreamSink, StreamSource
from repro.errors import ControllerError
from tests.property.test_dma_engine_equiv import _replay_observe

#: the reference's own memo: its entries are row lists, so sharing the
#: production memo (whose entries are byte strings) would corrupt both
_REFERENCE_MEMO: dict = {}


class EagerStreamAccelerator(StreamSink, StreamSource):
    """The eager per-row model: filter on every accept, queue rows."""

    def __init__(
        self,
        name: str,
        golden: Callable[[np.ndarray], np.ndarray],
        timing: AcceleratorTiming,
        *,
        width: int = 512,
        height: int = 512,
    ) -> None:
        if width % BYTES_PER_BEAT:
            raise ControllerError("image width must be a multiple of 8 pixels")
        self.name = name
        self.golden = golden
        self.timing = timing
        self.width = width
        self.height = height
        self._in_bytes = bytearray()
        self._beats_consumed = 0
        self._in_busy = 0
        self._started_at: int | None = None
        #: (available_cycle, row_bytes) queue of computed output rows
        self._out_rows: List[Tuple[int, bytes]] = []
        self._rows_computed = 0
        self._out_cursor = 0
        self.images_processed = 0
        self._memo_enabled = self.image_bytes <= _GOLDEN_MEMO_MAX_IMAGE

    @property
    def image_bytes(self) -> int:
        return self.width * self.height

    @property
    def busy(self) -> bool:
        return bool(self._in_bytes) and self._rows_computed < self.height

    @property
    def busy_cycles(self) -> int:
        if self._beats_consumed == 0:
            return 0
        return (self.timing.startup_cycles
                + self.timing.cycles_for_beats(self._beats_consumed))

    def reset(self) -> None:
        self._in_bytes.clear()
        self._beats_consumed = 0
        self._in_busy = 0
        self._started_at = None
        self._out_rows.clear()
        self._rows_computed = 0
        self._out_cursor = 0

    def accept(self, data: bytes, now: int) -> int:
        if self._started_at is None:
            self._started_at = now
        if len(self._in_bytes) + len(data) > self.image_bytes:
            raise ControllerError(
                f"RM {self.name!r}: input overruns the {self.width}x"
                f"{self.height} frame"
            )
        self._in_bytes.extend(data)
        self._beats_consumed += -(-len(data) // BYTES_PER_BEAT)
        consumed_cycles = self.timing.cycles_for_beats(self._beats_consumed)
        paced = self._started_at + consumed_cycles
        self._in_busy = paced if paced > now else now
        self._compute_ready_rows()
        return self._in_busy

    def _rows_received(self) -> int:
        return len(self._in_bytes) // self.width

    def _computable_rows(self) -> int:
        received = self._rows_received()
        if received >= self.height:
            return self.height
        return max(0, received - 1)

    def _compute_ready_rows(self) -> None:
        target = self._computable_rows()
        if target <= self._rows_computed:
            return
        rows = self._rows_received()
        r0 = self._rows_computed
        r1 = target
        lo = max(0, r0 - 1)
        hi = min(rows, r1 + 1)
        slab = bytes(self._in_bytes[lo * self.width : hi * self.width])
        row_payloads: List[bytes] | None = None
        if self._memo_enabled:
            memo_key = (self.golden, self.width, r0 - lo, r1 - lo, slab)
            row_payloads = _REFERENCE_MEMO.get(memo_key)
        if row_payloads is None:
            image_slab = np.frombuffer(slab, dtype=np.uint8).reshape(
                hi - lo, self.width)
            filtered = self.golden(image_slab)
            out_rows = filtered[r0 - lo : r1 - lo]
            assert out_rows.shape[0] == r1 - r0
            row_payloads = [row.tobytes() for row in out_rows]
            if self._memo_enabled:
                if len(_REFERENCE_MEMO) >= 256:
                    _REFERENCE_MEMO.clear()
                _REFERENCE_MEMO[memo_key] = row_payloads
        out_beats_per_row = self.width // BYTES_PER_BEAT
        for k, row in enumerate(row_payloads):
            row_index = r0 + k
            needed_beats = min((row_index + 2), self.height) * out_beats_per_row
            base = self._started_at if self._started_at is not None else 0
            avail = (base + self.timing.startup_cycles
                     + self.timing.cycles_for_beats(needed_beats))
            self._out_rows.append((avail, row))
        self._rows_computed = r1
        if self._rows_computed == self.height:
            self.images_processed += 1

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        if self._out_cursor >= len(self._out_rows):
            if self._rows_computed >= self.height:
                return b"", now
            retry = now + 1
            if self._in_busy > retry:
                retry = self._in_busy
            return b"", retry
        chunks: list[bytes] = []
        t = now
        taken = 0
        while taken < nbytes and self._out_cursor < len(self._out_rows):
            avail, row = self._out_rows[self._out_cursor]
            take = min(nbytes - taken, len(row))
            if take < len(row):
                self._out_rows[self._out_cursor] = (avail, row[take:])
            else:
                self._out_cursor += 1
            chunks.append(row[:take])
            taken += take
            if avail > t:
                t = avail
        return b"".join(chunks), t


def make_reference_accelerator(behavior: str, *, width: int = 512,
                               height: int = 512) -> EagerStreamAccelerator:
    """``make_accelerator`` with the eager reference model."""
    return EagerStreamAccelerator(
        behavior, GOLDEN_FILTERS[behavior], ACCELERATOR_TIMINGS[behavior],
        width=width, height=height)


# ----------------------------------------------------------------------
# call by call
# ----------------------------------------------------------------------
FILTERS = ("gaussian", "median", "sobel", "erode")

#: 8..128-pixel rows at 1..24 rows, plus (one draw in eight) a frame
#: above the memo limit, so the un-memoized path runs too
_small_geometries = st.tuples(st.integers(1, 16).map(lambda k: 8 * k),
                              st.integers(1, 24))
geometries = st.sampled_from(range(8)).flatmap(
    lambda i: st.just((1024, 66)) if i == 7 else _small_geometries)
#: accept sizes: bytes, or whole rows ("row", n)
accept_sizes = st.one_of(
    st.sampled_from([1, 8, 64, 128]),
    st.tuples(st.just("row"), st.integers(1, 4)),
)
clock_steps = st.one_of(st.just(0), st.integers(1, 40),
                        st.integers(40, 2000))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("accept"), accept_sizes, clock_steps),
        st.tuples(st.just("produce"), st.integers(8, 512), clock_steps),
    ),
    max_size=40,
)


class _Lockstep:
    """Feeds one operation to both models and compares the results."""

    def __init__(self, ref, new, width: int) -> None:
        self.ref = ref
        self.new = new
        self.width = width
        self.now = 0

    def _state(self, rm):
        return rm.busy, rm.busy_cycles, rm.images_processed

    def _check(self, ref_out, new_out):
        assert ref_out == new_out
        assert self._state(self.ref) == self._state(self.new)
        return new_out

    def accept(self, data: bytes):
        return self._check(self.ref.accept(data, self.now),
                           self.new.accept(data, self.now))

    def produce(self, nbytes: int):
        return self._check(self.ref.produce(nbytes, self.now),
                           self.new.produce(nbytes, self.now))

    def reset(self):
        self.ref.reset()
        self.new.reset()
        self._check(None, None)

    def run_frame(self, image: bytes, ops) -> bytes:
        """Run ``ops``, then feed the rest of the frame and drain it."""
        fed = 0
        out = b""
        for kind, size, step in ops:
            self.now += step
            if kind == "produce":
                out += self.produce(size)[0]
                continue
            if not isinstance(size, int):
                size = size[1] * self.width
            if fed + size > len(image):
                # an overrun is refused by both, after both latched the
                # frame's start cycle
                for rm in (self.ref, self.new):
                    try:
                        rm.accept(bytes(size), self.now)
                    except ControllerError:
                        pass
                    else:
                        raise AssertionError("overrun accepted")
                self._check(None, None)
                continue
            self.accept(image[fed:fed + size])
            fed += size
        while fed < len(image):
            self.now += 7
            size = min(self.width + 8, len(image) - fed)
            self.accept(image[fed:fed + size])
            fed += size
            out += self.produce(96)[0]
        while True:
            self.now += 3
            data, _t = self.produce(200)
            if not data and len(out) == len(image):
                break
            out += data
        return out


@st.composite
def frames(draw):
    width, height = draw(geometries)
    pixels = draw(st.sampled_from(["random", "flat", "scene"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if pixels == "random":
        image = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    elif pixels == "flat":
        image = np.full((height, width), seed & 0xFF, dtype=np.uint8)
    else:
        image = scene_image(max(width, height))[:height, :width].copy()
    return width, height, image


class TestCallByCall:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(FILTERS),
        frames(),
        operations,
        st.sampled_from(["same", "same_image", "new"]),
        operations,
        st.integers(0, 2**16),
    )
    def test_every_call_and_state_agree(self, name, frame, ops1, second,
                                        ops2, seed2):
        width, height, image = frame
        lockstep = _Lockstep(
            make_reference_accelerator(name, width=width, height=height),
            StreamAccelerator(name, GOLDEN_FILTERS[name],
                              ACCELERATOR_TIMINGS[name],
                              width=width, height=height),
            width)
        golden = GOLDEN_FILTERS[name]
        out = lockstep.run_frame(image.tobytes(), ops1)
        assert out == golden(image).tobytes()

        # second frame: the identical replay hits the memo on small frames
        lockstep.reset()
        if second == "new":
            image = np.random.default_rng(seed2).integers(
                0, 256, size=(height, width), dtype=np.uint8)
        if second != "same":
            ops1 = ops2
        out = lockstep.run_frame(image.tobytes(), ops1)
        assert out == golden(image).tobytes()
        assert lockstep.new.images_processed == 2


# ----------------------------------------------------------------------
# end to end: the reference swapped into the SoC
# ----------------------------------------------------------------------
def _with_reference(fn):
    with mock.patch("repro.soc.soc.make_accelerator",
                    side_effect=make_reference_accelerator) as factory:
        result = fn()
    assert factory.called  # the SoC really ran the reference
    return result


class TestServingPath:
    @settings(max_examples=3, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([500.0, 2000.0, 8000.0]),
    )
    def test_replay_is_identical(self, seed, rate):
        reference = _with_reference(
            lambda: _replay_observe("descriptor", seed, rate))
        on_demand = _replay_observe("descriptor", seed, rate)
        # report dict (statuses, Td/Tr/Tc per request), ICAP busy
        # cycles, every counter and histogram bucket, and event count
        assert reference == on_demand


def _channel_state(channel):
    return {
        attr: getattr(channel, attr)
        for attr in ("status", "address", "length", "bytes_done", "busy",
                     "bursts_completed", "transfers_completed",
                     "transfers_errored", "transfers_aborted",
                     "last_start_cycle", "last_complete_cycle")
    }


TABLE4 = ("gaussian", "median", "sobel")


def _table4_observe():
    from repro.eval.scenarios import reference_setup

    soc, manager = reference_setup()
    image = scene_image(512)
    rows = []
    for name in TABLE4:
        output, times = manager.process_image(name, image)
        rows.append((name, output.tobytes(), times.td_us, times.tr_us,
                     times.tc_us))
    dma = soc.rvcap.dma
    return {
        "rows": rows,
        "mm2s": _channel_state(dma.mm2s),
        "s2mm": _channel_state(dma.s2mm),
        "now": soc.sim.now,
    }


class TestTable4Flow:
    def test_case_study_is_identical(self):
        reference = _with_reference(_table4_observe)
        calls: Counter = Counter()

        def counted(name):
            golden = GOLDEN_FILTERS[name]

            def run(image):
                calls[name] += 1
                return golden(image)
            return run

        with mock.patch.dict(GOLDEN_FILTERS,
                             {name: counted(name) for name in TABLE4}):
            on_demand = _table4_observe()
        assert reference == on_demand
        # S2MM trails the input by 6-8 rows, so one golden call covers
        # about 7 rows: ~80 calls per 512x512 frame where the eager
        # model made 511
        assert set(calls) == set(TABLE4)
        assert max(calls.values()) <= 100, calls
        image = scene_image(512)
        for name, output, *_times in on_demand["rows"]:
            assert output == GOLDEN_FILTERS[name](image).tobytes()
