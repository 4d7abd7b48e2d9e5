"""Sparse memory vs a flat bytearray reference model."""

from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.sparse_memory import SparseMemory

SIZE = 1 << 16

writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SIZE - 1),
        st.binary(min_size=1, max_size=600),
    ).filter(lambda t: t[0] + len(t[1]) <= SIZE),
    min_size=1,
    max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(writes)
def test_matches_bytearray_model(operations):
    mem = SparseMemory(SIZE, page_bits=10)
    model = bytearray(SIZE)
    for addr, data in operations:
        mem.store(addr, data)
        model[addr : addr + len(data)] = data
    assert mem.load(0, SIZE) == bytes(model)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=SIZE - 8),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([1, 2, 4, 8]),
)
def test_word_helpers_consistent_with_bytes(addr, value, nbytes):
    mem = SparseMemory(SIZE)
    mem.store_word(addr, value, nbytes)
    mask = (1 << (8 * nbytes)) - 1
    assert mem.load_word(addr, nbytes) == value & mask
    assert mem.load(addr, nbytes) == (value & mask).to_bytes(nbytes, "little")


def _page_loop_store(mem, addr, data):
    """The page loop ``SparseMemory.store`` runs for a store that does
    not fit in one page: the reference for its one-page fast path."""
    nbytes = len(data)
    mem._check_range(addr, nbytes)
    pos = 0
    while pos < nbytes:
        page_idx = (addr + pos) >> mem.page_bits
        offset = (addr + pos) & (mem.page_size - 1)
        span = min(mem.page_size - offset, nbytes - pos)
        page = mem._pages.get(page_idx)
        if page is None:
            page = mem._pages[page_idx] = bytearray(mem.page_size)
        page[offset : offset + span] = data[pos : pos + span]
        pos += span


def _outcome(store, addr, data):
    try:
        store(addr, data)
    except IndexError as exc:
        return str(exc)
    return None


PAGE_BITS = 8  # 256-byte pages: short stores straddle often

stores = st.lists(
    st.tuples(
        st.integers(min_value=-4, max_value=SIZE + 4),
        st.one_of(st.binary(max_size=8), st.binary(max_size=600)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(stores)
@example([(0x310, b"")])                          # zero-length, untouched page
@example([(0x310, b"ab"), (0x320, b"cd")])        # first touch, then a hit
@example([(0x3FE, b"abcd")])                      # straddles two pages
@example([(-1, b"a"), (SIZE - 2, b"abcd"), (SIZE, b"")])  # out of range
def test_store_matches_page_loop(operations):
    """Page-straddling, first-touch, zero-length and out-of-range
    stores allocate the same pages, leave the same bytes and raise the
    same IndexError as the page loop."""
    mem = SparseMemory(SIZE, page_bits=PAGE_BITS)
    reference = SparseMemory(SIZE, page_bits=PAGE_BITS)
    for addr, data in operations:
        assert (_outcome(mem.store, addr, data)
                == _outcome(partial(_page_loop_store, reference), addr, data))
        assert mem._pages == reference._pages
