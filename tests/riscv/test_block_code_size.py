"""Size of the block engine's generated source on the Sec. IV-B firmware.

Every compiled block is Python source held in ``_CODE_CACHE`` together
with its code object, so the generated source size drives the
simulator's peak memory (rvbench's ``peak_rss_mb``).  These bounds are
the sizes the block compiler generated before push batching and the
in-closure back-edge, measured with this test body: the compiler may
emit less, never more.
"""

from __future__ import annotations

import pytest

from repro.eval.scenarios import make_test_bitstream
from repro.firmware import build_hwicap_firmware, run_firmware
from repro.riscv import blocks
from repro.soc.builder import build_soc

UNROLLS = (1, 2, 4, 8, 16, 32)

#: total distinct generated source (characters), over all six firmwares
TOTAL_BOUND = 532_967
#: largest single generated block (characters): the 32x copy loop
LARGEST_BOUND = 158_647


@pytest.fixture(scope="module")
def generated_sizes():
    pbit = make_test_bitstream().to_bytes()
    blocks._CODE_CACHE.clear()
    for unroll in UNROLLS:
        soc = build_soc(with_case_study_modules=False)
        src = soc.config.layout.ddr_base + (16 << 20)
        soc.ddr_write(src, pbit)
        result = run_firmware(
            soc, build_hwicap_firmware(src, len(pbit), unroll=unroll))
        assert result.done
    return [len(source) for source in blocks._CODE_CACHE]


def test_total_generated_source_is_bounded(generated_sizes):
    assert sum(generated_sizes) <= TOTAL_BOUND


def test_largest_generated_block_is_bounded(generated_sizes):
    assert max(generated_sizes) <= LARGEST_BOUND
