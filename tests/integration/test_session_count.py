"""A configuration session counts as a reconfiguration only when it
ends without error and committed at least one frame.

``Icap.reconfigurations_completed`` is what both drivers check to call a
transfer a success, and what fires ``Icap.on_complete`` (the SoC's
module activation).  A session that reaches DESYNC cleanly but wrote
nothing — a header corruption that swallowed the frame packets, or a
readback — must move neither.
"""

import numpy as np
import pytest

from repro.drivers.fileio import RmDescriptor
from repro.drivers.hwicap_driver import readback_request
from repro.drivers.manager import ReconfigurationManager
from repro.errors import ControllerError
from repro.eval.scenarios import make_test_bitstream, small_rp
from repro.faults.injectors import flip_word_bit
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.packets import Command, ConfigRegister, type1_write
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.soc.builder import build_soc


def _header_flip_bitstream() -> bytes:
    """A partial bitstream with bit 5 of its RCRC command's header
    flipped: the CMD packet grows to 33 words, which swallow the packets
    behind it and one of which reads as DESYNC, so the session ends with
    no error latched and no frame committed."""
    rp = ReconfigurablePartition(
        "prop_rp", RpGeometry(1, 1, 1),
        ResourceBudget(10**6, 10**6, 10**3, 10**3))
    module = ReconfigurableModule("prop_rm", ResourceBudget(1, 1, 0, 0))
    data = Bitgen(rp.device).generate(rp, module).to_bytes()
    return flip_word_bit(data, int(0.001 * (len(data) // 4 - 1)), 5)


def _counting_icap():
    icap = Icap(ConfigMemory(KINTEX7_325T))
    fired = []
    icap.on_complete = lambda: fired.append(icap.desynced_count)
    return icap, fired


class TestIcapSessionCount:
    def test_a_session_that_commits_no_frame_does_not_count(self):
        icap, fired = _counting_icap()
        icap.accept(_header_flip_bitstream(), now=0)
        assert icap.desynced_count == 1 and not icap.error
        assert icap.config_memory.frames_written == 0
        assert icap.reconfigurations_completed == 0
        assert fired == []

    def test_a_readback_session_leaves_the_count_alone(self):
        rp = small_rp()
        icap, fired = _counting_icap()
        icap.accept(make_test_bitstream(rp).to_bytes(), now=0)
        assert icap.reconfigurations_completed == 1 and fired == [1]
        words = 2 * KINTEX7_325T.words_per_frame
        request = [*readback_request(rp.base_far, words),
                   type1_write(ConfigRegister.CMD, 1), int(Command.DESYNC)]
        icap.accept(np.array(request, dtype=">u4").tobytes(), now=0)
        assert icap.desynced_count == 2 and not icap.error
        assert len(icap.readback_queue) == words  # the read was served
        assert icap.reconfigurations_completed == 1
        assert fired == [1]


@pytest.mark.parametrize("controller", ["rvcap", "hwicap"])
def test_both_drivers_reject_a_session_that_commits_no_frame(controller):
    soc = build_soc()
    manager = ReconfigurationManager(soc)
    data = _header_flip_bitstream()
    src = soc.config.layout.ddr_base + (100 << 20)
    soc.ddr_write(src, data)
    descriptor = RmDescriptor("flipped", "F.PBI", src, len(data))
    driver = manager.rvcap if controller == "rvcap" else manager.hwicap
    with pytest.raises(ControllerError):
        driver.init_reconfig_process(descriptor)
    assert soc.icap.desynced_count == 1 and not soc.icap.error
    assert soc.icap.reconfigurations_completed == 0
    assert soc.active_module_name is None
