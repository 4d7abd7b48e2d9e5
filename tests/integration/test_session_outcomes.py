"""Every ICAP session ends with exactly one outcome, and a load succeeds
only when the session its own transfer opened ended ``configured``.

The outcome is the ``icap/session`` span's status, and only
``configured`` moves ``Icap.reconfigurations_completed``.  The serving
platform's small RP keeps every load here quick on both controllers.
"""

import numpy as np
import pytest

from repro.errors import ControllerError
from repro.faults.injectors import flip_word_bit
from repro.fpga.packets import (
    Command,
    ConfigRegister,
    DUMMY_WORD,
    NOOP_WORD,
    SYNC_WORD,
    type1_write,
)
from repro.sched import build_sched_soc


def _platform(controller="rvcap"):
    manager = build_sched_soc(2, frame=16, controller=controller)
    manager.init_rmodules()
    return manager


def _corrupt(manager, name, word, bit):
    """Flip one bit of ``name``'s bitstream in DDR (-1 = middle word)."""
    soc = manager.soc
    d = manager.descriptor(name)
    raw = soc.ddr_read(d.start_address, d.pbit_size)
    if word == -1:
        word = len(raw) // 8
    soc.ddr_write(d.start_address, flip_word_bit(raw, word, bit))


def _sync_index(manager, name):
    d = manager.descriptor(name)
    raw = manager.soc.ddr_read(d.start_address, d.pbit_size)
    words = np.frombuffer(raw, dtype=">u4")
    return int(np.nonzero(words == SYNC_WORD)[0][0])


def _configure(manager):
    assert manager.load_module("rm0") is not None


def _read_back(manager):
    manager.hwicap.read_frames(manager.soc.rp.base_far, 2)


def _sync_then_desync(manager):
    words = [DUMMY_WORD, SYNC_WORD, NOOP_WORD,
             type1_write(ConfigRegister.CMD, 1), int(Command.DESYNC),
             NOOP_WORD]
    soc = manager.soc
    soc.icap.accept(np.array(words, dtype=">u4").tobytes(), soc.sim.now)


def _crc_flip(manager):
    _corrupt(manager, "rm0", -1, 3)
    with pytest.raises(ControllerError, match="CRC check failed"):
        manager.load_module("rm0")


def _reset_mid_payload(manager):
    soc = manager.soc
    d = manager.descriptor("rm0")
    raw = soc.ddr_read(d.start_address, d.pbit_size)
    soc.icap.accept(raw[:len(raw) // 8 * 4], soc.sim.now)
    soc.icap.reset()


@pytest.mark.parametrize("outcome,drive", [
    ("configured", _configure),
    ("readback", _read_back),
    ("empty", _sync_then_desync),
    ("error", _crc_flip),
    ("aborted", _reset_mid_payload),
])
def test_each_outcome_is_the_span_status(outcome, drive):
    manager = _platform()
    soc = manager.soc
    obs = soc.attach_observability()
    drive(manager)
    assert soc.icap.outcome == outcome
    [session] = obs.tracer.find("icap", "session")
    assert session.args["status"] == outcome
    assert soc.icap.sessions_opened == 1
    assert soc.icap.reconfigurations_completed == int(outcome == "configured")


@pytest.mark.parametrize("controller", ["rvcap", "hwicap"])
def test_flipped_sync_word_cannot_inherit_a_configured_session(controller):
    manager = _platform(controller)
    soc = manager.soc
    assert manager.load_module("rm0") is not None
    assert soc.icap.outcome == "configured"
    _corrupt(manager, "rm1", _sync_index(manager, "rm1"), 0)
    with pytest.raises(ControllerError, match="no configuration session"):
        manager.load_module("rm1")
    assert soc.icap.sessions_opened == 1
    assert soc.active_module(0) == "rm0"
    assert not soc.rvcap.rp_control.decoupled
