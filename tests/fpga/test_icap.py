import numpy as np
import pytest

from repro.eval.scenarios import make_test_bitstream, small_rp
from repro.fpga.bitgen import Bitgen, BitgenOptions
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.packets import SYNC_WORD, Command, ConfigRegister, type1_write
from repro.fpga.partition import ReconfigurableModule, ResourceBudget


@pytest.fixture()
def icap():
    return Icap(ConfigMemory(KINTEX7_325T))


class TestTiming:
    def test_one_word_per_cycle(self, icap):
        done = icap.accept(b"\xFF" * 400, now=0)
        assert done == 100

    def test_back_to_back_bursts_pipeline(self, icap):
        icap.accept(b"\xFF" * 64, now=0)
        done = icap.accept(b"\xFF" * 64, now=0)
        assert done == 32

    def test_gap_resets_busy(self, icap):
        icap.accept(b"\xFF" * 64, now=0)     # busy until 16
        done = icap.accept(b"\xFF" * 64, now=100)
        assert done == 116


class TestConfiguration:
    def test_full_bitstream_configures_frames(self, icap):
        rp = small_rp()
        bs = make_test_bitstream(rp)
        icap.accept(bs.to_bytes(), now=0)
        assert not icap.error
        assert icap.reconfigurations_completed == 1
        assert icap.config_memory.frames_written == rp.frames

    def test_frame_contents_land_at_far(self, icap):
        rp = small_rp()
        gen = Bitgen()
        module = ReconfigurableModule("m", ResourceBudget(1, 1, 0, 0))
        payload = gen.frame_payload(rp, module)
        icap.accept(gen.generate(rp, module).to_bytes(), now=0)
        stored = icap.config_memory.read_frames(rp.base_far, rp.frames)
        assert np.array_equal(stored, payload)

    def test_split_delivery_across_bursts(self, icap):
        """Bytes arrive in arbitrary chunk sizes (DMA bursts)."""
        bs = make_test_bitstream().to_bytes()
        t = 0
        for i in range(0, len(bs), 999):  # deliberately word-misaligned
            t = icap.accept(bs[i:i + 999], t)
        assert not icap.error
        assert icap.reconfigurations_completed == 1

    def test_two_consecutive_reconfigurations(self, icap):
        rp = small_rp()
        gen = Bitgen()
        a = gen.generate(rp, ReconfigurableModule("a", ResourceBudget(1, 1, 0, 0)))
        b = gen.generate(rp, ReconfigurableModule("b", ResourceBudget(1, 1, 0, 0)))
        t = icap.accept(a.to_bytes(), now=0)
        icap.accept(b.to_bytes(), now=t)
        assert icap.reconfigurations_completed == 2
        assert not icap.error
        stored = icap.config_memory.read_frames(rp.base_far, rp.frames)
        assert np.array_equal(stored, gen.frame_payload(
            rp, ReconfigurableModule("b", ResourceBudget(1, 1, 0, 0))))


class TestErrorPaths:
    def test_crc_corruption_detected_and_blocks_completion(self):
        cm = ConfigMemory(KINTEX7_325T)
        icap = Icap(cm)
        rp = small_rp()
        gen = Bitgen(options=BitgenOptions(corrupt_crc=True))
        module = ReconfigurableModule("m", ResourceBudget(1, 1, 0, 0))
        icap.accept(gen.generate(rp, module).to_bytes(), now=0)
        assert icap.crc_error
        assert icap.reconfigurations_completed == 0

    def test_crc_check_can_be_disabled(self):
        cm = ConfigMemory(KINTEX7_325T)
        icap = Icap(cm, crc_check=False)
        gen = Bitgen(options=BitgenOptions(corrupt_crc=True))
        module = ReconfigurableModule("m", ResourceBudget(1, 1, 0, 0))
        icap.accept(gen.generate(small_rp(), module).to_bytes(), now=0)
        assert not icap.crc_error
        assert icap.reconfigurations_completed == 1

    def test_idcode_mismatch_flagged(self, icap):
        from repro.fpga.device import FpgaDevice
        wrong_device = FpgaDevice(name="xc7a35t", idcode=0x362D093)
        gen = Bitgen(wrong_device)
        module = ReconfigurableModule("m", ResourceBudget(1, 1, 0, 0))
        icap.accept(gen.generate(small_rp(), module).to_bytes(), now=0)
        assert icap.idcode_mismatch
        assert icap.error

    def test_garbage_before_sync_is_ignored(self, icap):
        icap.accept(b"\x12\x34\x56\x78" * 16, now=0)
        assert not icap.error  # desynced devices ignore noise

    def test_reset_clears_errors(self, icap):
        gen = Bitgen(options=BitgenOptions(corrupt_crc=True))
        module = ReconfigurableModule("m", ResourceBudget(1, 1, 0, 0))
        icap.accept(gen.generate(small_rp(), module).to_bytes(), now=0)
        assert icap.error
        icap.reset()
        assert not icap.error

    def test_completion_callback_fires(self, icap):
        calls = []
        icap.on_complete = lambda: calls.append(True)
        icap.accept(make_test_bitstream().to_bytes(), now=0)
        assert calls == [True]

    @staticmethod
    def _words_after_sync():
        words = np.frombuffer(make_test_bitstream().to_bytes(), ">u4").copy()
        return words, int(np.nonzero(words == SYNC_WORD)[0][0]) + 1

    def test_reserved_cmd_code_acts_as_null(self, icap):
        words, start = self._words_after_sync()
        assert words[start + 1] == type1_write(ConfigRegister.CMD, 1)
        bs = np.insert(words, start + 1,
                       [type1_write(ConfigRegister.CMD, 1), 0x13])
        icap.accept(bs.astype(">u4").tobytes(), now=0)
        assert not icap.error
        assert icap.reconfigurations_completed == 1

    def test_grown_cmd_count_fails_crc_without_raising(self, icap):
        # a flip of bit 2 in the RCRC header makes its payload swallow
        # the IDCODE header and value; the IDCODE value's low five bits
        # are a reserved command code
        words, start = self._words_after_sync()
        words[start + 1] ^= 1 << 2
        assert words[start + 6] & 0x1F not in set(Command)
        icap.accept(words.astype(">u4").tobytes(), now=0)
        assert icap.crc_error
        assert icap.reconfigurations_completed == 0
        assert icap.config_memory.frames_written == 0

    def test_desync_ends_its_packet_however_the_stream_is_split(self):
        # the words after a DESYNC in a three-word CMD packet are not
        # register writes: the desynced device looks for the sync word
        tail = [SYNC_WORD, type1_write(ConfigRegister.CMD, 3),
                int(Command.DESYNC), int(Command.DESYNC), SYNC_WORD]
        data = (make_test_bitstream().to_bytes()
                + np.array(tail, dtype=">u4").tobytes())
        outcomes = []
        for chunk in (4, 128, len(data)):
            icap = Icap(ConfigMemory(KINTEX7_325T))
            for start in range(0, len(data), chunk):
                icap.accept(data[start:start + chunk], now=0)
            outcomes.append((icap.desynced_count,
                             icap.reconfigurations_completed, icap.error,
                             icap._state, icap._payload_remaining))
        assert outcomes[0][:3] == (2, 2, False)
        assert outcomes == [outcomes[0]] * 3

    def test_commit_guard_blocks(self, icap):
        icap.commit_guard = lambda far, frames: False
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            icap.accept(make_test_bitstream().to_bytes(), now=0)


class TestResetSemantics:
    def test_reset_clears_readback_queue_and_far(self, icap):
        icap.accept(make_test_bitstream().to_bytes(), now=0)
        icap.readback_queue.extend([1, 2, 3])
        assert icap.far is not None
        icap.reset()
        assert icap.readback_queue == []
        assert icap.far is None

    def test_reset_drops_staged_frames(self, icap):
        """Frames staged mid-session must not leak past a reset."""
        from repro.fpga.packets import ConfigRegister, type1_write
        rp = small_rp()
        data = make_test_bitstream(rp).to_bytes()
        # feed everything up to (but excluding) the CRC check word:
        # the frame payload is staged, unproven
        cut = data.rindex(int(type1_write(ConfigRegister.CRC, 1))
                          .to_bytes(4, "big"))
        icap.accept(data[:cut], now=0)
        assert icap.pending_frames > 0
        icap.reset()
        assert icap.pending_frames == 0
        assert icap.config_memory.frames_written == 0

    def test_session_after_reset_is_clean(self, icap):
        rp = small_rp()
        data = make_test_bitstream(rp).to_bytes()
        icap.accept(data[: len(data) // 2], now=0)  # abort mid-payload
        icap.reset()
        t = icap.accept(data, now=10_000)
        assert not icap.error
        assert icap.reconfigurations_completed == 1
        assert icap.config_memory.frames_written == rp.frames
        assert t > 10_000


class TestStagedCommits:
    """Safe-DPR: frame writes apply only once the bitstream proves itself."""

    def test_corrupt_crc_leaves_config_memory_unchanged(self):
        cm = ConfigMemory(KINTEX7_325T)
        icap = Icap(cm)
        gen = Bitgen(options=BitgenOptions(corrupt_crc=True))
        module = ReconfigurableModule("m", ResourceBudget(1, 1, 0, 0))
        rp = small_rp()
        before = cm.read_frames(rp.base_far, rp.frames).copy()
        icap.accept(gen.generate(rp, module).to_bytes(), now=0)
        assert icap.crc_error
        assert cm.frames_written == 0
        assert np.array_equal(cm.read_frames(rp.base_far, rp.frames), before)

    def test_valid_bitstream_applies_on_crc_match(self, icap):
        rp = small_rp()
        icap.accept(make_test_bitstream(rp).to_bytes(), now=0)
        assert icap.pending_frames == 0
        assert icap.config_memory.frames_written == rp.frames

    def test_guard_sees_full_frame_count_before_partial_check(self, icap):
        """Protocol check precedes the guard: a truncated frame count
        must flag protocol_error without consulting the guard."""
        seen = []
        icap.commit_guard = lambda far, frames: seen.append(frames) or True
        from repro.fpga.packets import (
            ConfigRegister, DUMMY_WORD, NOOP_WORD, SYNC_WORD,
            type1_write,
        )
        wpf = icap.config_memory.device.words_per_frame
        far_word = 0
        words = [DUMMY_WORD, SYNC_WORD, NOOP_WORD,
                 type1_write(ConfigRegister.FAR, 1), far_word,
                 type1_write(ConfigRegister.FDRI, wpf // 2)]
        words += [0] * (wpf // 2)  # half a frame: protocol violation
        icap.accept(np.array(words, dtype=np.uint32).astype(">u4").tobytes(),
                    now=0)
        assert icap.protocol_error
        assert seen == []  # the guard was never consulted


class TestReadPackets:
    def test_stat_read_reports_done(self, icap):
        """A STAT register read through the port (UG470 status poll)."""
        import numpy as np
        from repro.fpga.packets import (
            DUMMY_WORD, NOOP_WORD, SYNC_WORD, type1_read,
        )
        from repro.fpga.packets import ConfigRegister
        words = np.array([DUMMY_WORD, SYNC_WORD, NOOP_WORD,
                          type1_read(ConfigRegister.STAT, 1)],
                         dtype=np.uint32)
        icap.accept(words.astype(">u4").tobytes(), now=0)
        assert icap.pop_readback(4) == [1 << 12]  # DONE-ish, no error

    def test_fdro_without_far_is_protocol_error(self, icap):
        import numpy as np
        from repro.fpga.packets import (
            DUMMY_WORD, NOOP_WORD, SYNC_WORD, type1_read,
        )
        from repro.fpga.packets import ConfigRegister
        words = np.array([DUMMY_WORD, SYNC_WORD, NOOP_WORD,
                          type1_read(ConfigRegister.FDRO, 101)],
                         dtype=np.uint32)
        icap.accept(words.astype(">u4").tobytes(), now=0)
        assert icap.protocol_error

    def test_pop_readback_drains_in_order(self, icap):
        icap.readback_queue.extend([1, 2, 3, 4, 5])
        assert icap.pop_readback(2) == [1, 2]
        assert icap.pop_readback(10) == [3, 4, 5]
        assert icap.pop_readback(1) == []


class TestSessionWords:
    """A session span's ``words`` counts its sync word through its
    DESYNC command word (through the reset, when aborted)."""

    @staticmethod
    def _session_words(data, chunk, *, reset_after=None):
        from repro.obs import Observability

        icap = Icap(ConfigMemory(KINTEX7_325T))
        obs = Observability()
        icap.attach_obs(obs)
        end = len(data) if reset_after is None else reset_after
        for start in range(0, end, chunk):
            icap.accept(data[start:min(start + chunk, end)], 0)
        if reset_after is not None:
            icap.reset()
        return [span.args["words"] for span in obs.tracer.find("icap", "session")]

    def test_words_do_not_depend_on_how_the_stream_arrives(self):
        data = make_test_bitstream().to_bytes()
        words = np.frombuffer(data, dtype=">u4")
        sync = int(np.flatnonzero(words == SYNC_WORD)[0])
        [desync] = [i + 1 for i in np.flatnonzero(
            words[:-1] == type1_write(ConfigRegister.CMD, 1))
            if words[i + 1] == Command.DESYNC]
        # keyhole words, DMA bursts, large chunks, one accept for both
        for chunk in (4, 128, 4096, 2 * len(data)):
            assert self._session_words(data + data, chunk) == [
                desync - sync + 1] * 2

    def test_aborted_session_counts_through_the_reset(self):
        data = make_test_bitstream().to_bytes()
        sync = int(np.flatnonzero(
            np.frombuffer(data, dtype=">u4") == SYNC_WORD)[0])
        assert self._session_words(data, 128, reset_after=4096) == [
            4096 // 4 - sync]
