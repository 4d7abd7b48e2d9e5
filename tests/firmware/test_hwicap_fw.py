"""The Listing-2 firmware: the paper's AXI_HWICAP measurement vehicle."""

import pytest

from repro.errors import ControllerError
from repro.eval.scenarios import make_test_bitstream, small_rp
from repro.firmware import build_hwicap_firmware, run_firmware
from repro.soc.builder import build_soc
from repro.soc.config import SocConfig, TimingParams


@pytest.fixture(scope="module")
def pbit():
    return make_test_bitstream().to_bytes()


def _run(pbit, unroll, config=None):
    soc = build_soc(config, with_case_study_modules=False)
    src = soc.config.layout.ddr_base + (16 << 20)
    soc.ddr_write(src, pbit)
    firmware = build_hwicap_firmware(src, len(pbit), unroll=unroll)
    result = run_firmware(soc, firmware)
    return soc, result


class TestFunctional:
    def test_configures_the_fabric(self, pbit):
        soc, result = _run(pbit, unroll=16)
        assert result.done
        assert not soc.icap.error
        assert soc.icap.reconfigurations_completed == 1
        assert soc.config_memory.frames_written == small_rp().frames

    def test_couples_rp_after_transfer(self, pbit):
        soc, _result = _run(pbit, unroll=16)
        assert not soc.rvcap.rp_control.decoupled

    def test_odd_unroll_factor_handles_remainder(self, pbit):
        soc, result = _run(pbit, unroll=7)  # 1024 % 7 != 0: tail loop runs
        assert result.done and not soc.icap.error

    def test_rejects_bad_parameters(self):
        with pytest.raises(ControllerError):
            build_hwicap_firmware(0x8000_0000, 100, unroll=0)
        with pytest.raises(ControllerError):
            build_hwicap_firmware(0x8000_0000, 101)  # not word-sized


class TestPaperNumbers:
    def test_rolled_loop_near_4_16_mb_s(self, pbit):
        _soc, result = _run(pbit, unroll=1)
        mb_s = len(pbit) / (result.elapsed_us() * 1e-6) / 1e6
        assert mb_s == pytest.approx(4.16, rel=0.03)

    def test_unrolled_16_near_8_23_mb_s(self, pbit):
        _soc, result = _run(pbit, unroll=16)
        mb_s = len(pbit) / (result.elapsed_us() * 1e-6) / 1e6
        assert mb_s == pytest.approx(8.23, rel=0.03)

    def test_gain_beyond_16_below_5_percent(self, pbit):
        _s, r16 = _run(pbit, unroll=16)
        _s, r32 = _run(pbit, unroll=32)
        gain = r16.elapsed_us() / r32.elapsed_us() - 1
        assert 0 < gain < 0.05

    def test_unrolling_reduces_instruction_count(self, pbit):
        _s, r1 = _run(pbit, unroll=1)
        _s, r16 = _run(pbit, unroll=16)
        assert r16.instructions < r1.instructions


class TestTimerConversion:
    """``FirmwareResult.elapsed_us`` converts ticks with the SoC's timer."""

    @pytest.mark.parametrize("divider", [10, 40])
    def test_elapsed_us_follows_the_clint_divider(self, pbit, divider):
        config = SocConfig(timing=TimingParams(clint_divider=divider))
        soc, result = _run(pbit, unroll=16, config=config)
        ticks = result.t1_ticks - result.t0_ticks
        assert result.elapsed_us() == soc.clint.ticks_to_us(ticks)
        # the transfer's speed does not depend on the timer's resolution
        mb_s = len(pbit) / (result.elapsed_us() * 1e-6) / 1e6
        assert mb_s == pytest.approx(8.23, rel=0.03)

    def test_default_timer_value_is_unchanged(self, pbit):
        _soc, result = _run(pbit, unroll=16)
        ticks = result.t1_ticks - result.t0_ticks
        assert result.elapsed_us() == ticks * 20 / 100e6 * 1e6
