import numpy as np
import pytest

from repro.accel import median3x3, scene_image
from repro.core import dma as dr
from repro.errors import (
    BusError,
    ControllerError,
    ReconfigAbortError,
    ReconfigTimeoutError,
)
from repro.faults.injectors import (
    DmaResetInjector,
    install_mem_fault,
    remove_mem_fault,
)


def _stall_s2mm(soc, manager):
    """Start an S2MM transfer that no module feeds; it stays busy."""
    port = manager.port
    dma_base = soc.config.layout.dma_base
    port.write32(dma_base + dr.S2MM_DMACR, dr.CR_RS)
    port.write32(dma_base + dr.S2MM_DA,
                 (soc.config.layout.ddr_base + (80 << 20)) & 0xFFFF_FFFF)
    port.write32(dma_base + dr.S2MM_LENGTH, 4096)
    port.elapse(10_000)
    assert soc.rvcap.dma.s2mm.busy


class TestReconfiguration:
    def test_interrupt_mode_reference_timing(self, provisioned_manager_factory):
        """The headline numbers: Td = 18 us, Tr = 1651 us (Sec. IV-B)."""
        _soc, manager = provisioned_manager_factory()
        result = manager.rvcap.init_reconfig_process(
            manager.descriptor("sobel"))
        assert result.td_us == pytest.approx(18.0, abs=0.4)
        assert result.tr_us == pytest.approx(1651.0, abs=1.0)
        assert result.throughput_mb_s == pytest.approx(394.2, abs=0.5)

    def test_polling_mode_also_completes(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        result = manager.rvcap.init_reconfig_process(
            manager.descriptor("median"), mode="polling")
        assert soc.icap.reconfigurations_completed == 1
        assert result.tr_us == pytest.approx(1651.0, rel=0.02)

    def test_interrupt_mode_faster_or_equal_to_polling(
            self, provisioned_manager_factory):
        _s1, m1 = provisioned_manager_factory()
        _s2, m2 = provisioned_manager_factory()
        irq = m1.rvcap.init_reconfig_process(m1.descriptor("sobel"),
                                             mode="interrupt")
        poll = m2.rvcap.init_reconfig_process(m2.descriptor("sobel"),
                                              mode="polling")
        assert abs(irq.tr_us - poll.tr_us) / poll.tr_us < 0.05

    def test_unknown_mode_rejected(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory()
        with pytest.raises(ControllerError):
            manager.rvcap.init_reconfig_process(manager.descriptor("sobel"),
                                                mode="telepathy")

    def test_recouples_after_completion(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.rvcap.init_reconfig_process(manager.descriptor("sobel"))
        assert not soc.rvcap.rp_control.decoupled
        assert not soc.rvcap.in_reconfiguration_mode

    def test_plic_cleanly_drained(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.rvcap.init_reconfig_process(manager.descriptor("sobel"))
        assert soc.plic.pending == 0
        assert soc.plic.in_service is None

    def test_corrupt_bitstream_raises(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        before = soc.config_memory.read_frames(soc.rp.base_far,
                                               soc.rp.frames).copy()
        # flip a bit inside the frame payload in DDR
        raw = bytearray(soc.ddr_read(d.start_address, d.pbit_size))
        raw[5000] ^= 0x01
        soc.ddr_write(d.start_address, bytes(raw))
        with pytest.raises(ControllerError, match="CRC check failed"):
            manager.rvcap.init_reconfig_process(d)
        assert soc.icap.outcome == "error"
        after = soc.config_memory.read_frames(soc.rp.base_far, soc.rp.frames)
        assert np.array_equal(before, after)


class TestFailurePathRestoresState:
    """A failed DPR must never strand the RP decoupled / switch on ICAP."""

    def _assert_safe_state(self, soc):
        assert not soc.rvcap.rp_control.decoupled
        assert not soc.rvcap.in_reconfiguration_mode

    def test_icap_error_recouples(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        raw = bytearray(soc.ddr_read(d.start_address, d.pbit_size))
        raw[5000] ^= 0x01
        soc.ddr_write(d.start_address, bytes(raw))
        with pytest.raises(ControllerError):
            manager.rvcap.init_reconfig_process(d)
        self._assert_safe_state(soc)

    def test_never_desynced_recouples(self, provisioned_manager_factory):
        from dataclasses import replace
        soc, manager = provisioned_manager_factory()
        d = replace(manager.descriptor("sobel"), pbit_size=4096)
        with pytest.raises(ControllerError):
            manager.rvcap.init_reconfig_process(d)
        self._assert_safe_state(soc)

    @pytest.mark.parametrize("mode", ["interrupt", "polling"])
    def test_dma_error_recouples(self, provisioned_manager_factory, mode):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        channel = soc.rvcap.dma.mm2s
        proxy = install_mem_fault(channel, fail_read_at=d.pbit_size // 2)
        try:
            with pytest.raises(ControllerError):
                manager.rvcap.init_reconfig_process(d, mode=mode)
        finally:
            remove_mem_fault(channel, proxy)
        self._assert_safe_state(soc)
        assert channel.transfers_errored == 1

    @pytest.mark.parametrize("mode", ["interrupt", "polling"])
    def test_timeout_mid_transfer_stops_the_channel(
            self, provisioned_manager_factory, mode):
        """The deadline expires while the DMA still streams the
        bitstream: the driver stops the channel before it re-routes the
        switch, the timeout propagates, and a retry goes through."""
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        channel = soc.rvcap.dma.mm2s
        with pytest.raises(ReconfigTimeoutError):
            manager.rvcap.init_reconfig_process(d, mode=mode,
                                                timeout_us=100.0)
        self._assert_safe_state(soc)
        assert not channel.busy
        assert channel.transfers_aborted == 1
        result = manager.rvcap.recover_and_retry(d, mode=mode)
        assert soc.active_module(0) == "sobel"
        assert result.tr_us == pytest.approx(1651.0, rel=0.02)

    def test_refused_switch_recouples(self, provisioned_manager_factory):
        """A busy S2MM channel makes the switch refuse SELECT_ICAP=1
        right after the RP is decoupled; the failure path still stops
        the channels and re-couples, so the next attempt succeeds."""
        soc, manager = provisioned_manager_factory()
        _stall_s2mm(soc, manager)
        d = manager.descriptor("sobel")
        with pytest.raises(BusError, match="mid-transfer"):
            manager.rvcap.init_reconfig_process(d)
        self._assert_safe_state(soc)
        assert not soc.rvcap.dma.s2mm.busy
        manager.rvcap.init_reconfig_process(d)
        assert soc.active_module(0) == "sobel"

    def test_failed_accelerator_run_releases_the_switch(
            self, provisioned_manager_factory):
        """An MM2S error mid-run starves S2MM; the driver stops both
        channels, so the next reconfiguration and run still work."""
        soc, manager = provisioned_manager_factory()
        image = scene_image(512)
        manager.load_module("sobel")
        channel = soc.rvcap.dma.mm2s
        proxy = install_mem_fault(channel, fail_read_at=image.size // 2)
        try:
            with pytest.raises(ControllerError):
                manager.process_image("sobel", image)
        finally:
            remove_mem_fault(channel, proxy)
        assert proxy.faults_injected == 1
        assert not channel.busy
        assert not soc.rvcap.dma.s2mm.busy
        self._assert_safe_state(soc)
        out, _times = manager.process_image("median", image)
        assert soc.active_module(0) == "median"
        assert np.array_equal(out, median3x3(image))


class TestTimeoutsAndAborts:
    def test_interrupt_mode_times_out_on_silent_stall(
            self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        DmaResetInjector(soc.sim, soc.rvcap.dma.mm2s,
                         delay_cycles=d.pbit_size // 8)
        with pytest.raises(ReconfigTimeoutError):
            manager.rvcap.init_reconfig_process(d, timeout_us=3000.0)
        assert not soc.rvcap.rp_control.decoupled

    def test_polling_mode_detects_external_reset(
            self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        DmaResetInjector(soc.sim, soc.rvcap.dma.mm2s,
                         delay_cycles=d.pbit_size // 8)
        with pytest.raises(ReconfigAbortError):
            manager.rvcap.init_reconfig_process(d, mode="polling",
                                                timeout_us=3000.0)


class TestRecoverAndRetry:
    def test_recovery_after_dma_fault(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        channel = soc.rvcap.dma.mm2s
        proxy = install_mem_fault(channel, fail_read_at=d.pbit_size // 2)
        with pytest.raises(ControllerError):
            manager.rvcap.init_reconfig_process(d)
        remove_mem_fault(channel, proxy)
        result = manager.rvcap.recover_and_retry(d)
        assert soc.active_module(0) == "sobel"
        # the retried transfer hits the reference throughput again
        assert result.tr_us == pytest.approx(1651.0, abs=2.0)

    def test_transient_fault_retried_through(self,
                                             provisioned_manager_factory):
        """A once-armed fault fires during the first retry attempt;
        the second attempt goes through clean."""
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("median")
        channel = soc.rvcap.dma.mm2s
        proxy = install_mem_fault(channel, fail_read_at=d.pbit_size // 3)
        try:
            result = manager.rvcap.recover_and_retry(d, max_attempts=3)
        finally:
            remove_mem_fault(channel, proxy)
        assert proxy.faults_injected == 1
        assert result.module == "median"
        assert soc.active_module(0) == "median"

    def test_exhausted_attempts_raise_last_error(
            self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        channel = soc.rvcap.dma.mm2s
        proxy = install_mem_fault(channel, fail_read_at=0, once=False)
        try:
            with pytest.raises(ControllerError) as excinfo:
                manager.rvcap.recover_and_retry(d, max_attempts=2)
        finally:
            remove_mem_fault(channel, proxy)
        assert "after 2 attempts" in str(excinfo.value)
        assert excinfo.value.__cause__ is not None
        assert not soc.rvcap.rp_control.decoupled

    def test_abort_reconfig_idles_a_stalled_s2mm(
            self, provisioned_manager_factory):
        """An S2MM transfer with no producer holds the switch; recovery
        stops it, and the next reconfiguration goes through."""
        soc, manager = provisioned_manager_factory()
        _stall_s2mm(soc, manager)
        manager.rvcap.abort_reconfig()
        assert not soc.rvcap.dma.s2mm.busy
        manager.rvcap.init_reconfig_process(manager.descriptor("sobel"))
        assert soc.active_module(0) == "sobel"

    def test_abort_reconfig_resets_icap_parser(
            self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        # stall a transfer mid-flight, then abort
        DmaResetInjector(soc.sim, soc.rvcap.dma.mm2s,
                         delay_cycles=d.pbit_size // 8)
        with pytest.raises(ControllerError):
            manager.rvcap.init_reconfig_process(d, timeout_us=3000.0)
        assert soc.icap.words_consumed > 0
        manager.rvcap.abort_reconfig()
        assert soc.icap.pending_frames == 0
        assert not soc.icap.error
        assert soc.icap.far is None
