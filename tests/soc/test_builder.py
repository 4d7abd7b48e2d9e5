"""Topology checks on the assembled reference SoC."""

from repro.soc.config import MemoryLayout


class TestMemoryLayout:
    def test_cacheable_classification(self):
        layout = MemoryLayout()
        assert layout.is_cacheable(layout.ddr_base)
        assert layout.is_cacheable(layout.bootrom_base)
        assert not layout.is_cacheable(layout.hwicap_base)
        assert not layout.is_cacheable(layout.clint_base)
        assert layout.is_mmio(layout.dma_base)

    def test_windows_do_not_overlap(self):
        layout = MemoryLayout()
        windows = [
            (layout.bootrom_base, layout.bootrom_size),
            (layout.clint_base, layout.clint_size),
            (layout.plic_base, layout.plic_size),
            (layout.uart_base, layout.uart_size),
            (layout.spi_base, layout.spi_size),
            (layout.rp_ctrl_base, layout.rp_ctrl_size),
            (layout.dma_base, layout.dma_size),
            (layout.hwicap_base, layout.hwicap_size),
            (layout.rm_base, layout.rm_size),
            (layout.ddr_base, layout.ddr_size),
        ]
        windows.sort()
        for (base_a, size_a), (base_b, _) in zip(windows, windows[1:]):
            assert base_a + size_a <= base_b


class TestBuiltSoc:
    def test_all_regions_mapped(self, soc):
        names = {region.name for region in soc.xbar.memory_map}
        assert names == {"bootrom", "clint", "plic", "uart", "spi",
                         "rp_ctrl", "dma", "hwicap", "rm", "ddr"}

    def test_mmio_reads_route(self, soc):
        layout = soc.config.layout
        # RP control version register through the converter chain
        from repro.core.rp_control import VERSION_OFFSET
        result = soc.xbar.read(layout.rp_ctrl_base + VERSION_OFFSET, 4, now=0)
        from repro.core.rp_control import RpControlInterface
        assert result.ok and result.value() == RpControlInterface.VERSION

    def test_ddr_reachable_from_both_crossbars(self, soc):
        layout = soc.config.layout
        soc.xbar.write(layout.ddr_base, b"mainbus!", now=0)
        result = soc.dma_xbar.read(layout.ddr_base, 8, now=100)
        assert result.data == b"mainbus!"

    def test_case_study_modules_registered(self, soc):
        assert soc.registered_modules == ["gaussian", "median", "sobel"]

    def test_bare_soc_has_no_modules(self, bare_soc):
        assert bare_soc.registered_modules == []

    def test_dma_irq_reaches_plic(self, soc):
        from repro.soc.config import IRQ_DMA_MM2S
        soc.rvcap.dma.mm2s.irq_callback()
        soc.sim.run()
        assert soc.plic.pending & (1 << IRQ_DMA_MM2S)

    def test_reset_mode_is_acceleration(self, soc):
        assert not soc.rvcap.in_reconfiguration_mode

    def test_ddr_backdoor_helpers(self, soc):
        base = soc.config.layout.ddr_base
        soc.ddr_write(base + 0x1000, b"hello")
        assert soc.ddr_read(base + 0x1000, 5) == b"hello"
