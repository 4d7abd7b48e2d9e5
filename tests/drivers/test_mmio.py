import asyncio
from unittest import mock

import pytest

from repro.drivers.mmio import HostPort
from repro.errors import BusError


class TestHostPort:
    def test_read_write_roundtrip(self, soc):
        port = HostPort(soc)
        addr = soc.config.layout.ddr_base + 0x100
        port.write64(addr, 0x1122334455667788)
        assert port.read64(addr) == 0x1122334455667788

    def test_32bit_access(self, soc):
        port = HostPort(soc)
        addr = soc.config.layout.ddr_base + 0x200
        port.write32(addr, 0xDEADBEEF)
        assert port.read32(addr) == 0xDEADBEEF

    def test_time_advances_per_access(self, soc):
        port = HostPort(soc)
        t0 = soc.sim.now
        port.read32(soc.config.layout.clint_base + 0xBFF8)
        assert soc.sim.now > t0

    def test_stores_cost_more_than_loads(self, soc):
        port = HostPort(soc)
        addr = soc.config.layout.rp_ctrl_base + 0x10
        t0 = soc.sim.now
        port.read32(addr)
        read_cost = soc.sim.now - t0
        t1 = soc.sim.now
        port.write32(addr, 0)
        write_cost = soc.sim.now - t1
        # non-posted I/O stores include the store-completion penalty
        assert write_cost > read_cost

    def test_decode_error_raises(self, soc):
        port = HostPort(soc)
        with pytest.raises(BusError):
            port.read32(0x4000_0000)

    def test_elapse(self, soc):
        port = HostPort(soc)
        t0 = soc.sim.now
        port.elapse(123)
        assert soc.sim.now == t0 + 123

    def test_wait_for_timeout(self, soc):
        port = HostPort(soc)
        with pytest.raises(BusError):
            port.wait_for(lambda: False, timeout_cycles=1000)

    def test_wait_for_event_driven(self, soc):
        port = HostPort(soc)
        flag = []
        soc.sim.schedule(500, lambda: flag.append(1))
        port.wait_for(lambda: bool(flag))
        assert soc.sim.now >= 500

    def test_access_counter(self, soc):
        port = HostPort(soc)
        port.read32(soc.config.layout.clint_base + 0xBFF8)
        port.write32(soc.config.layout.rp_ctrl_base, 0)
        assert port.accesses == 2


class TestResolvedPorts:
    """32-bit accesses take a resolved port wherever one resolves."""

    def test_clint_and_plic_registers_skip_the_plain_path(self, soc):
        layout = soc.config.layout
        port = HostPort(soc)
        with mock.patch.object(HostPort, "_issue_read",
                               side_effect=AssertionError("plain read")), \
                mock.patch.object(HostPort, "_issue_write",
                                  side_effect=AssertionError("plain write")):
            port.read32(layout.clint_base + 0xBFF8)
            port.read32(layout.clint_base + 0xBFFC)
            assert port.read32(layout.plic_base + 0x20_0004) == 0
            port.write32(layout.plic_base + 0x20_0004, 0)
        assert port.accesses == 4

    def test_unmapped_write_still_raises(self, soc):
        with pytest.raises(BusError):
            HostPort(soc).write32(0x4000_0000, 1)

    def test_replay_issues_no_plain_transactions(self):
        # before resolved ports served the CLINT mtime halves and the
        # PLIC claim/complete register, this replay made 296 plain
        # reads and 91 plain writes; the crossbar traffic is unchanged
        from repro.sched import (
            DprScheduler, WorkloadSpec, build_sched_soc, make_cache,
            synthesize,
        )
        from repro.sched.replay import _serve

        spec = WorkloadSpec(requests=40, arrival_rate_rps=2000, modules=4,
                            frame=16, deadline_slack_us=20_000.0, seed=1)
        manager = build_sched_soc(spec.modules, frame=spec.frame)
        soc = manager.soc
        obs = soc.attach_observability()
        cache = make_cache(manager, arena_bytes=1 << 18)
        plain = []
        issue_read, issue_write = HostPort._issue_read, HostPort._issue_write

        def spy_read(port, addr, nbytes):
            plain.append(("read", addr))
            return issue_read(port, addr, nbytes)

        def spy_write(port, addr, data):
            plain.append(("write", addr))
            return issue_write(port, addr, data)

        with mock.patch.multiple(HostPort, _issue_read=spy_read,
                                 _issue_write=spy_write):
            outcomes = asyncio.run(_serve(DprScheduler(manager, cache=cache),
                                          synthesize(spec)))
        assert len(outcomes) == spec.requests
        assert plain == []
        assert soc.xbar.transactions == 1027
        counter = obs.metrics.get("axi_transactions_total",
                                  {"xbar": "main_xbar"})
        assert counter is not None and counter.value == 1027
