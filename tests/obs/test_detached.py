"""Design rule 2 of docs/OBSERVABILITY.md: zero-overhead detached.

On a SoC built with nothing attached every emit site reduces to one
``obs is not None`` check, so a flow runs no function of ``repro.obs``
at all.  The test watches every Python call with ``sys.setprofile``
from the moment the SoC is built, through a Table IV row on the RV-CAP
driver in interrupt and in polling mode, an HWICAP host-driver load,
the unroll-16 HWICAP firmware on the ISS, and a churn-shaped scheduler
replay (cache evictions, admission verification, late drops and a
peak-power cap).  It counts calls, not wall time, so the rule holds
exactly on any host.
"""

import os
import sys
from collections import Counter

import repro.obs
from repro.accel import GOLDEN_FILTERS, scene_image
from repro.drivers.fileio import RmDescriptor
from repro.drivers.hwicap_driver import HwIcapDriver
from repro.drivers.manager import ReconfigurationManager
from repro.drivers.mmio import HostPort
from repro.eval.scenarios import make_test_bitstream
from repro.firmware.hwicap_fw import build_hwicap_firmware
from repro.firmware.runner import run_firmware
from repro.sched import WorkloadSpec, build_sched_soc, make_cache, synthesize
from repro.sched.scheduler import DprScheduler
from repro.soc.builder import build_soc

OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep


def obs_calls(flow) -> Counter:
    """Calls into ``repro.obs`` while ``flow`` runs, by file:function."""
    calls: Counter = Counter()

    def watch(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(OBS_DIR):
            name = os.path.basename(code.co_filename)
            calls[f"{name}:{code.co_name}"] += 1

    sys.setprofile(watch)
    try:
        flow()
    finally:
        sys.setprofile(None)
    return calls


def table4_row(mode):
    """Provision the SD card, load sobel and filter one 512x512 frame."""
    soc = build_soc()
    manager = ReconfigurationManager(soc)
    image = scene_image(512)
    base = soc.config.layout.ddr_base
    src, dst = base + (64 << 20), base + (80 << 20)

    def flow():
        manager.provision_sdcard()
        manager.init_rmodules()
        manager.load_module("sobel", mode=mode)
        soc.ddr_write(src, image.tobytes())
        manager.rvcap.run_accelerator(src, dst, image.size, image.size,
                                      mode=mode)
        expected = GOLDEN_FILTERS["sobel"](image).tobytes()
        assert soc.ddr_read(dst, image.size) == expected

    return soc, flow


def hwicap_load(firmware):
    """One small partial bitstream through the HWICAP, on the host
    driver or as the unroll-16 copy loop on the ISS."""
    soc = build_soc(with_case_study_modules=False)
    pbit = make_test_bitstream().to_bytes()
    src = soc.config.layout.ddr_base + (16 << 20)

    def flow():
        soc.ddr_write(src, pbit)
        if firmware:
            program = build_hwicap_firmware(src, len(pbit), unroll=16)
            assert run_firmware(soc, program).done
        else:
            HwIcapDriver(HostPort(soc), unroll=16).init_reconfig_process(
                RmDescriptor("load", "LOAD.PBI", src, len(pbit)))
        assert soc.icap.reconfigurations_completed == 1

    return soc, flow


def churn_replay():
    """32 modules through a 128 KiB cache arena, each placement
    verified, late requests dropped, reconfigurations held under a
    178 mW cap."""
    spec = WorkloadSpec(requests=60, arrival_rate_rps=300.0, modules=32,
                        zipf_s=0.8, frame=32, deadline_slack_us=20_000.0,
                        seed=2026)
    manager = build_sched_soc(spec.modules, frame=spec.frame)
    cache = make_cache(manager, arena_bytes=128 << 10)
    scheduler = DprScheduler(manager, cache=cache, verify=True,
                             drop_late=True, peak_power_mw=178.0,
                             power_window_us=2000.0)
    requests = synthesize(spec)

    def flow():
        scheduler.run(requests)
        assert cache.stats.evictions > 0
        assert scheduler.power_deferrals > 0

    return manager.soc, flow


def test_detached_flows_call_nothing_in_repro_obs():
    # the watch sees obs calls at all: an attached SoC makes plenty
    soc, flow = hwicap_load(firmware=False)
    soc.attach_observability()
    assert sum(obs_calls(flow).values()) > 0

    flows = {
        "table4 row, interrupt": lambda: table4_row("interrupt"),
        "table4 row, polling": lambda: table4_row("polling"),
        "hwicap host driver": lambda: hwicap_load(firmware=False),
        "hwicap firmware, unroll 16": lambda: hwicap_load(firmware=True),
        "churn-shaped scheduler replay": churn_replay,
    }
    found = {}
    for name, build in flows.items():
        soc, flow = build()
        assert soc.obs is None
        calls = obs_calls(flow)
        if calls:
            found[name] = dict(calls)
    assert not found, f"detached flows called into repro.obs: {found}"
