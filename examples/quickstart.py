#!/usr/bin/env python3
"""Quickstart: one dynamic partial reconfiguration, end to end.

Builds the reference SoC (Ariane-class RISC-V + RV-CAP controller on a
simulated Kintex-7), provisions the SD card with partial bitstreams,
loads the Sobel filter module into the reconfigurable partition through
the full driver stack, and reports the paper's headline timings.

Run:  python examples/quickstart.py
"""

from repro import ReconfigurationManager, build_soc


def main() -> None:
    print("building the reference SoC (Fig. 1/2 topology)...")
    soc = build_soc()
    manager = ReconfigurationManager(soc)

    print("generating partial bitstreams and provisioning the SD card...")
    manager.provision_sdcard()

    print("init_RModules: loading .pbit files from FAT32 into DDR...")
    manager.init_rmodules()
    for name in soc.registered_modules:
        d = manager.descriptor(name)
        print(f"  {d.file_name}: {d.pbit_size} bytes at {d.start_address:#x}")

    print("\ninit_reconfig_process: loading 'sobel' into the RP "
          "(non-blocking DMA mode)...")
    result = manager.load_module("sobel")
    assert result is not None

    print(f"""
reconfiguration complete:
  module              {result.module}
  partial bitstream   {result.pbit_size} bytes   (paper: 650 892)
  decision time T_d   {result.td_us:.1f} us     (paper: 18)
  reconfig time T_r   {result.tr_us:.1f} us     (paper: 1651)
  throughput          {result.throughput_mb_s:.1f} MB/s   (ICAP ceiling: 400)
  active RM in RP     {soc.active_module(0)}
""")


if __name__ == "__main__":
    main()
