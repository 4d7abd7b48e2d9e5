#!/usr/bin/env python3
"""Safe DPR: what happens when a partial bitstream is corrupted.

Demonstrates the Di-Carlo-style safety features ([14] in the paper):
the ICAP's running CRC catches in-flight corruption, the session ends
``error`` with nothing written, the RP keeps its previous module, and
the driver's failure path resets the ICAP port so the next load needs
no manual cleanup — the RP is never left half-configured and
*believed* healthy.

Run:  python examples/safe_dpr.py
"""

from repro import ReconfigurationManager, build_soc
from repro.drivers.fileio import RmDescriptor
from repro.errors import ControllerError


def main() -> None:
    soc = build_soc()
    manager = ReconfigurationManager(soc)
    manager.provision_sdcard()
    manager.init_rmodules()

    print("1. loading a pristine 'gaussian' bitstream...")
    result = manager.load_module("gaussian")
    print(f"   ok: T_r = {result.tr_us:.0f} us, active RM = "
          f"{soc.active_module(0)}")

    print("\n2. corrupting one byte of the 'sobel' bitstream in DDR...")
    d = manager.descriptor("sobel")
    raw = bytearray(soc.ddr_read(d.start_address, d.pbit_size))
    raw[123_456] ^= 0x40
    soc.ddr_write(d.start_address, bytes(raw))

    print("3. attempting to reconfigure with the corrupted bitstream...")
    try:
        manager.rvcap.init_reconfig_process(d)
    except ControllerError as err:
        print(f"   rejected: {err}")
    print(f"   ICAP session outcome: {soc.icap.outcome}")
    print(f"   active RM after the failed DPR: {soc.active_module(0)} "
          "(the corrupted module never activated)")

    print("\n4. loading a pristine bitstream (no manual port reset)...")
    # restore the pristine image in DDR and retry
    manager.init_rmodules()
    result = manager.load_module("sobel")
    print(f"   recovered: T_r = {result.tr_us:.0f} us, active RM = "
          f"{soc.active_module(0)}")

    print("\n5. truncated bitstream (transfer ends before DESYNC)...")
    truncated = RmDescriptor("sobel", d.file_name, d.start_address,
                             d.pbit_size // 3)
    try:
        manager.rvcap.init_reconfig_process(truncated)
    except ControllerError as err:
        print(f"   rejected: {err}")
    print(f"   ICAP session outcome: {soc.icap.outcome}")
    print("\nall failure paths detected; nothing half-applied silently.")


if __name__ == "__main__":
    main()
