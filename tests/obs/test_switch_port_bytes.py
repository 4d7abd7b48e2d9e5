"""The AXIS switch's per-port byte counters on a serving SoC.

The switch resolves each port's accept and produce once per route, so
the counters must follow observability attached between transfers and
reselections of the switch between descriptors.
"""

import numpy as np

from repro.sched import build_sched_soc


def test_port_bytes_follow_attach_and_reselect():
    manager = build_sched_soc(2, frame=16)
    manager.init_rmodules()
    soc = manager.soc
    first, second = soc.registered_modules[:2]
    image = np.arange(256, dtype=np.uint8).reshape(16, 16)
    # detached: a reconfiguration and a frame through the RM port
    manager.process_image(first, image)
    obs = soc.attach_observability()
    manager.process_image(first, image)   # no reconfiguration
    manager.process_image(second, image)  # icap, then rm
    manager.process_image(first, image)   # icap, then rm
    counts = {port: obs.metrics.get(
                  "axis_switch_bytes_total",
                  {"switch": "rvcap_axis_switch", "port": port}).value
              for port in ("rm", "icap")}
    pbits = (manager.descriptor(second).pbit_size
             + manager.descriptor(first).pbit_size)
    # three frames in and out of the RM, two bitstreams into the ICAP
    assert counts == {"rm": 3 * 2 * image.size, "icap": pbits}
