"""Discrete-event simulation kernel.

Time is measured in integer *cycles* of the SoC main clock (100 MHz in
the paper's reference configuration).  Components interact either via
scheduled callbacks (:meth:`Simulator.schedule`) or generator-based
processes (:meth:`Simulator.add_process`) that ``yield`` wait conditions.
"""

from repro.sim.event import Event
from repro.sim.kernel import Delay, Simulator, WaitEvent
from repro.sim.clock import Clock, DerivedClock

__all__ = [
    "Event",
    "Simulator",
    "Delay",
    "WaitEvent",
    "Clock",
    "DerivedClock",
]
