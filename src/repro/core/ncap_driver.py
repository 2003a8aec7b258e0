"""Enhanced NIC-driver interrupt handler (Figure 5(d) of the paper).

Registered as an ``icr_hooks`` entry on the baseline :class:`NICDriver`,
so it runs in hardirq context with the freshly read ICR bits:

- ``IT_HIGH``: call the cpufreq fast path to raise F to the maximum,
  disable the menu governor (no short C-state dips during the burst), hold
  the ondemand governor for one invocation period, and wake sleeping cores
  so the wake-up overlaps the in-flight packet delivery;
- ``IT_LOW``: re-enable the menu governor on the first IT_LOW after a
  boost, then step F toward the minimum according to FCONS (1 = jump to
  minimum, 5 = five graded steps).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import NCAPConfig
from repro.net.interrupts import ICR
from repro.oskernel.cpufreq import CpufreqDriver, OndemandGovernor
from repro.oskernel.cpuidle import CpuidleDriver


class NCAPDriverExtension:
    """The kernel half of NCAP for one clock domain.

    ``cpufreq`` drives the domain; IT_HIGH wakes that domain's cores.
    """

    def __init__(
        self,
        config: NCAPConfig,
        cpufreq: CpufreqDriver,
        cpuidle: Optional[CpuidleDriver] = None,
        ondemand: Optional[OndemandGovernor] = None,
    ):
        self.config = config
        self._cpufreq = cpufreq
        self._cpuidle = cpuidle
        self._ondemand = ondemand
        self._cores = cpufreq.package.cores

        self._steps_remaining = config.fcons
        self._menu_reenabled = True
        self.high_handled = 0
        self.low_handled = 0

    def on_icr(self, bits: int) -> None:
        """Hardirq-context hook (wired into ``NICDriver.icr_hooks``)."""
        if bits & ICR.IT_HIGH:
            self._handle_high()
        elif bits & ICR.IT_LOW:
            self._handle_low()

    def _handle_high(self) -> None:
        self.high_handled += 1
        self._cpufreq.boost_to_max()
        if self._cpuidle is not None:
            self._cpuidle.disable()
            self._menu_reenabled = False
        if self._ondemand is not None:
            self._ondemand.hold()  # one invocation period (Section 4.3)
        for core in self._cores:
            core.wake()
        self._steps_remaining = self.config.fcons

    def _handle_low(self) -> None:
        self.low_handled += 1
        if not self._menu_reenabled and self._cpuidle is not None:
            self._cpuidle.enable()
            self._menu_reenabled = True
        self._cpufreq.step_down(self._steps_remaining)
        self._steps_remaining = max(1, self._steps_remaining - 1)
