"""CPU substrate: P/C states, DVFS timing, power model, cores, packages."""

from repro.cpu.config import ProcessorConfig
from repro.cpu.core import Core, CoreBusyError, CoreState, Job
from repro.cpu.cstates import CState, CStateTable, default_cstates
from repro.cpu.energy import EnergyReport, PowerMeter
from repro.cpu.package import ClockDomain, Package
from repro.cpu.power import PowerMode, PowerModel, PowerModelConfig
from repro.cpu.pstates import DVFSTimingModel, PState, PStateTable

__all__ = [
    "ProcessorConfig",
    "Core",
    "CoreBusyError",
    "CoreState",
    "Job",
    "CState",
    "CStateTable",
    "default_cstates",
    "EnergyReport",
    "PowerMeter",
    "ClockDomain",
    "Package",
    "PowerMode",
    "PowerModel",
    "PowerModelConfig",
    "DVFSTimingModel",
    "PState",
    "PStateTable",
]
