"""The power-management policies: the seven of Section 6, plus two more.

Conventional policies:

- ``perf``      — performance governor, C-states disabled;
- ``ond``       — ondemand governor, C-states disabled;
- ``perf.idle`` — performance governor + menu governor;
- ``ond.idle``  — ondemand governor + menu governor.

NCAP policies (all run *atop* ond.idle, per the paper):

- ``ncap.sw``   — software NCAP in the NIC kernel driver;
- ``ncap.cons`` — hardware NCAP, FCONS = 5 (conservative F reduction);
- ``ncap.aggr`` — hardware NCAP, FCONS = 1 (aggressive F reduction).

Beyond the paper's evaluation (``per_core``: one V/F domain and NIC rx
queue per core, with RSS steering flows to queues):

- ``ncap.percore`` — Section 7's per-core NCAP: ncap.cons with one
  hardware NCAP engine per rx queue, each retuning only its core;
- ``adrenaline``   — the Section 8 Adrenaline-style baseline
  (:mod:`repro.ext.adrenaline`): software query detection, per-query
  boosting behind fast on-chip VRs, menu C-states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

from repro.core.config import NCAPConfig


@dataclass(frozen=True)
class PolicyConfig:
    """One server power-management configuration.

    The seven named policies of the paper use the ``performance`` and
    ``ondemand`` P-state governors with the ``menu`` C-state governor;
    ``powersave`` and ``ladder`` (both described in Section 2.1) are
    supported for custom configurations and ablations.  ``per_core``
    gives every core its own V/F domain and rx queue (Section 7);
    software NCAP is chip-wide only, and the ``adrenaline`` governor
    boosts per core, so it needs ``per_core``.
    """

    name: str
    governor: str = "performance"       # "performance" | "ondemand" | "powersave" | "adrenaline"
    cstates: bool = False               # C-state governor active?
    cpuidle_governor: str = "menu"      # "menu" | "ladder"
    ncap: Optional[str] = None          # None | "hw" | "sw"
    fcons: int = 5
    per_core: bool = False              # one V/F domain + rx queue per core?

    def __post_init__(self) -> None:
        if self.governor not in ("performance", "ondemand", "powersave", "adrenaline"):
            raise ValueError(f"unknown governor {self.governor!r}")
        if self.cpuidle_governor not in ("menu", "ladder"):
            raise ValueError(f"unknown cpuidle governor {self.cpuidle_governor!r}")
        if self.ncap not in (None, "hw", "sw"):
            raise ValueError(f"unknown ncap mode {self.ncap!r}")
        if self.per_core and self.ncap == "sw":
            raise ValueError("software NCAP is chip-wide only (per_core with ncap='sw')")
        if self.governor == "adrenaline" and not self.per_core:
            raise ValueError("the adrenaline governor boosts per core; it needs per_core")

    def ncap_config(self, base: Optional[NCAPConfig] = None) -> Optional[NCAPConfig]:
        """The NCAP configuration for this policy (None when NCAP is off)."""
        if self.ncap is None:
            return None
        base = base or NCAPConfig()
        return replace(base, fcons=self.fcons)

    @property
    def uses_ncap(self) -> bool:
        return self.ncap is not None


POLICIES: Dict[str, PolicyConfig] = {
    "perf": PolicyConfig("perf", governor="performance", cstates=False),
    "ond": PolicyConfig("ond", governor="ondemand", cstates=False),
    "perf.idle": PolicyConfig("perf.idle", governor="performance", cstates=True),
    "ond.idle": PolicyConfig("ond.idle", governor="ondemand", cstates=True),
    "ncap.sw": PolicyConfig(
        "ncap.sw", governor="ondemand", cstates=True, ncap="sw", fcons=5
    ),
    "ncap.cons": PolicyConfig(
        "ncap.cons", governor="ondemand", cstates=True, ncap="hw", fcons=5
    ),
    "ncap.aggr": PolicyConfig(
        "ncap.aggr", governor="ondemand", cstates=True, ncap="hw", fcons=1
    ),
    "ncap.percore": PolicyConfig(
        "ncap.percore", governor="ondemand", cstates=True, ncap="hw", fcons=5,
        per_core=True,
    ),
    "adrenaline": PolicyConfig(
        "adrenaline", governor="adrenaline", cstates=True, per_core=True
    ),
}

#: The order the paper's figures present its seven policies in.
POLICY_ORDER = ["perf", "ond", "perf.idle", "ond.idle", "ncap.sw", "ncap.cons", "ncap.aggr"]


def get_policy(policy: Union[str, PolicyConfig]) -> PolicyConfig:
    """Resolve a policy by name (pass-through for PolicyConfig)."""
    if isinstance(policy, PolicyConfig):
        return policy
    try:
        return POLICIES[policy]
    except KeyError:
        raise KeyError(
            f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
        ) from None


def check_policy(policy: Union[str, PolicyConfig]) -> None:
    """Reject a ``policy`` config field :func:`get_policy` cannot resolve.

    Raises ``ValueError`` naming the field and the choices, so a bad
    config fails when it is built rather than when its run starts.
    """
    try:
        get_policy(policy)
    except KeyError:
        raise ValueError(
            f"policy must be one of {sorted(POLICIES)}, got {policy!r}"
        ) from None
