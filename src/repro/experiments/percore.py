"""Section 7 extension — per-core NCAP versus chip-wide NCAP.

The paper argues a multi-queue NIC lets NCAP retune only the target core,
improving on the chip-wide P/C-state changes its evaluation platform
forces.  This experiment runs the same workload under:

- ``ncap.cons`` — chip-wide DVFS, one NCAP engine on the single rx queue;
- ``ncap.percore`` — per-core V/F domains, one rx queue and NCAP engine
  per core, RFS-style core affinity,

and reports latency and energy side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.workload import load_level
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.experiments.common import RunSettings
from repro.harness import Runner
from repro.metrics.report import format_table

#: (row label, policy) of the two variants, in report order.
VARIANTS = (("ncap.cons (chip-wide)", "ncap.cons"), ("ncap.percore", "ncap.percore"))


@dataclass
class VariantResult:
    variant: str
    p95_ms: float
    p99_ms: float
    energy_j: float
    meets_sla: bool
    wake_posts: int


def _variant_row(
    variant: str, policy: str, app: str, target_rps: float, settings: RunSettings
) -> VariantResult:
    result = run_experiment(
        ExperimentConfig.from_settings(
            settings, app=app, policy=policy, target_rps=target_rps,
        )
    )
    stats = result.ncap_stats
    return VariantResult(
        variant=variant,
        p95_ms=result.latency.p95_ns / 1e6,
        p99_ms=result.latency.p99_ns / 1e6,
        energy_j=result.energy.energy_j,
        meets_sla=result.meets_sla,
        wake_posts=stats.get("it_high_posts", 0) + stats.get("immediate_rx_posts", 0),
    )


def run_percore(
    app: str, target_rps: float, settings: RunSettings = RunSettings.standard()
) -> VariantResult:
    """One run of the per-core NCAP server (``ncap.percore``)."""
    return _variant_row("ncap.percore", "ncap.percore", app, target_rps, settings)


def _variant_task(args) -> VariantResult:
    return _variant_row(*args)


def run(
    app: str = "memcached",
    load: str = "low",
    settings: RunSettings = RunSettings.standard(),
    jobs: Optional[int] = None,
) -> List[VariantResult]:
    """Chip-wide ncap.cons versus per-core NCAP on the same workload."""
    level = load_level(app, load)
    return Runner(jobs=jobs).map(
        _variant_task,
        [(variant, policy, app, level.target_rps, settings) for variant, policy in VARIANTS],
    )


def format_report(rows: List[VariantResult], app: str, load: str) -> str:
    return format_table(
        ["variant", "p95 (ms)", "p99 (ms)", "energy (J)", "SLA", "wake posts"],
        [
            [r.variant, round(r.p95_ms, 2), round(r.p99_ms, 2),
             round(r.energy_j, 2), "ok" if r.meets_sla else "VIOLATED",
             r.wake_posts]
            for r in rows
        ],
        title=f"Section 7 — per-core vs chip-wide NCAP ({app} @ {load})",
    )
