"""End-to-end and per-layer metrics from a workload's measured passes.

Every function returns ``{name: (value, unit)}``.  Simulated counts come
from the records' public outputs (``counters``, ``ncap_stats``,
``cstate_entries``, ``energy_attribution``); host times come from the
benchmark's own clocks and the ledger's spans.  "Per req" divides by the
``app.responses`` counter summed over the workload's runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

from ledger import LAYERS, Ledger
from workloads import RunOutcome

Metrics = Dict[str, Tuple[float, str]]


def end_to_end(
    first: Sequence[RunOutcome],
    walls: Sequence[Sequence[float]],
    setup_s: float,
    peak_rss_mb: float,
) -> Metrics:
    """``first`` is the first pass; ``walls`` every pass's per-run
    reference seconds; ``setup_s`` in reference seconds too.  ``wall_s``
    sums each run's median over the passes; ``sim_p99_sla_ratio`` is the
    mean over runs of p99 / SLA."""
    wall = sum(statistics.median(column) for column in zip(*walls))
    records = [o.record for o in first]
    responses = sum(r.responses_received for r in records)
    sent = sum(r.requests_sent for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "sim_req_per_s": (responses / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_j_per_req": (sum(r.energy_j for r in records) / responses, "J"),
        "sim_p99_sla_ratio": (statistics.mean(r.p99_ns / r.sla_ns for r in records), "ratio"),
        "sim_answered_frac": (responses / sent, "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    outcomes: Sequence[RunOutcome],
    untraced_wall_s: float,
    light: Ledger,
    full: Ledger,
    traced_wall_s: float,
    json_s: float,
) -> Metrics:
    """Per-layer metrics of one workload.

    ``outcomes`` is the untraced pass; ``light`` the ledger of a pass with
    entry-point spans only (host times of builds, merges and records);
    ``full`` the ledger of the fully traced pass, which took
    ``traced_wall_s``; ``json_s`` the host seconds spent serializing the
    records for their digests.
    """
    records = [o.record for o in outcomes]
    counters: Dict[str, float] = {}
    for record in records:
        for key, value in record.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    responses = counters["app.responses"]
    runs = len(records)

    def per_req(value: float) -> float:
        return value / responses

    out: Metrics = {}
    calls = full.layer_calls()
    for layer in LAYERS:
        out[f"{layer}.self_us_per_req"] = (per_req(full.self_s[layer]) * 1e6, "us")
        out[f"{layer}.calls_per_req"] = (per_req(calls[layer]), "count")

    events = light.sim_counts["events"]
    cancelled = light.sim_counts["cancelled_pops"] + light.sim_counts["cancelled_unlinked"]
    _, run_s = light.span_total("Simulator.run")
    out["sim.events_per_req"] = (per_req(events), "count")
    out["sim.cancelled_frac"] = (_ratio(cancelled, events), "ratio")
    out["sim.events_per_s"] = (_ratio(events, run_s), "1/s")

    c = counters.get
    out["net.frames_per_req"] = (per_req(c("nic.rx.frames", 0) + c("nic.tx.frames", 0)), "count")
    out["net.tx_bytes_per_req"] = (per_req(c("nic.tx.bytes", 0)), "B")
    out["net.rx_drop_frac"] = (_ratio(c("nic.rx.dropped_frames", 0), c("nic.rx.frames", 0)), "ratio")
    out["net.frames_per_hardirq"] = (
        _ratio(c("nic.rx.delivered_frames", 0), c("irq.hardirqs", 0)), "count")

    out["oskernel.idle_entries_per_req"] = (per_req(c("cpuidle.entries", 0)), "count")
    out["oskernel.menu_selections_per_req"] = (per_req(c("governor.menu.selections", 0)), "count")
    out["oskernel.ondemand_invocations_per_req"] = (
        per_req(c("governor.ondemand.invocations", 0)), "count")
    out["oskernel.softirqs_per_req"] = (per_req(c("irq.softirqs", 0)), "count")
    grades = {"above": 0, "below": 0, "hit": 0}
    for record in records:
        for per_core in record.energy_attribution.get("decisions", {}).values():
            for counts in per_core.values():
                for verdict in grades:
                    grades[verdict] += counts.get(verdict, 0)
    out["oskernel.idle_miss_frac"] = (
        _ratio(grades["above"] + grades["below"], sum(grades.values())), "ratio")

    out["cpu.pstate_transitions_per_req"] = (per_req(c("cpu.pstate.transitions", 0)), "count")
    out["cpu.cstate_entries_per_req"] = (
        per_req(sum(sum(r.cstate_entries.values()) for r in records)), "count")

    posts = sum(
        r.ncap_stats.get(k, 0)
        for r in records
        for k in ("it_high_posts", "it_low_posts", "immediate_rx_posts")
    )
    out["core.inspected_per_req"] = (per_req(c("ncap.inspected", 0)), "count")
    out["core.posts_per_req"] = (per_req(posts), "count")
    out["core.menu_suppressed_per_req"] = (per_req(c("cpuidle.suppressed", 0)), "count")

    out["apps.ignored_frac"] = (_ratio(c("app.ignored", 0), c("app.requests", 0)), "ratio")

    _, build_s = light.span_total("Cluster.__init__")
    _, fleet_build_s = light.span_total("ShardedDatacenterRun.__init__")
    n_merges, merge_s = light.span_total("build_fleet_record")
    n_advances, _ = light.span_total("ShardRun.advance")
    shard_walls = [o.shard_wall_s for o in outcomes if o.shard_wall_s]
    fleet_wall = sum(o.wall_s for o in outcomes if o.shard_wall_s)
    n_shards = sum(len(w) for w in shard_walls)
    out["cluster.build_s"] = ((build_s + fleet_build_s) / runs, "s")
    out["cluster.windows"] = (_ratio(n_advances, n_shards), "count")
    out["cluster.coordinator_share"] = (
        _ratio(fleet_wall - sum(sum(w) for w in shard_walls), fleet_wall), "ratio")
    out["cluster.shard_imbalance"] = (
        _ratio(sum(max(w) for w in shard_walls),
               sum(statistics.mean(w) for w in shard_walls)), "ratio")
    out["cluster.merge_s"] = (_ratio(merge_s, n_merges), "s")

    emits = full.calls.get("repro.telemetry.probes.ProbePoint.emit", 0)
    out["telemetry.probe_emits_per_req"] = (per_req(emits), "count")

    _, from_result_s = light.span_total("ResultRecord.from_result")
    out["harness.record_ms_per_run"] = ((from_result_s + json_s) / runs * 1e3, "ms")

    out["trace.overhead_x"] = (traced_wall_s / untraced_wall_s, "ratio")
    out["trace.uncovered_share"] = (
        (traced_wall_s - full.covered_s) / traced_wall_s, "ratio")
    return out
