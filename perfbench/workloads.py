"""The benchmark's workloads, split by execution shape.

Each workload is a fixed list of simulation runs built from the workload
seed.  ``run_pass`` executes the whole list once, serially in this
process, through the repo's public entry points and returns one
:class:`RunOutcome` per run in list order.

- ``node_grid``: single nodes with no observers through ``run_sweep`` —
  what ``repro headline`` / ``repro pareto`` users wait for.
- ``fleet_frontend``: the ``frontend`` preset widened to tens of servers
  over several shards, executed serially by ``ShardedDatacenterRun`` —
  the only shape that reaches window coordination, the spray planner and
  the bulk rx datapath.
- ``node_observed``: single nodes with every observer attached — what
  ``repro energy`` / ``repro attribute`` run.

``scale="tiny"`` shrinks every run to a few simulated milliseconds for
the benchmark's own tests; the full scale is what ``run.py`` measures.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.analysis.attribution import AttributionSink
from repro.cluster.sharding import ShardedDatacenterRun
from repro.cluster.simulation import Cluster
from repro.cpu.config import ProcessorConfig
from repro.experiments.datacenter import PRESETS
from repro.harness import ResultRecord, RunSettings, SweepSpec, config_hash, run_sweep
from repro.sim.units import MS

WORKLOADS = ("node_grid", "fleet_frontend", "node_observed")

#: Cores per modelled server (every workload uses the default processor).
CORES_PER_SERVER = ProcessorConfig().n_cores

NODE_GRID = dict(
    apps=("apache", "memcached"),
    policies=("perf", "ond.idle", "ncap.cons"),
    loads=("low", "medium"),
)
#: Low-load tails hinge on a few dozen bursts per run: one run's p99
#: moves ~25% (IQR/median) between seeds.  Three replicate seeds per
#: config average twelve such runs; five added no steadiness measurable
#: over ten workload seeds and left room for only one or two passes.
OBSERVED_REPLICATES = 3
NODE_OBSERVED = dict(
    apps=("apache", "memcached"),
    policies=("ond.idle", "ncap.cons"),
    loads=("low",),
    replicates=OBSERVED_REPLICATES,
    observers=dict(
        sinks=["AttributionSink"],
        audit=True,
        energy_attribution=True,
        record_timeseries="coarse",
    ),
)
#: ``frontend`` preset shape (memcached, po2 spray, 1 ms dispatch
#: latency) at 8x its servers, load and users.
FLEET_FRONTEND = dict(
    preset="frontend", n_servers=32, n_shards=4, total_rps=640_000.0,
    n_users=40_000,
)
TINY_FLEET = dict(
    preset="frontend", n_servers=4, n_shards=2, total_rps=80_000.0,
    n_users=5_000,
)


def settings_for(scale: str, seed: int) -> RunSettings:
    if scale == "full":
        return RunSettings.quick(seed=seed)
    if scale == "tiny":
        return RunSettings(warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=10 * MS,
                           seed=seed)
    raise ValueError(f"unknown scale {scale!r}")


@dataclass
class RunOutcome:
    """One simulation run: its record and the host seconds it took."""

    label: str
    record: ResultRecord
    wall_s: float
    measure_ns: int
    n_servers: int
    #: Per-shard ``ShardRun.advance`` wall seconds (fleet runs only).
    shard_wall_s: List[float] = field(default_factory=list)
    #: Median of the calibration samples taken between the pass's runs,
    #: when the pass was calibrated.
    calib_s: Optional[float] = None


class _Clock:
    """Host seconds of consecutive runs, with an optional calibration
    sample between runs (outside the timed intervals)."""

    def __init__(self, calibrate: Optional[Callable[[], float]]):
        self.calibrate = calibrate
        self.walls: List[float] = []
        self.calibs: List[float] = []
        self._start: Optional[float] = None

    def tick(self, *_progress) -> None:
        """Close the current run's interval (if any) and open the next."""
        now = time.perf_counter()
        if self._start is not None:
            self.walls.append(now - self._start)
        if self.calibrate is not None:
            self.calibs.append(self.calibrate())
        self._start = time.perf_counter()

    def outcome(self, i: int, label: str, record: ResultRecord, measure_ns: int,
                n_servers: int, **extra) -> RunOutcome:
        calib = statistics.median(self.calibs) if self.calibs else None
        return RunOutcome(label, record, self.walls[i], measure_ns, n_servers,
                          calib_s=calib, **extra)


@dataclass
class Workload:
    """A workload bound to a seed and scale."""

    name: str
    seed: int
    scale: str
    definition: Dict[str, object]
    #: Runs the workload once; takes an optional calibration function to
    #: sample between runs.
    run_pass: Callable[..., List[RunOutcome]]
    #: Builds the first run and simulates until ``marker`` fires as its
    #: first event (the set-up probe's end point).
    probe_first_event: Callable[[Callable[[], None]], None]
    n_runs: int

    @property
    def definition_sha(self) -> str:
        """sha256 of the seed-independent workload definition."""
        text = json.dumps(dict(self.definition, scale=self.scale),
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _spec_label(spec) -> str:
    return f"{spec.app}/{spec.policy_name}/{spec.load}/seed{spec.seed}"


def replicate_seeds(seed: int, count: int):
    """``count`` run seeds for workload seed ``seed``, disjoint from every
    other workload seed's."""
    return tuple(seed * count + j for j in range(count))


def _node_grid(seed: int, scale: str) -> Workload:
    sweep = SweepSpec(settings=settings_for(scale, seed), **NODE_GRID)
    specs = sweep.expand()
    measure_ns = sweep.settings.measure_ns

    def run_pass(calibrate=None) -> List[RunOutcome]:
        clock = _Clock(calibrate)
        clock.tick()
        records = run_sweep(specs, jobs=1, cache=None, progress=clock.tick)
        return [
            clock.outcome(i, _spec_label(spec), record, measure_ns, 1)
            for i, (spec, record) in enumerate(zip(specs, records))
        ]

    def probe(marker: Callable[[], None]) -> None:
        config = specs[0].to_config()
        config_hash(config)
        cluster = Cluster(config)
        cluster.sim.schedule_at(0, marker)
        cluster.simulate()

    return Workload("node_grid", seed, scale, NODE_GRID, run_pass, probe, len(specs))


def _node_observed(seed: int, scale: str) -> Workload:
    grid = {k: NODE_OBSERVED[k] for k in ("apps", "policies", "loads")}
    seeds = replicate_seeds(seed, NODE_OBSERVED["replicates"])
    specs = SweepSpec(settings=settings_for(scale, seed), seeds=seeds, **grid).expand()

    observers = {k: v for k, v in NODE_OBSERVED["observers"].items() if k != "sinks"}

    def build(config) -> Cluster:
        return Cluster(config, sinks=[AttributionSink()], **observers)

    def run_pass(calibrate=None) -> List[RunOutcome]:
        clock = _Clock(calibrate)
        clock.tick()
        records = []
        for spec in specs:
            config = spec.to_config()
            result = build(config).run()
            records.append(ResultRecord.from_result(result, config_hash(config), config.seed))
            clock.tick()
        return [
            clock.outcome(i, _spec_label(spec), record, spec.settings.measure_ns, 1)
            for i, (spec, record) in enumerate(zip(specs, records))
        ]

    def probe(marker: Callable[[], None]) -> None:
        cluster = build(specs[0].to_config())
        cluster.sim.schedule_at(0, marker)
        cluster.simulate()

    return Workload("node_observed", seed, scale, NODE_OBSERVED, run_pass, probe,
                    len(specs))


def _fleet_config(seed: int, scale: str):
    shape = FLEET_FRONTEND if scale == "full" else TINY_FLEET
    base = PRESETS[shape["preset"]]
    config = replace(
        base,
        n_servers=shape["n_servers"],
        n_shards=shape["n_shards"],
        total_rps=shape["total_rps"],
        seed=seed,
        frontend=replace(base.frontend, n_users=shape["n_users"]),
    )
    if scale == "tiny":
        settings = settings_for(scale, seed)
        config = replace(config, warmup_ns=settings.warmup_ns,
                         measure_ns=settings.measure_ns, drain_ns=settings.drain_ns)
    return config


def _fleet_frontend(seed: int, scale: str) -> Workload:
    config = _fleet_config(seed, scale)

    def run_pass(calibrate=None) -> List[RunOutcome]:
        clock = _Clock(calibrate)
        clock.tick()
        result = ShardedDatacenterRun(config, jobs=1).execute()
        clock.tick()
        return [clock.outcome(0, f"{config.app}/{config.policy}/fleet", result.record,
                              config.measure_ns, config.n_servers,
                              shard_wall_s=[s.wall_s for s in result.shards])]

    def probe(marker: Callable[[], None]) -> None:
        run = ShardedDatacenterRun(config, jobs=1)
        run.inline_shards()[0].sim.schedule_at(0, marker)
        run.execute()

    definition = FLEET_FRONTEND if scale == "full" else TINY_FLEET
    return Workload("fleet_frontend", seed, scale, definition, run_pass, probe, 1)


_FACTORIES = {
    "node_grid": _node_grid,
    "fleet_frontend": _fleet_frontend,
    "node_observed": _node_observed,
}


def make_workload(name: str, seed: int, scale: str = "full") -> Workload:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})"
        ) from None
    return factory(seed, scale)

