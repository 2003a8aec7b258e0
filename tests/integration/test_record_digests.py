"""Golden ResultRecord digests: record bytes pinned across commits.

Each constant is the sha256 of ``canonical_json(...)`` for one small run:
a ``ResultRecord.to_json_dict()`` for the node and fleet runs, the row
dataclass for the experiment builders.  A refactor that claims to keep
records byte-identical (datapath rewrites, event-kernel changes, topology
builders) must leave all of them unchanged; a deliberate behaviour change
re-baselines them and says why.
"""

import hashlib

import pytest

from repro.analysis.attribution import AttributionSink
from repro.apps.patterns import SpikePattern
from repro.apps.workload import load_level
from repro.cluster.datacenter import DatacenterConfig
from repro.cluster.sharding import ShardedDatacenterRun
from repro.cluster.simulation import Cluster
from repro.experiments.datacenter import PRESETS
from repro.experiments.dynamics import run_pattern
from repro.experiments.percore import run_percore
from repro.experiments.related_work import run_adrenaline
from repro.harness import (
    ResultRecord,
    RunSettings,
    SweepSpec,
    canonical_json,
    config_hash,
    execute_spec,
)
from repro.sim.units import MS

GOLDEN = {
    "apache/ncap.cons/low":
        "93e584b4c2cf847aea029fb84c579455233e1346538a21a97c7b65b16ef177dd",
    "memcached/ond.idle/medium":
        "d2544347ad33026de089163a6fd27450ecbcfc5602be54df7e54c7ddb383deef",
    "observed/apache/ncap.cons/low":
        "a20c2168950086a948e5ec9ecce203342cecff818a50524bee01c5502528d125",
    "observed/memcached/ond.idle/low":
        "0f3a4336cda63b120ca558742981212795a6e8717e3d859e73aa78ce247f70d7",
    "frontend/4x2":
        "d6c2d66d9c4a2faef0d1838487ddc8faaa2972dbf5fd758ec16f2b9450c8ed0c",
    "classic/memcached/4x2":
        "a4e8e72d0caad56c0b3007a52ad71f90bbfa3996f898e16a7c2b735e8669cca9",
    "pattern/apache":
        "ae4e2994135a79f6b01d1308d273ea1c3eecfe0bf92dc462a05bb01056e72a10",
    "pattern/memcached":
        "3857e4c7dd04f953098d29ff6c8b250f920aae7d9022083a66595de75bcf1a3e",
    "adrenaline/apache":
        "d9407691c1d2b160e16921ac23cf9fe3e30ef53d5ea46f553742aa79885b1618",
    "adrenaline/memcached":
        "da757349e4478da652f4998edb077930a400fd70828e56e485f5fce7827beae4",
    "percore/apache":
        "4dd418515fc52f4142ffcbe6e05dd80a81b9dbc247276e663be0606205c0ce98",
    "percore/memcached":
        "45ed4408bba98e9c1219e9df4471f6db19a399a9b05d120d95485add297bc1db",
}


def sha(value) -> str:
    text = canonical_json(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "app,policy,load",
    [("apache", "ncap.cons", "low"), ("memcached", "ond.idle", "medium")],
)
def test_single_node_record_digest(app, policy, load):
    (spec,) = SweepSpec(
        apps=(app,), policies=(policy,), loads=(load,),
        settings=RunSettings.quick(),
    ).expand()
    assert sha(execute_spec(spec).to_json_dict()) == GOLDEN[f"{app}/{policy}/{load}"]


@pytest.mark.parametrize(
    "app,policy,load",
    [("apache", "ncap.cons", "low"), ("memcached", "ond.idle", "low")],
)
def test_observed_node_record_digest(app, policy, load):
    """Every observer on: attribution, audit, energy and the recorder."""
    (spec,) = SweepSpec(
        apps=(app,), policies=(policy,), loads=(load,),
        settings=RunSettings.quick(),
    ).expand()
    config = spec.to_config()
    result = Cluster(
        config, sinks=[AttributionSink()], audit=True,
        energy_attribution=True, record_timeseries="coarse",
    ).run()
    record = ResultRecord.from_result(result, config_hash(config), config.seed)
    assert sha(record.to_json_dict()) == GOLDEN[f"observed/{app}/{policy}/{load}"]


def test_frontend_fleet_record_digest():
    config = PRESETS["frontend"]
    assert (config.n_servers, config.n_shards) == (4, 2)
    result = ShardedDatacenterRun(config, jobs=1).execute()
    assert sha(result.record.to_json_dict()) == GOLDEN["frontend/4x2"]


def test_classic_fleet_record_digest():
    """Per-server client pools, with the energy and recorder observers on."""
    config = DatacenterConfig(
        app="memcached", n_servers=4, n_shards=2,
        warmup_ns=10 * MS, measure_ns=40 * MS, drain_ns=20 * MS,
    )
    result = ShardedDatacenterRun(
        config, jobs=1, energy_attribution=True, record_timeseries="coarse"
    ).execute()
    assert sha(result.record.to_json_dict()) == GOLDEN["classic/memcached/4x2"]


@pytest.mark.parametrize("app", ["apache", "memcached"])
def test_experiment_builder_row_digests(app):
    settings = RunSettings.quick()
    rps = load_level(app, "low").target_rps
    spike = SpikePattern(
        base_rps=rps / 2, spike_rps=rps * 2,
        spike_start_ns=settings.warmup_ns + settings.measure_ns // 2,
        spike_len_ns=settings.measure_ns // 5,
    )
    rows = {
        "pattern": run_pattern(spike, "ncap.cons", app=app, settings=settings),
        "adrenaline": run_adrenaline(app, rps, settings=settings),
        "percore": run_percore(app, rps, settings=settings),
    }
    assert {name: sha(row) for name, row in rows.items()} == {
        name: GOLDEN[f"{name}/{app}"] for name in rows
    }
