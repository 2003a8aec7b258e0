"""Golden ResultRecord digests: record bytes pinned across commits.

Each constant is the sha256 of ``canonical_json(record.to_json_dict())``
for one small run.  A refactor that claims to keep records byte-identical
(datapath rewrites, event-kernel changes) must leave all three unchanged;
a deliberate behaviour change re-baselines them and says why.
"""

import hashlib

import pytest

from repro.cluster.sharding import ShardedDatacenterRun
from repro.experiments.datacenter import PRESETS
from repro.harness import RunSettings, SweepSpec, canonical_json, execute_spec

GOLDEN = {
    "apache/ncap.cons/low":
        "8dbf8ef0108bac94e69f35d5b33144f621a2ff6062383591605f814db665b962",
    "memcached/ond.idle/medium":
        "2862a9de9a89a2a5dc9e1fc9c6bd5192e4a0428f376550c7234a746a2ab1cbc3",
    "frontend/4x2":
        "d6c2d66d9c4a2faef0d1838487ddc8faaa2972dbf5fd758ec16f2b9450c8ed0c",
}


def sha(record) -> str:
    text = canonical_json(record.to_json_dict())
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
    assert sha(execute_spec(spec)) == GOLDEN[f"{app}/{policy}/{load}"]


def test_frontend_fleet_record_digest():
    config = PRESETS["frontend"]
    assert (config.n_servers, config.n_shards) == (4, 2)
    result = ShardedDatacenterRun(config, jobs=1).execute()
    assert sha(result.record) == GOLDEN["frontend/4x2"]
