"""Tests of the benchmark's own code, on tiny configurations.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench
from checks import check_record, digest, record_json
from ledger import LAYERS, Ledger
from metrics import end_to_end
from repro.sim.kernel import Simulator
from workloads import CORES_PER_SERVER, WORKLOADS, make_workload

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    """A tiny workload measured the way ``--trace 1`` measures it."""
    workload = make_workload(request.param, seed=3, scale="tiny")
    tally = bench.Tally()
    metrics = bench.measure_layers(workload, tally)
    return workload, tally, metrics


def test_workloads_are_declared():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_end_to_end_metric_names_are_declared():
    workload = make_workload("node_grid", seed=3, scale="tiny")
    first = workload.run_pass()
    metrics = end_to_end(first, [[o.wall_s for o in first]], 0.5, 64.0)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert all(NAME.fullmatch(k) for k in metrics)
    assert all(v > 0 for v, _ in metrics.values())


def test_per_layer_metric_names_are_declared(traced):
    _, _, metrics = traced
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert all(NAME.fullmatch(k) for k in metrics)


def test_tiny_workload_runs_correct_and_trace_keeps_digests(traced):
    workload, tally, metrics = traced
    # untraced + entry-point-traced + fully traced pass, every run checked
    # and digest-compared against the untraced pass.
    assert tally.failed == 0
    assert tally.attempted == 3 * workload.n_runs
    assert metrics["sim.events_per_req"][0] > 0
    assert metrics["trace.overhead_x"][0] > 0


def test_layer_self_times_telescope_to_traced_wall():
    workload = make_workload("fleet_frontend", seed=3, scale="tiny")
    ledger = Ledger(full=True)
    original = Simulator.__dict__["schedule"]
    ledger.install()
    try:
        assert Simulator.__dict__["schedule"] is not original
        t0 = time.perf_counter()
        workload.run_pass()
        wall = time.perf_counter() - t0
    finally:
        ledger.uninstall()
    assert Simulator.__dict__["schedule"] is original
    self_total = sum(ledger.self_s[layer] for layer in LAYERS)
    uncovered = wall - ledger.covered_s
    assert self_total == pytest.approx(ledger.covered_s, rel=1e-9)
    assert 0 <= uncovered < 0.05 * wall
    assert self_total + uncovered == pytest.approx(wall, rel=1e-9)
    # Handlers are charged to their own layers, not to the kernel.
    for layer in ("net", "cpu", "oskernel", "apps", "core", "cluster"):
        assert ledger.self_s[layer] > 0, layer


@pytest.fixture(scope="module")
def record():
    outcome = make_workload("node_grid", seed=3, scale="tiny").run_pass()[0]
    return outcome, outcome.record


def problems(outcome, rec):
    return check_record(rec, measure_ns=outcome.measure_ns,
                        cores=CORES_PER_SERVER, servers=outcome.n_servers)


def test_checker_accepts_untampered_record(record):
    assert problems(*record) == []


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: replace(r, energy_j=r.energy_j + 1e-3),
        lambda r: replace(r, incomplete=r.incomplete + 1),
        lambda r: replace(r, responses_received=0, incomplete=r.requests_sent),
        lambda r: replace(
            r, residency_ns={**r.residency_ns, "run": r.residency_ns["run"] - 1}
        ),
    ],
    ids=["energy-1mJ", "accounting", "no-responses", "residency"],
)
def test_checker_rejects_tampered_record(record, tamper):
    outcome, rec = record
    tampered = tamper(rec)
    assert problems(outcome, tampered)
    assert digest(record_json(tampered)) != digest(record_json(rec))


def test_setup_probe_reaches_first_event():
    for name in WORKLOADS:
        workload = make_workload(name, seed=3, scale="tiny")
        assert bench.probe_setup(workload) == 0


def test_refuses_directory_without_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    code = bench.main(["--workload", "node_grid", "--seed", "1", "--seconds", "1",
                       "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
