#!/usr/bin/env python3
"""Benchmark entry point: host cost and modelled outcomes of one workload.

    python3 perfbench/run.py --workload node_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it measures set-up
in fresh processes, then repeats the workload's runs until ``--seconds``
have passed and reports the end-to-end metrics.  With ``--trace 1`` it
runs the workload once untraced, once with entry-point spans and once
fully traced, and reports the per-layer ledger (also written to
``.perfbench_out/``).  Every run's record is checked (``checks.py``) and
digested; passes must reproduce the first pass's digests.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import calibrate, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Timed set-up probes per run (after one untimed probe that warms the
#: bytecode cache).
SETUP_PROBES = 7
#: Seeds the bounds in BENCHMARK.json were set from; later claims should
#: be rechecked on seeds outside this range.
BOUNDS_SEEDS = "1-10"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class _FirstEvent(Exception):
    pass


def probe_setup(workload) -> int:
    """Child process: build the workload's first run and print the
    ``perf_counter`` reading taken by its first simulated event."""

    def marker():
        raise _FirstEvent(time.perf_counter())

    try:
        workload.probe_first_event(marker)
    except _FirstEvent as first:
        print(repr(first.args[0]))
        return 0
    log("perfbench: the set-up probe saw no simulated event")
    return 1


def measure_setup(name: str, seed: int) -> float:
    """Median reference seconds from process start to the first simulated
    event, over fresh interpreter processes (``perf_counter`` is the
    system-wide monotonic clock, so parent and child readings compare)."""
    command = [sys.executable, str(HERE / "run.py"), "--probe-setup",
               "--workload", name, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        before = calibrate()
        t0 = time.perf_counter()
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=120)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        seconds = float(child.stdout.strip().splitlines()[-1]) - t0
        if i:
            times.append(to_reference(seconds, (before + calibrate()) / 2))
    return statistics.median(times)


def git_state():
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if head.returncode != 0:
        return "unknown", None
    return head.stdout.strip(), bool(status.stdout.strip())


def provenance(workload, trace: int):
    commit, dirty = git_state()
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": workload.seed,
        "workload_sha256": workload.definition_sha,
        "trace": trace,
        "bounds_seeds": BOUNDS_SEEDS,
    }


class Tally:
    """Operations attempted and failed, with every run's digest checked
    against the first pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.json_s = 0.0

    def check_pass(self, outcomes, tag: str) -> None:
        from checks import check_record, digest, record_json
        from workloads import CORES_PER_SERVER

        digests = []
        for o in outcomes:
            self.attempted += 1
            problems = check_record(o.record, measure_ns=o.measure_ns,
                                    cores=CORES_PER_SERVER, servers=o.n_servers)
            t0 = time.perf_counter()
            text = record_json(o.record)
            self.json_s += time.perf_counter() - t0
            digests.append(digest(text))
            if self.digests is not None and digests[-1] != self.digests[len(digests) - 1]:
                problems.append(f"{tag} digest differs from the first pass")
            if problems:
                self.failed += 1
                log(f"FAILED {o.label} ({tag}): " + "; ".join(problems))
        if self.digests is None:
            self.digests = digests
            for o, d in zip(outcomes, digests):
                print(f"run {o.label} wall_s={o.wall_s:.4f} "
                      f"responses={o.record.responses_received} "
                      f"incomplete={o.record.incomplete} sha256={d}")

    def failed_pass(self, n_runs: int, tag: str) -> None:
        self.attempted += n_runs
        self.failed += n_runs
        log(f"FAILED pass ({tag}):\n{traceback.format_exc()}")


def measure_end_to_end(workload, seconds: float, tally: Tally):
    from metrics import end_to_end

    setup_s = measure_setup(workload.name, workload.seed)
    first = None
    walls = []
    raw_walls = []
    calibs = []
    start = time.perf_counter()
    while True:
        gc.collect()
        try:
            outcomes = workload.run_pass(calibrate)
        except Exception:
            tally.failed_pass(workload.n_runs, f"pass {len(walls)}")
            break
        tally.check_pass(outcomes, f"pass {len(walls)}")
        walls.append([to_reference(o.wall_s, o.calib_s) for o in outcomes])
        raw_walls.append([o.wall_s for o in outcomes])
        calibs.extend(o.calib_s for o in outcomes)
        # Later passes keep only their walls, so every pass runs with the
        # same live heap.
        if first is None:
            first = outcomes
        del outcomes
        # Stop before a further pass would overrun the measuring time.
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    if first is None:
        return None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [o.record for o in first]
    raw_wall = sum(statistics.median(column) for column in zip(*raw_walls))
    print(f"passes {len(walls)} raw_wall_s={raw_wall:.4f} "
          f"calib_s={statistics.median(calibs):.5f} "
          f"worst_p99_sla_ratio={max(r.p99_ns / r.sla_ns for r in records):.4f} "
          f"incomplete={sum(r.incomplete for r in records)}")
    return end_to_end(first, walls, setup_s, peak_rss_mb)


def measure_layers(workload, tally: Tally):
    from ledger import Ledger
    from metrics import per_layer

    walls = {}
    ledgers = {"light": Ledger(full=False), "full": Ledger(full=True)}
    outcomes = None
    for tag in ("untraced", "light", "full"):
        ledger = ledgers.get(tag)
        gc.collect()
        if ledger is not None:
            ledger.install()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass()
        except Exception:
            tally.failed_pass(workload.n_runs, tag)
            return None
        finally:
            walls[tag] = time.perf_counter() - t0
            if ledger is not None:
                ledger.uninstall()
        json_before = tally.json_s
        tally.check_pass(result, tag)
        if tag == "untraced":
            outcomes = result
            json_s = tally.json_s - json_before
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{workload.seed}-ledger.json"
    path.write_text(json.dumps(
        {"walls_s": walls, **{k: v.to_json_dict() for k, v in ledgers.items()}},
        indent=1))
    print(f"ledger {path.relative_to(ROOT)}")
    return per_layer(outcomes, walls["untraced"], ledgers["light"], ledgers["full"],
                     walls["full"], json_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
        return 2
    # Every benchmark module that imports ``repro`` is imported after this.
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import make_workload

    try:
        workload = make_workload(args.workload, args.seed)
    except ValueError as exc:
        log(f"perfbench: {exc}")
        return 2
    if args.probe_setup:
        return probe_setup(workload)

    print("provenance " + json.dumps(provenance(workload, args.trace), sort_keys=True))
    tally = Tally()
    if args.trace:
        metrics = measure_layers(workload, tally)
    else:
        metrics = measure_end_to_end(workload, args.seconds, tally)
    if metrics is None:
        log("perfbench: no pass completed")
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
