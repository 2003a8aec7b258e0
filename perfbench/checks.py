"""Per-run correctness checks and the simulated-output digest."""

from __future__ import annotations

import hashlib
from typing import List

from repro.harness import ResultRecord, canonical_json

#: Energy conservation tolerance (the repo's ±1 µJ invariant).
ENERGY_TOL_J = 1e-6


def check_record(
    record: ResultRecord, *, measure_ns: int, cores: int, servers: int
) -> List[str]:
    """Every violated invariant of one run's record (empty when correct)."""
    problems = []
    if record.requests_sent != record.responses_received + record.incomplete:
        problems.append(
            f"requests_sent {record.requests_sent} != responses "
            f"{record.responses_received} + incomplete {record.incomplete}"
        )
    if record.responses_received <= 0:
        problems.append("no responses in the measurement window")
    by_mode = sum(record.energy_by_mode_j.values())
    if abs(by_mode - record.energy_j) > ENERGY_TOL_J:
        problems.append(
            f"energy_by_mode sums to {by_mode!r} J, energy_j is {record.energy_j!r} J"
        )
    residency = sum(record.residency_ns.values())
    expected = measure_ns * cores * servers
    if residency != expected:
        problems.append(f"residency sums to {residency} ns, expected {expected} ns")
    return problems


def record_json(record: ResultRecord) -> str:
    """The record's canonical JSON text (sorted keys, no NaN)."""
    return canonical_json(record.to_json_dict())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
