"""Sweep execution: serial and process-pool backends.

Every cluster run is an independent deterministic simulation (its own
``Simulator`` and seeded RNG registry), so a sweep is embarrassingly
parallel: the runner fans pending points out over a
``ProcessPoolExecutor`` and reassembles results **in spec order**, so the
two backends are interchangeable — a parallel sweep returns bit-identical
records in the same order as a serial one, regardless of completion
order.

Job-count resolution: explicit ``jobs`` argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``.

Failures: a run that raises fails the sweep with one ``RuntimeError``
naming the spec (index/total, app, policy, load, seed), chained from the
run's own exception.  The serial backend stops at the first failure; the
pool backend lets the other submitted runs finish first.  Either way
every run that succeeded is cached and reported to the progress hook
before the error is raised, so a re-run resumes from the cache.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.cluster.simulation import run_experiment
from repro.harness.cache import ResultCache
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.harness.spec import RunSpec, SweepSpec

T = TypeVar("T")
R = TypeVar("R")

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit value > ``REPRO_JOBS`` > ``os.cpu_count()``; at least 1."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"{JOBS_ENV}={env!r} is not an integer") from exc
    return os.cpu_count() or 1


@dataclass
class RunProgress:
    """One completed sweep point, reported through the progress hook."""

    index: int
    total: int
    spec: RunSpec
    record: ResultRecord
    cached: bool


ProgressHook = Callable[[RunProgress], None]


def describe_spec(spec: RunSpec) -> str:
    """``app/policy @ load, seed N`` — how errors name a sweep point."""
    load = f"{spec.target_rps:g} rps"
    if spec.load is not None:
        load = f"{spec.load} ({load})"
    return f"{spec.app}/{spec.policy_name} @ {load}, seed {spec.seed}"


def execute_spec(spec: RunSpec) -> ResultRecord:
    """Run one spec to a record (the process-pool worker entry point)."""
    config = spec.to_config()
    key = config_hash(config)
    result = run_experiment(config)
    return ResultRecord.from_result(result, config_hash=key, seed=config.seed)


class Runner:
    """Executes specs serially or across a process pool, with caching."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressHook] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress

    def run(self, specs: Iterable[RunSpec]) -> List[ResultRecord]:
        """All specs' records, ordered like the input specs."""
        specs = list(specs)
        total = len(specs)
        records: List[Optional[ResultRecord]] = [None] * total
        # Build every config before the first simulation, so a bad spec
        # fails the sweep up front instead of after the runs before it.
        configs = [spec.to_config() for spec in specs]

        pending: List[int] = []
        for i, spec in enumerate(specs):
            cached = None
            if self.cache is not None:
                cached = self.cache.get(config_hash(configs[i]))
            if cached is not None:
                cached.from_cache = True
                records[i] = cached
                self._notify(i, total, spec, cached, cached=True)
            else:
                pending.append(i)

        failures: List[Tuple[int, BaseException]] = []
        for i, record, error in self._execute(specs, pending):
            if error is not None:
                failures.append((i, error))
                continue
            if self.cache is not None:
                self.cache.put(record)
            records[i] = record
            self._notify(i, total, specs[i], record, cached=False)
        if failures:
            i, error = failures[0]
            more = f"; {len(failures) - 1} more failed" if len(failures) > 1 else ""
            raise RuntimeError(
                f"run {i + 1}/{total} ({describe_spec(specs[i])}) failed: "
                f"{error!r}{more}"
            ) from error

        return [r for r in records if r is not None]

    def _execute(
        self, specs: Sequence[RunSpec], pending: Sequence[int]
    ) -> Iterator[Tuple[int, Optional[ResultRecord], Optional[BaseException]]]:
        """``(index, record, error)`` for ``pending`` indices, in
        ``pending`` order; exactly one of ``record``/``error`` is set.
        The serial backend stops after the first error."""
        if self.jobs <= 1 or len(pending) <= 1:
            for i in pending:
                try:
                    record = execute_spec(specs[i])
                except Exception as exc:
                    yield i, None, exc
                    return
                yield i, record, None
            return
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending))) as pool:
            futures = [(i, pool.submit(execute_spec, specs[i])) for i in pending]
            for i, future in futures:
                try:
                    record = future.result()
                except Exception as exc:
                    yield i, None, exc
                else:
                    yield i, record, None

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Parallel map for experiment tasks that are not plain configs.

        ``fn`` must be a module-level (picklable) callable and the items
        and results picklable values.  Results come back in item order;
        no caching is applied.  A failing item raises a ``RuntimeError``
        naming its index, chained from the item's exception.
        """
        items = list(items)
        total = len(items)
        if self.jobs <= 1 or total <= 1:
            return [
                _call_item(idx, total, partial(fn, item))
                for idx, item in enumerate(items)
            ]
        with ProcessPoolExecutor(max_workers=min(self.jobs, total)) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [
                _call_item(idx, total, future.result)
                for idx, future in enumerate(futures)
            ]

    def _notify(
        self, index: int, total: int, spec: RunSpec, record: ResultRecord,
        cached: bool,
    ) -> None:
        if self.progress is not None:
            self.progress(RunProgress(index, total, spec, record, cached))


def _call_item(index: int, total: int, call: Callable[[], R]) -> R:
    try:
        return call()
    except Exception as exc:
        raise RuntimeError(f"item {index + 1}/{total} failed: {exc!r}") from exc


def run_sweep(
    sweep: Union[SweepSpec, Iterable[RunSpec]],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressHook] = None,
) -> List[ResultRecord]:
    """Expand (if needed) and run a sweep; records come back in spec order."""
    specs = sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
    return Runner(jobs=jobs, cache=cache, progress=progress).run(specs)
