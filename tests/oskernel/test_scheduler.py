"""Tests for the run queue / scheduler."""

import pytest

from repro.cpu import CoreState, Job, ProcessorConfig
from repro.oskernel import Scheduler
from repro.sim import Simulator
from repro.sim.units import US


def make(n_cores=2):
    sim = Simulator()
    package = ProcessorConfig(n_cores=n_cores).build_package(sim)
    return sim, package, Scheduler(sim, package)


def work_us(us_amount, freq_ghz=3.1):
    return freq_ghz * 1e9 * us_amount * 1e-6


class TestDispatch:
    def test_job_runs_on_idle_core(self):
        sim, package, sched = make()
        done = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [10 * US]

    def test_jobs_spread_across_idle_cores(self):
        sim, package, sched = make(n_cores=2)
        done = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [10 * US, 10 * US]  # parallel, not serial

    def test_excess_jobs_queue_fifo(self):
        sim, package, sched = make(n_cores=1)
        order = []
        for name in ("a", "b", "c"):
            sched.enqueue(Job(work_us(10), on_complete=lambda n=name: order.append(n)))
        assert sched.queue_depth == 2
        sim.run()
        assert order == ["a", "b", "c"]
        assert sched.queue_depth == 0

    def test_sleeping_core_woken_for_work(self):
        sim, package, sched = make(n_cores=1)
        core = package.cores[0]
        c6 = package.cstates.by_name("C6")
        core.enter_sleep(c6)
        done = []
        sched.enqueue(Job(0, on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [c6.exit_latency_ns]

    def test_idle_core_preferred_over_sleeping(self):
        sim, package, sched = make(n_cores=2)
        package.cores[0].enter_sleep(package.cstates.by_name("C6"))
        done = []
        sched.enqueue(Job(0, on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [0]  # ran on the idle core, no exit latency
        assert package.cores[0].state is CoreState.SLEEP

    def test_core_hint_targets_specific_core(self):
        sim, package, sched = make(n_cores=2)
        sched.enqueue(Job(work_us(10)), core_hint=1)
        assert package.cores[1].state is CoreState.RUN
        assert package.cores[0].state is CoreState.IDLE
        sim.run()

    def test_core_hint_is_soft_affinity(self):
        # When the hinted core is busy, the job falls back to normal
        # selection (here: the idle core 1) instead of waiting behind it.
        sim, package, sched = make(n_cores=2)
        order = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: order.append("first")), core_hint=0)
        sched.enqueue(Job(work_us(1), on_complete=lambda: order.append("second")), core_hint=0)
        sim.run()
        assert order == ["second", "first"]
        assert package.cores[1].busy_ns_total() > 0

    def test_core_hint_queues_when_all_cores_busy(self):
        sim, package, sched = make(n_cores=1)
        order = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: order.append("first")), core_hint=0)
        sched.enqueue(Job(work_us(1), on_complete=lambda: order.append("second")), core_hint=0)
        assert sched.queue_depth == 1
        sim.run()
        assert order == ["first", "second"]

    def test_waking_core_with_backlog_not_double_loaded(self):
        sim, package, sched = make(n_cores=1)
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C6"))
        sched.enqueue(Job(work_us(50)))   # wakes the core, rides the wake
        sched.enqueue(Job(work_us(50)))   # must queue, not pile on pending
        assert sched.queue_depth == 1
        sim.run()


class TestIdleHook:
    def test_idle_hook_called_when_no_work(self):
        sim, package, sched = make(n_cores=1)
        idled = []
        sched.idle_hook = idled.append
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert idled == [package.cores[0]]

    def test_idle_hook_not_called_when_queue_nonempty(self):
        sim, package, sched = make(n_cores=1)
        idled = []
        sched.idle_hook = idled.append
        sched.enqueue(Job(work_us(5)))
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert len(idled) == 1  # only after the queue drained


class TestStats:
    def test_max_queue_depth_tracked(self):
        sim, package, sched = make(n_cores=1)
        for _ in range(4):
            sched.enqueue(Job(work_us(1)))
        assert sched.max_queue_depth == 3
        sim.run()

    def test_jobs_enqueued_counted(self):
        sim, package, sched = make(n_cores=2)
        for _ in range(5):
            sched.enqueue(Job(1))
        assert sched.jobs_enqueued == 5
        sim.run()


class TestTakeNext:
    def test_completion_chains_queued_job_without_idle_bounce(self):
        # One core, two jobs: the second must start at the exact instant
        # the first completes (the take_next fast path), with the
        # zero-length idle period still booked for accounting parity.
        sim, package, sched = make(n_cores=1)
        done = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [10 * US, 20 * US]  # back to back, no gap

    def test_take_next_returns_none_on_empty_queue(self):
        sim, package, sched = make(n_cores=1)
        assert sched._take_next() is None

    def test_idle_hook_still_fires_when_queue_empty(self):
        sim, package, sched = make(n_cores=1)
        idled = []
        sched.idle_hook = lambda core: idled.append(core.core_id)
        sched.enqueue(Job(work_us(10)))
        sim.run()
        assert idled == [0]


class TestPickCore:
    @pytest.mark.parametrize("method", ["enqueue", "_pick_core"])
    def test_no_enum_class_lookups(self, method):
        names = getattr(Scheduler, method).__code__.co_names
        assert "CoreState" not in names
        assert "PowerMode" not in names

    @staticmethod
    def _cores(states):
        """A 3-core scheduler with core ``i`` put into ``states[i]``:
        "idle", "sleep", "waking" or "waking+backlog"."""
        sim, package, sched = make(n_cores=3)
        c6 = package.cstates.by_name("C6")
        for core, state in zip(package.cores, states):
            if state == "idle":
                continue
            core.enter_sleep(c6)
            if state == "waking":
                core.wake()
            elif state == "waking+backlog":
                core.dispatch(Job(work_us(1)))  # queues the job and wakes
                assert core.queue_depth() == 1
        return sched

    @pytest.mark.parametrize(
        "states, expected",
        [
            (("sleep", "waking", "idle"), 2),
            (("sleep", "waking", "waking"), 1),
            (("waking+backlog", "sleep", "waking"), 2),
            (("waking+backlog", "sleep", "sleep"), 1),
            (("waking+backlog", "waking+backlog", "waking+backlog"), None),
        ],
    )
    def test_preference_order(self, states, expected):
        """Idle core, then a waking core with an empty backlog, then a
        sleeping core; a waking core with a backlog is never picked."""
        picked = self._cores(states)._pick_core()
        assert (picked.core_id if picked is not None else None) == expected
