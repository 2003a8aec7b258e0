"""Property-based tests for a multi-domain (per-core DVFS) package."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Job, Package, ProcessorConfig
from repro.sim import Simulator


def per_core_package(sim, n_cores=4):
    return Package(ProcessorConfig(n_cores=n_cores).build_domains(sim, per_core=True))


@given(
    targets=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),   # domain
            st.integers(min_value=0, max_value=14),  # p-state
            st.integers(min_value=0, max_value=500_000),  # time
        ),
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_domains_settle_independently(targets):
    sim = Simulator()
    package = per_core_package(sim)
    last_target = {i: 0 for i in range(4)}
    by_time = sorted(targets, key=lambda t: t[2])
    for domain_id, index, t in by_time:
        sim.schedule_at(t, package.domains[domain_id].set_pstate, index)
        last_target[domain_id] = index
    sim.run()
    for domain_id, expected in last_target.items():
        assert package.domains[domain_id].pstate_index == expected


@given(
    work=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=1_000, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=16,
    ),
    retune=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=14),
            st.integers(min_value=0, max_value=200_000),
        ),
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_work_conserved_across_domains(work, retune):
    """Every job completes exactly once, whatever each domain's V/F does."""
    sim = Simulator()
    package = per_core_package(sim)
    done = []
    pending = {i: [] for i in range(4)}
    for core_id, cycles in work:
        pending[core_id].append(cycles)

    def submit(core_id):
        if not pending[core_id]:
            return
        cycles = pending[core_id].pop()
        package.cores[core_id].dispatch(
            Job(cycles, on_complete=lambda c=core_id: (done.append(c), submit(c)))
        )

    for core_id in range(4):
        submit(core_id)
    for domain_id, index, t in retune:
        sim.schedule_at(t, package.domains[domain_id].set_pstate, index)
    sim.run()
    assert len(done) == len(work)
