"""Tests of the policy-kernel backends (`repro.schedulers.kernels`).

The contract mirrors `repro.ga.kernels`: the ``loop`` backend is the
semantic reference (the historical per-task arithmetic) and the
``vectorized`` backend must be *bit-identical* to it on every kernel —
including exact float ties, where the documented tie-break contract
(lowest-index argmin; FCFS task ordering among equal sizes/sufferages)
decides.  On top of kernel-level parity, the vectorized backend switches
the simulation master to batched immediate-mode waves, so full simulations
under either policy backend — on either simulation engine — must also be
bit-identical.  Full simulations select the policy backend through the
master's ``policy_kernels`` seam and force the event engine by patching
``uses_fast_path`` on the simulation instance.  Call-count tests pin what
the vectorized backend is for: a burst of N tasks costs one wave call.
"""

import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import heterogeneous_cluster, homogeneous_cluster
from repro.scenarios import DynamicsTimeline, WorkerJoin
from repro.schedulers import (
    POLICY_BACKEND_NAMES,
    LoopPolicyBackend,
    MaxMinScheduler,
    MinMinScheduler,
    SchedulingContext,
    VectorizedPolicyBackend,
    default_policy_backend,
    policy_backend_from_name,
)
from repro.schedulers.base import ImmediateScheduler
from repro.schedulers.extended import (
    MinimumExecutionTimeScheduler,
    OpportunisticLoadBalancingScheduler,
    SufferageScheduler,
)
from repro.schedulers.kernels import diversion_target
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import DistributedSystemSimulation, SimulationConfig
from repro.util.errors import ConfigurationError, SimulationError
from repro.workloads import Task
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

LOOP = LoopPolicyBackend()
VEC = VectorizedPolicyBackend()


def simulate(scheduler, cluster, tasks, *, rng, engine="fast", policy_backend="vectorized"):
    """One full simulation on the given engine and policy-kernel backend."""
    sim = DistributedSystemSimulation(scheduler, cluster, tasks, rng=rng)
    sim.master.policy_kernels = policy_backend_from_name(policy_backend)
    if engine == "event":
        sim.uses_fast_path = lambda: False
    return sim.run()

# Small value pools make exact float ties (equal sizes, rates and loads)
# common rather than astronomically rare — the tie-break contract is the
# part of the kernels most worth fuzzing.
SIZE_POOL = [1.0, 2.0, 4.0, 7.5, 16.0]
LOAD_POOL = [0.0, 1.0, 2.0, 8.0, 32.0]
RATE_POOL = [1.0, 2.0, 4.0, 10.0]

dense_states = st.fixed_dictionaries(
    {
        "sizes": st.lists(st.sampled_from(SIZE_POOL), min_size=1, max_size=16),
        "loads": st.lists(st.sampled_from(LOAD_POOL), min_size=1, max_size=6),
        "rates": st.lists(st.sampled_from(RATE_POOL), min_size=1, max_size=6),
    }
)


def unpack(state):
    sizes = np.array(state["sizes"], dtype=float)
    m = min(len(state["loads"]), len(state["rates"]))
    loads = np.array(state["loads"][:m], dtype=float)
    rates = np.array(state["rates"][:m], dtype=float)
    return sizes, loads, rates


def online_masks(m):
    """``None`` (all online) or a bool mask with at least one online entry."""
    masks = st.lists(st.booleans(), min_size=m, max_size=m).filter(any)
    return st.none() | masks.map(lambda bits: np.array(bits, dtype=bool))


WAVE_KERNELS = (
    "earliest_finish_wave",
    "lightest_loaded_wave",
    "opportunistic_wave",
    "minimum_execution_wave",
)


def round_robin_placement(backend, sizes, loads, rates, start, online):
    """An RR wave as the scheduler runs it: rotation picks, then placement."""
    picks, next_start = backend.round_robin_wave(len(sizes), loads.shape[0], start)
    diverted = backend.place_picks(picks, sizes, loads, rates, online)
    return picks, diverted, next_start


class TestKernelParity:
    """Loop and vectorized kernels agree bit-for-bit, ties included."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(state=dense_states, data=st.data())
    def test_wave_kernels_bit_identical(self, state, data):
        sizes, loads, rates = unpack(state)
        online = data.draw(online_masks(loads.shape[0]), label="online")
        for kernel in WAVE_KERNELS:
            loads_a, loads_b = loads.copy(), loads.copy()
            procs_a, diverted_a = getattr(LOOP, kernel)(sizes, loads_a, rates, online)
            procs_b, diverted_b = getattr(VEC, kernel)(sizes, loads_b, rates, online)
            np.testing.assert_array_equal(procs_a, procs_b, err_msg=kernel)
            np.testing.assert_array_equal(loads_a, loads_b, err_msg=kernel)
            assert diverted_a == diverted_b, kernel
            if online is not None:
                assert online[procs_a].all(), kernel
                # Offline entries never grow: diverted sizes land online.
                np.testing.assert_array_equal(loads_a[~online], loads[~online])
        # RR start positions are drawn freely, so rotations begin on offline
        # processors as often as on online ones.
        start = data.draw(st.integers(0, 12), label="start")
        loads_a, loads_b = loads.copy(), loads.copy()
        picks_a, diverted_a, next_a = round_robin_placement(
            LOOP, sizes, loads_a, rates, start, online
        )
        picks_b, diverted_b, next_b = round_robin_placement(
            VEC, sizes, loads_b, rates, start, online
        )
        np.testing.assert_array_equal(picks_a, picks_b)
        np.testing.assert_array_equal(loads_a, loads_b)
        assert (diverted_a, next_a) == (diverted_b, next_b)
        m = loads.shape[0]
        rotation = (start + np.arange(len(sizes))) % m
        expected_diverted = 0 if online is None else int((~online[rotation]).sum())
        assert diverted_a == expected_diverted

    @settings(max_examples=40, deadline=None)
    @given(
        n_tasks=st.integers(0, 40),
        n_processors=st.integers(1, 9),
        start=st.integers(0, 30),
    )
    def test_round_robin_wave_matches_iterated_rotation(self, n_tasks, n_processors, start):
        procs_a, next_a = LOOP.round_robin_wave(n_tasks, n_processors, start)
        procs_b, next_b = VEC.round_robin_wave(n_tasks, n_processors, start)
        np.testing.assert_array_equal(procs_a, procs_b)
        assert next_a == next_b

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(state=dense_states, descending=st.booleans(), data=st.data())
    def test_greedy_finish_batch_bit_identical(self, state, descending, data):
        sizes, loads, rates = unpack(state)
        # Shuffled, non-contiguous ids: the FCFS tie-break among equal sizes
        # must key on the id values, not on array positions.
        ids = data.draw(st.permutations([3 * i + 1 for i in range(len(sizes))]))
        task_ids = np.array(ids, dtype=np.int64)
        loads_a, loads_b = loads.copy(), loads.copy()
        order_a, procs_a = LOOP.greedy_finish_batch(sizes, task_ids, loads_a, rates, descending)
        order_b, procs_b = VEC.greedy_finish_batch(sizes, task_ids, loads_b, rates, descending)
        np.testing.assert_array_equal(order_a, order_b)
        np.testing.assert_array_equal(procs_a, procs_b)
        np.testing.assert_array_equal(loads_a, loads_b)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(state=dense_states)
    def test_sufferage_batch_bit_identical(self, state):
        sizes, loads, rates = unpack(state)
        loads_a, loads_b = loads.copy(), loads.copy()
        order_a, procs_a = LOOP.sufferage_batch(sizes, loads_a, rates)
        order_b, procs_b = VEC.sufferage_batch(sizes, loads_b, rates)
        np.testing.assert_array_equal(order_a, order_b)
        np.testing.assert_array_equal(procs_a, procs_b)
        np.testing.assert_array_equal(loads_a, loads_b)


class TestTieBreakContract:
    """The documented tie-break rules, pinned case by case on both backends."""

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_argmin_policies_pick_lowest_index_on_exact_ties(self, backend):
        sizes = np.array([4.0])
        rates = np.array([2.0, 2.0, 2.0])
        for kernel in WAVE_KERNELS:
            procs, _ = getattr(backend, kernel)(sizes, np.zeros(3), rates)
            assert procs[0] == 0, kernel

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_ef_wave_is_sequential_in_effect(self, backend):
        # Equal tasks on two equal processors: each placement must see the
        # previous one's load, alternating 0,1,0 — a fully parallel argmin
        # over the frozen initial state would put all three on processor 0.
        procs, diverted = backend.earliest_finish_wave(
            np.array([4.0, 4.0, 4.0]), np.zeros(2), np.array([1.0, 1.0])
        )
        assert procs.tolist() == [0, 1, 0]
        assert diverted == 0

    def test_diversion_target_takes_lowest_index_among_online_ties(self):
        # Processors 1 and 3 tie exactly on 2.0 / 1.0 == 4.0 / 2.0; the
        # offline processor 0 would score lower but is masked out.
        loads = np.array([0.0, 2.0, 5.0, 4.0])
        rates = np.array([1.0, 1.0, 1.0, 2.0])
        online = np.array([False, True, True, True])
        assert diversion_target(loads, rates, online) == 1
        reference = min(
            np.flatnonzero(online).tolist(),
            key=lambda p: (loads[p] / max(rates[p], 1e-12), p),
        )
        assert reference == 1

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_diverted_picks_follow_the_evolving_loads(self, backend):
        # Processor 0 is offline and scores best for EF every time; each
        # diverted task lands on the online processor that is then the
        # least loaded, lowest index first on the initial tie.
        online = np.array([False, True, True])
        loads = np.zeros(3)
        procs, diverted = backend.earliest_finish_wave(
            np.array([3.0, 3.0, 3.0]), loads, np.array([100.0, 1.0, 1.0]), online
        )
        assert procs.tolist() == [1, 2, 1]
        assert diverted == 3
        assert loads.tolist() == [0.0, 6.0, 3.0]

    @pytest.mark.parametrize("kernel", WAVE_KERNELS)
    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_all_but_one_offline_places_everything_on_the_survivor(self, backend, kernel):
        online = np.array([False, False, True, False])
        loads = np.zeros(4)
        sizes = np.array([5.0, 1.0, 2.0])
        procs, diverted = getattr(backend, kernel)(
            sizes, loads, np.array([4.0, 3.0, 2.0, 1.0]), online
        )
        assert procs.tolist() == [2, 2, 2]
        assert loads.tolist() == [0.0, 0.0, 8.0, 0.0]
        # Every policy scores processor 0 best here (lowest index on the
        # all-zero load ties, fastest rate otherwise), so every pick moved.
        assert diverted == 3

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_round_robin_start_on_offline_processor_is_diverted(self, backend):
        online = np.array([True, True, False, True])
        loads = np.zeros(4)
        picks, diverted, next_start = round_robin_placement(
            backend, np.array([1.0, 1.0, 1.0, 1.0]), loads, np.ones(4), 2, online
        )
        # Picks 2, 3, 0, 1: the first is offline and goes to the lightest
        # online queue (processor 0 on the all-zero tie); then 3, 0, 1.
        assert picks.tolist() == [0, 3, 0, 1]
        assert diverted == 1
        assert next_start == 2
        assert loads.tolist() == [2.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_max_min_equal_sizes_placed_in_fcfs_order(self, backend):
        # The regression the kernels fix: sorting with reverse=True over
        # (size, task_id) reversed the id tie-break among equal sizes, so
        # duplicate-size tasks were placed newest-first.  The contract is
        # (-size, task_id): strictly larger first, FCFS among equals.
        sizes = np.array([5.0, 9.0, 5.0, 9.0, 5.0])
        task_ids = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        order, _ = backend.greedy_finish_batch(
            sizes, task_ids, np.zeros(2), np.array([1.0, 1.0]), descending=True
        )
        # Both 9.0s (ids 11, 13) first in id order, then the 5.0s in id order.
        assert order.tolist() == [1, 3, 0, 2, 4]

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_min_min_equal_sizes_placed_in_fcfs_order(self, backend):
        sizes = np.array([9.0, 5.0, 9.0, 5.0])
        task_ids = np.array([0, 1, 2, 3], dtype=np.int64)
        order, _ = backend.greedy_finish_batch(
            sizes, task_ids, np.zeros(2), np.array([1.0, 1.0]), descending=False
        )
        assert order.tolist() == [1, 3, 0, 2]

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_sufferage_equal_sufferages_take_fcfs_task(self, backend):
        # Identical tasks on identical processors: every task's sufferage is
        # equal each round, so rounds must consume tasks in FCFS order, each
        # on its lowest-indexed best processor.
        order, procs = backend.sufferage_batch(
            np.array([4.0, 4.0, 4.0]), np.zeros(2), np.array([1.0, 1.0])
        )
        assert order.tolist() == [0, 1, 2]
        assert procs.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_sufferage_best_processor_is_lowest_indexed_minimiser(self, backend):
        # Three equal processors: the completion vector ties everywhere, the
        # best processor must be index 0 (argmin, not an unstable argsort)
        # and the sufferage gap is exactly zero.
        order, procs = backend.sufferage_batch(
            np.array([6.0]), np.zeros(3), np.array([2.0, 2.0, 2.0])
        )
        assert order.tolist() == [0]
        assert procs.tolist() == [0]


class TestMaxMinSchedulerRegression:
    """The MaxMin FCFS fix observed through the scheduler and full sims."""

    def make_context(self, rates, backend_name):
        rates = np.asarray(rates, dtype=float)
        return SchedulingContext(
            time=0.0,
            rates=rates,
            pending_loads=np.zeros_like(rates),
            comm_costs=np.zeros_like(rates),
            kernels=policy_backend_from_name(backend_name),
        )

    @pytest.mark.parametrize("backend_name", POLICY_BACKEND_NAMES)
    def test_duplicate_sizes_assigned_fcfs(self, backend_name):
        tasks = [Task(i, 12.0) for i in range(3)]
        assignment = MaxMinScheduler(batch_size=10).schedule(
            tasks, self.make_context([10.0, 10.0], backend_name)
        )
        # FCFS among equal sizes: task 0 -> proc 0, task 1 -> proc 1, task 2
        # -> proc 0 again.  The historical reverse=True sort placed 2,1,0.
        assert assignment.queues() == [[0, 2], [1]]

    @pytest.mark.parametrize("backend_name", POLICY_BACKEND_NAMES)
    def test_min_min_and_max_min_agree_on_all_equal_sizes(self, backend_name):
        # With every size equal the two sort directions coincide — only if
        # both tie-break FCFS.
        tasks = [Task(i, 8.0) for i in range(7)]
        ctx = self.make_context([10.0, 20.0, 40.0], backend_name)
        mm = MinMinScheduler(batch_size=10).schedule(tasks, ctx)
        mx = MaxMinScheduler(batch_size=10).schedule(tasks, ctx)
        assert mm.queues() == mx.queues()

    @pytest.mark.parametrize("sim_backend", ["event", "fast"])
    @pytest.mark.parametrize("policy_backend", POLICY_BACKEND_NAMES)
    def test_full_sim_duplicate_sizes(self, sim_backend, policy_backend):
        # Duplicate-size workload through the whole simulation: equal-size
        # tasks must come off the sort in ascending-id order on every
        # backend combination, visible as FCFS placement in the trace.
        tasks = [Task(i, 10.0 + 5.0 * (i % 3)) for i in range(24)]
        cluster = homogeneous_cluster(4, 100.0, mean_comm_cost=0.0)
        scheduler = make_scheduler("MX", n_processors=4, batch_size=24, max_generations=5, rng=1)
        result = simulate(
            scheduler,
            cluster,
            tasks,
            rng=2,
            engine=sim_backend,
            policy_backend=policy_backend,
        )
        trace_ids = result.trace.column("task_id")
        trace_procs = result.trace.column("proc_id")
        proc_of = dict(zip(trace_ids.tolist(), trace_procs.tolist()))
        # Recompute the documented placement from the reference kernel and
        # require the simulation to realise exactly it.
        sizes = np.array([t.size_mflops for t in tasks])
        ids = np.arange(len(tasks), dtype=np.int64)
        order, procs = LoopPolicyBackend().greedy_finish_batch(
            sizes, ids, np.zeros(4), np.full(4, 100.0), descending=True
        )
        expected = {int(ids[i]): int(p) for i, p in zip(order.tolist(), procs.tolist())}
        assert proc_of == expected


class TestBatchBoundaries:
    """`preferred_batch_size` at fast-path batch boundaries (MM, batch 200)."""

    @pytest.mark.parametrize("n_tasks", [199, 200, 201])
    def test_event_and_fast_agree_at_the_boundary(self, n_tasks):
        results = {}
        for sim_backend in ("event", "fast"):
            tasks = generate_workload(
                workload_by_name("normal", n_tasks), np.random.default_rng(7)
            )
            cluster = heterogeneous_cluster(
                5, mean_comm_cost=3.0, rng=np.random.default_rng(8)
            )
            scheduler = make_scheduler(
                "MM", n_processors=5, batch_size=200, max_generations=5, rng=9
            )
            results[sim_backend] = simulate(
                scheduler, cluster, tasks, rng=10, engine=sim_backend
            )
        event, fast = results["event"], results["fast"]
        assert fast.makespan == event.makespan
        assert fast.batch_sizes == event.batch_sizes
        assert fast.scheduler_invocations == event.scheduler_invocations
        for name in ("task_id", "proc_id", "exec_start", "exec_end"):
            np.testing.assert_array_equal(
                fast.trace.column(name), event.trace.column(name), err_msg=name
            )
        # All tasks arrive at t=0, so the first invocation takes exactly
        # min(batch_size, n_tasks) and a 201st task forces a second batch.
        assert fast.batch_sizes[0] == min(200, n_tasks)
        assert sum(fast.batch_sizes) == n_tasks
        assert len(fast.batch_sizes) == (2 if n_tasks == 201 else 1)


class TestWaveVsPerTask:
    """Wave batching under the vectorized backend changes nothing visible."""

    SCHEDULERS = ["EF", "LL", "RR", "MM", "MX"]

    def run(self, scheduler_name, policy_backend, sim_backend="fast", seed=21):
        tasks = generate_workload(
            workload_by_name("poisson_small", 60), np.random.default_rng(seed)
        )
        cluster = heterogeneous_cluster(
            6, mean_comm_cost=4.0, rng=np.random.default_rng(seed + 1)
        )
        scheduler = make_scheduler(
            scheduler_name, n_processors=6, batch_size=16, max_generations=5, rng=seed + 2
        )
        return simulate(
            scheduler,
            cluster,
            tasks,
            rng=seed + 3,
            engine=sim_backend,
            policy_backend=policy_backend,
        )

    @pytest.mark.parametrize("scheduler_name", SCHEDULERS)
    @pytest.mark.parametrize("sim_backend", ["event", "fast"])
    def test_policy_backends_bit_identical(self, scheduler_name, sim_backend):
        loop = self.run(scheduler_name, "loop", sim_backend)
        vec = self.run(scheduler_name, "vectorized", sim_backend)
        assert vec.makespan == loop.makespan
        assert vec.efficiency == loop.efficiency
        assert vec.metrics.mean_response_time == loop.metrics.mean_response_time
        # The wave must mirror per-task bookkeeping exactly: N tasks placed
        # in one wave still count as N single-task invocations.
        assert vec.scheduler_invocations == loop.scheduler_invocations
        assert vec.batch_sizes == loop.batch_sizes
        assert vec.events_processed == loop.events_processed
        for name in (
            "task_id",
            "proc_id",
            "assigned_time",
            "dispatch_time",
            "exec_start",
            "exec_end",
        ):
            np.testing.assert_array_equal(
                vec.trace.column(name), loop.trace.column(name), err_msg=name
            )

    def test_declining_policy_falls_back_to_per_task_path(self):
        # A policy that keeps the default select_processors_wave (returns
        # None) must run unchanged under the vectorized backend.
        class StubbornEF(ImmediateScheduler):
            name = "EF"

            def select_processor(self, task, ctx):
                finish_times = (ctx.pending_loads + task.size_mflops) / ctx.rates
                return int(np.argmin(finish_times))

        def run(scheduler):
            tasks = generate_workload(
                workload_by_name("normal", 30), np.random.default_rng(3)
            )
            cluster = homogeneous_cluster(3, 100.0, mean_comm_cost=1.0)
            return simulate(scheduler, cluster, tasks, rng=4)

        stubborn = run(StubbornEF())
        waved = run(make_scheduler("EF", n_processors=3, batch_size=5, max_generations=5, rng=5))
        assert stubborn.makespan == waved.makespan
        assert stubborn.scheduler_invocations == waved.scheduler_invocations
        np.testing.assert_array_equal(
            stubborn.trace.column("proc_id"), waved.trace.column("proc_id")
        )

    def test_malformed_wave_is_rejected(self):
        class BrokenEF(ImmediateScheduler):
            name = "EF"

            def __init__(self, proc):
                self.proc = proc

            def select_processor(self, task, ctx):
                return 0

            def select_processors_wave(self, sizes, ctx):
                return np.full(len(sizes), self.proc, dtype=np.int64), 0

        tasks = generate_workload(workload_by_name("normal", 10), np.random.default_rng(0))
        cluster = homogeneous_cluster(3, 100.0, mean_comm_cost=1.0)
        sim = DistributedSystemSimulation(BrokenEF(99), cluster, tasks, rng=1)  # out of range
        with pytest.raises(SimulationError, match="wave"):
            sim.run()
        # A wave that ignores ctx.online and places work on a worker that has
        # not joined yet fails loudly instead of stranding the tasks.
        sim = DistributedSystemSimulation(
            BrokenEF(2),
            cluster,
            tasks,
            dynamics=DynamicsTimeline([WorkerJoin(time=1e6, proc=2)]),
            rng=1,
        )
        with pytest.raises(SimulationError, match="wave kernel placed a task on an offline"):
            sim.run()


KERNELS = (
    *WAVE_KERNELS,
    "round_robin_wave",
    "place_picks",
    "greedy_finish_batch",
    "sufferage_batch",
)


def counting_backend():
    """A vectorized backend plus a counter of the calls to each of its kernels."""
    backend = VectorizedPolicyBackend()
    calls = collections.Counter()
    for name in KERNELS:

        def counted(*args, _name=name, _kernel=getattr(backend, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        setattr(backend, name, counted)
    return backend, calls


class TestKernelCallCounts:
    """A burst of N tasks costs one wave call, not N policy calls.

    Every task of the ``normal`` workload arrives at t=0.  The immediate
    policies place the whole burst in one wave however large it is, and the
    batch policies call their kernel once per batch of 50 — on the fast
    path, on the event loop, and on the event loop with worker 0 offline.
    The counts are deterministic, so they pin the vectorized backend's
    design with no timing noise.
    """

    # RR and MET pick without looking at the loads, then commit the picks
    # through one ``place_picks`` call.
    WAVE_CALLS = {
        "EF": {"earliest_finish_wave": 1},
        "LL": {"lightest_loaded_wave": 1},
        "RR": {"round_robin_wave": 1, "place_picks": 1},
        "OLB": {"opportunistic_wave": 1},
        "MET": {"minimum_execution_wave": 1, "place_picks": 1},
    }
    BATCH_KERNELS = {
        "MM": "greedy_finish_batch",
        "MX": "greedy_finish_batch",
        "SU": "sufferage_batch",
    }
    MODES = ["fast", "event", "offline"]

    def run(self, scheduler_name, n_tasks, mode):
        tasks = generate_workload(workload_by_name("normal", n_tasks), np.random.default_rng(0))
        cluster = heterogeneous_cluster(10, mean_comm_cost=5.0, rng=np.random.default_rng(1))
        if scheduler_name == "OLB":
            scheduler = OpportunisticLoadBalancingScheduler()
        elif scheduler_name == "MET":
            scheduler = MinimumExecutionTimeScheduler()
        elif scheduler_name == "SU":
            scheduler = SufferageScheduler(batch_size=50)
        else:
            scheduler = make_scheduler(
                scheduler_name, n_processors=10, batch_size=50, max_generations=10, rng=2
            )
        # Worker 0 joins long after the last task finishes.
        offline = mode == "offline"
        dynamics = DynamicsTimeline([WorkerJoin(time=1e9, proc=0)]) if offline else None
        sim = DistributedSystemSimulation(scheduler, cluster, tasks, dynamics=dynamics, rng=3)
        if mode == "event":
            sim.uses_fast_path = lambda: False
        sim.master.policy_kernels, calls = counting_backend()
        result = sim.run()
        assert sorted(result.trace.task_ids().tolist()) == list(range(n_tasks))
        if offline:
            assert 0 not in result.trace.column("proc_id").tolist()
        return result, calls

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_tasks", [200, 2000])
    @pytest.mark.parametrize("scheduler_name", sorted(WAVE_CALLS))
    def test_one_burst_is_one_wave(self, scheduler_name, n_tasks, mode):
        result, calls = self.run(scheduler_name, n_tasks, mode)
        assert result.scheduler_invocations == n_tasks
        assert calls == self.WAVE_CALLS[scheduler_name]
        if mode == "offline" and scheduler_name == "RR":
            # The rotation's picks on the offline worker are diverted inside
            # the one wave.
            assert result.metrics.dynamics.tasks_redirected == n_tasks // 10

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_tasks", [200, 2000])
    @pytest.mark.parametrize("scheduler_name", sorted(BATCH_KERNELS))
    def test_batch_policy_calls_its_kernel_once_per_batch(self, scheduler_name, n_tasks, mode):
        result, calls = self.run(scheduler_name, n_tasks, mode)
        assert calls == {self.BATCH_KERNELS[scheduler_name]: n_tasks // 50}
        assert result.scheduler_invocations == n_tasks // 50


class TestBackendSelectionAndValidation:
    def test_backend_registry(self):
        assert POLICY_BACKEND_NAMES == ("loop", "vectorized")
        assert isinstance(policy_backend_from_name("loop"), LoopPolicyBackend)
        assert isinstance(policy_backend_from_name("vectorized"), VectorizedPolicyBackend)
        assert not policy_backend_from_name("loop").batches_immediate_waves
        assert policy_backend_from_name("vectorized").batches_immediate_waves

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ConfigurationError, match="policy backend"):
            policy_backend_from_name("turbo")

    def test_default_backend_is_vectorized(self):
        assert default_policy_backend().name == "vectorized"

    def test_context_resolves_default_and_validates_type(self):
        ctx = SchedulingContext(
            time=0.0,
            rates=np.array([10.0]),
            pending_loads=np.zeros(1),
            comm_costs=np.zeros(1),
        )
        assert ctx.kernels is default_policy_backend()
        with pytest.raises(ConfigurationError, match="kernels"):
            SchedulingContext(
                time=0.0,
                rates=np.array([10.0]),
                pending_loads=np.zeros(1),
                comm_costs=np.zeros(1),
                kernels="vectorized",  # a name is not a backend instance
            )

    def test_simulation_config_validates_policy_backend(self):
        # The policy backend is reachable only through the master's seam:
        # simulations always start on the vectorized kernels.
        sim = DistributedSystemSimulation(
            make_scheduler("EF", n_processors=2, rng=1),
            homogeneous_cluster(2, 100.0, mean_comm_cost=1.0),
            generate_workload(workload_by_name("normal", 4), np.random.default_rng(0)),
            rng=2,
        )
        assert sim.master.policy_kernels is default_policy_backend()
        with pytest.raises(TypeError, match="policy_backend"):
            SimulationConfig(policy_backend="loop")

    def test_experiment_scale_validates_policy_backend(self):
        from repro.experiments.config import get_scale

        with pytest.raises(TypeError, match="policy_backend"):
            get_scale("smoke").scaled(policy_backend="loop")

    def test_campaign_spec_validates_and_round_trips_policy_backend(self):
        from repro.campaigns.spec import CampaignSpec

        with pytest.raises(TypeError, match="policy_backend"):
            CampaignSpec(name="pk", figures=("fig5",), policy_backend="loop")
        # An old manifest's policy_backend key is dropped on the way in.
        spec = CampaignSpec(name="pk", figures=("fig5",))
        assert CampaignSpec.from_dict({**spec.to_dict(), "policy_backend": "loop"}) == spec

    def test_sufferage_and_extended_route_through_context_kernels(self):
        # The batch/extended schedulers must take their kernels from the
        # context, so a loop-backend context really exercises the reference
        # implementation end to end.
        rates = np.array([10.0, 20.0])
        for backend_name in POLICY_BACKEND_NAMES:
            ctx = SchedulingContext(
                time=0.0,
                rates=rates,
                pending_loads=np.zeros(2),
                comm_costs=np.zeros(2),
                kernels=policy_backend_from_name(backend_name),
            )
            tasks = [Task(i, float(5 + i)) for i in range(6)]
            assignment = SufferageScheduler(batch_size=10).schedule(tasks, ctx)
            assert sorted(assignment.task_ids()) == list(range(6))
