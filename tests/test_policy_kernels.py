"""Tests of the policy kernels (`repro.schedulers.kernels`).

The contract mirrors `repro.ga.kernels`: the ``loop`` kernel set — the
per-task references in ``reference_kernels.py`` — is the semantic reference
(the historical per-task arithmetic), and the ``vectorized`` kernels must be
*bit-identical* to it on every kernel, including exact float ties, where the
documented tie-break contract (lowest-index argmin; FCFS task ordering among
equal sizes) decides.  On top of kernel-level parity, the master places an
immediate-mode policy's arrival waves through one kernel call, so full
simulations on either kernel set — on either simulation engine — must also
be bit-identical.  A full simulation runs on the references inside
``reference_kernels.references``, which swaps them in for the module's names
and makes an immediate-mode policy decline every wave (the master's per-task
path); the event engine is forced by patching ``uses_fast_path`` on the
simulation instance.  Call-count tests pin what the kernels are for: a burst
of N tasks costs one wave call.
"""

import collections
import contextlib
import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import heterogeneous_cluster, homogeneous_cluster
from repro.scenarios import DynamicsTimeline, WorkerJoin
from repro.schedulers import (
    MaxMinScheduler,
    MinMinScheduler,
    RoundRobinScheduler,
    SchedulingContext,
    kernels,
)
from repro.schedulers.base import ImmediateScheduler
from repro.schedulers.kernels import diversion_target
from repro.schedulers.registry import make_scheduler
from repro.sim.master import Master
from repro.sim.simulation import DistributedSystemSimulation, SimulationConfig
from repro.util.errors import SimulationError
from repro.workloads import Task
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

import reference_kernels
from reference_kernels import POLICY_KERNELS, references

LOOP = reference_kernels
VEC = kernels

#: The two kernel sets every parity test compares: the per-task references
#: (``loop``) and the kernels every simulation runs on (``vectorized``).
KERNEL_SETS = ("loop", "vectorized")
#: Runs a test once on each kernel set's module, as ``impl``.
BOTH_IMPLS = pytest.mark.parametrize("impl", [LOOP, VEC], ids=KERNEL_SETS)


def on_kernels(kernel_set, scheduler):
    """A context in which *scheduler* runs on the kernel set *kernel_set*."""
    return references(scheduler) if kernel_set == "loop" else contextlib.nullcontext()


def simulate(scheduler, cluster, tasks, *, rng, engine="fast", kernel_set="vectorized"):
    """One full simulation on the given engine and kernel set."""
    sim = DistributedSystemSimulation(scheduler, cluster, tasks, rng=rng)
    if engine == "event":
        sim.uses_fast_path = lambda: False
    with on_kernels(kernel_set, scheduler):
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


WAVE_KERNELS = ("earliest_finish_wave", "lightest_loaded_wave")


def round_robin_placement(impl, sizes, loads, rates, start, online):
    """An RR wave as the scheduler runs it: rotation picks, then placement."""
    picks, next_start = impl.round_robin_wave(len(sizes), loads.shape[0], start)
    diverted = impl.place_picks(picks, sizes, loads, rates, online)
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


class TestTieBreakContract:
    """The documented tie-break rules, pinned case by case on both kernel sets."""

    @BOTH_IMPLS
    def test_argmin_policies_pick_lowest_index_on_exact_ties(self, impl):
        sizes = np.array([4.0])
        rates = np.array([2.0, 2.0, 2.0])
        for kernel in WAVE_KERNELS:
            procs, _ = getattr(impl, kernel)(sizes, np.zeros(3), rates)
            assert procs[0] == 0, kernel

    @BOTH_IMPLS
    def test_ef_wave_is_sequential_in_effect(self, impl):
        # Equal tasks on two equal processors: each placement must see the
        # previous one's load, alternating 0,1,0 — a fully parallel argmin
        # over the frozen initial state would put all three on processor 0.
        procs, diverted = impl.earliest_finish_wave(
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

    @BOTH_IMPLS
    def test_diverted_picks_follow_the_evolving_loads(self, impl):
        # Processor 0 is offline and scores best for EF every time; each
        # diverted task lands on the online processor that is then the
        # least loaded, lowest index first on the initial tie.
        online = np.array([False, True, True])
        loads = np.zeros(3)
        procs, diverted = impl.earliest_finish_wave(
            np.array([3.0, 3.0, 3.0]), loads, np.array([100.0, 1.0, 1.0]), online
        )
        assert procs.tolist() == [1, 2, 1]
        assert diverted == 3
        assert loads.tolist() == [0.0, 6.0, 3.0]

    @pytest.mark.parametrize("kernel", WAVE_KERNELS)
    @BOTH_IMPLS
    def test_all_but_one_offline_places_everything_on_the_survivor(self, impl, kernel):
        online = np.array([False, False, True, False])
        loads = np.zeros(4)
        sizes = np.array([5.0, 1.0, 2.0])
        procs, diverted = getattr(impl, kernel)(
            sizes, loads, np.array([4.0, 3.0, 2.0, 1.0]), online
        )
        assert procs.tolist() == [2, 2, 2]
        assert loads.tolist() == [0.0, 0.0, 8.0, 0.0]
        # Every policy scores processor 0 best here (lowest index on the
        # all-zero load ties, fastest rate otherwise), so every pick moved.
        assert diverted == 3

    @BOTH_IMPLS
    def test_round_robin_start_on_offline_processor_is_diverted(self, impl):
        online = np.array([True, True, False, True])
        loads = np.zeros(4)
        picks, diverted, next_start = round_robin_placement(
            impl, np.array([1.0, 1.0, 1.0, 1.0]), loads, np.ones(4), 2, online
        )
        # Picks 2, 3, 0, 1: the first is offline and goes to the lightest
        # online queue (processor 0 on the all-zero tie); then 3, 0, 1.
        assert picks.tolist() == [0, 3, 0, 1]
        assert diverted == 1
        assert next_start == 2
        assert loads.tolist() == [2.0, 1.0, 0.0, 1.0]

    @BOTH_IMPLS
    def test_max_min_equal_sizes_placed_in_fcfs_order(self, impl):
        # The regression the kernels fix: sorting with reverse=True over
        # (size, task_id) reversed the id tie-break among equal sizes, so
        # duplicate-size tasks were placed newest-first.  The contract is
        # (-size, task_id): strictly larger first, FCFS among equals.
        sizes = np.array([5.0, 9.0, 5.0, 9.0, 5.0])
        task_ids = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        order, _ = impl.greedy_finish_batch(
            sizes, task_ids, np.zeros(2), np.array([1.0, 1.0]), descending=True
        )
        # Both 9.0s (ids 11, 13) first in id order, then the 5.0s in id order.
        assert order.tolist() == [1, 3, 0, 2, 4]

    @BOTH_IMPLS
    def test_min_min_equal_sizes_placed_in_fcfs_order(self, impl):
        sizes = np.array([9.0, 5.0, 9.0, 5.0])
        task_ids = np.array([0, 1, 2, 3], dtype=np.int64)
        order, _ = impl.greedy_finish_batch(
            sizes, task_ids, np.zeros(2), np.array([1.0, 1.0]), descending=False
        )
        assert order.tolist() == [1, 3, 0, 2]


class TestMaxMinSchedulerRegression:
    """The MaxMin FCFS fix observed through the scheduler and full sims."""

    def make_context(self, rates):
        rates = np.asarray(rates, dtype=float)
        return SchedulingContext(
            time=0.0,
            rates=rates,
            pending_loads=np.zeros_like(rates),
            comm_costs=np.zeros_like(rates),
        )

    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_duplicate_sizes_assigned_fcfs(self, kernel_set):
        tasks = [Task(i, 12.0) for i in range(3)]
        scheduler = MaxMinScheduler(batch_size=10)
        with on_kernels(kernel_set, scheduler):
            assignment = scheduler.schedule(tasks, self.make_context([10.0, 10.0]))
        # FCFS among equal sizes: task 0 -> proc 0, task 1 -> proc 1, task 2
        # -> proc 0 again.  The historical reverse=True sort placed 2,1,0.
        assert assignment.queues() == [[0, 2], [1]]

    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_min_min_and_max_min_agree_on_all_equal_sizes(self, kernel_set):
        # With every size equal the two sort directions coincide — only if
        # both tie-break FCFS.
        tasks = [Task(i, 8.0) for i in range(7)]
        ctx = self.make_context([10.0, 20.0, 40.0])
        mm, mx = MinMinScheduler(batch_size=10), MaxMinScheduler(batch_size=10)
        with on_kernels(kernel_set, mm):
            assert mm.schedule(tasks, ctx).queues() == mx.schedule(tasks, ctx).queues()

    @pytest.mark.parametrize("sim_backend", ["event", "fast"])
    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_full_sim_duplicate_sizes(self, sim_backend, kernel_set):
        # Duplicate-size workload through the whole simulation: equal-size
        # tasks must come off the sort in ascending-id order on every engine
        # and kernel set, visible as FCFS placement in the trace.
        tasks = [Task(i, 10.0 + 5.0 * (i % 3)) for i in range(24)]
        cluster = homogeneous_cluster(4, 100.0, mean_comm_cost=0.0)
        scheduler = make_scheduler("MX", n_processors=4, batch_size=24, max_generations=5, rng=1)
        result = simulate(
            scheduler,
            cluster,
            tasks,
            rng=2,
            engine=sim_backend,
            kernel_set=kernel_set,
        )
        trace_ids = result.trace.column("task_id")
        trace_procs = result.trace.column("proc_id")
        proc_of = dict(zip(trace_ids.tolist(), trace_procs.tolist()))
        # Recompute the documented placement from the reference kernel and
        # require the simulation to realise exactly it.
        sizes = np.array([t.size_mflops for t in tasks])
        ids = np.arange(len(tasks), dtype=np.int64)
        order, procs = LOOP.greedy_finish_batch(
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
    """Wave batching on the vectorized kernels changes nothing visible."""

    SCHEDULERS = ["EF", "LL", "RR", "MM", "MX"]

    def run(self, scheduler_name, kernel_set, sim_backend="fast", seed=21):
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
            kernel_set=kernel_set,
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
        # None) runs on the master's per-task path, unchanged.
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


def count_kernel_calls(monkeypatch, module=kernels):
    """A counter of the calls to each policy kernel name of *module*."""
    calls = collections.Counter()
    for name in POLICY_KERNELS:

        def counted(*args, _name=name, _kernel=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def burst_simulation(scheduler_name, n_tasks, mode):
    """A burst of *n_tasks* ``normal`` tasks at t=0 on ten heterogeneous workers.

    *mode* is ``fast`` (the fast path), ``event`` (the event loop) or
    ``offline`` (the event loop with worker 0 joining long after the last
    task finishes).  Batch policies take batches of 50.
    """
    tasks = generate_workload(workload_by_name("normal", n_tasks), np.random.default_rng(0))
    cluster = heterogeneous_cluster(10, mean_comm_cost=5.0, rng=np.random.default_rng(1))
    scheduler = make_scheduler(
        scheduler_name, n_processors=10, batch_size=50, max_generations=10, rng=2
    )
    offline = mode == "offline"
    dynamics = DynamicsTimeline([WorkerJoin(time=1e9, proc=0)]) if offline else None
    sim = DistributedSystemSimulation(scheduler, cluster, tasks, dynamics=dynamics, rng=3)
    if mode == "event":
        sim.uses_fast_path = lambda: False
    return sim


class TestKernelCallCounts:
    """A burst of N tasks costs one wave call, not N policy calls.

    Every task of the ``normal`` workload arrives at t=0.  The immediate
    policies place the whole burst in one wave however large it is, and the
    batch policies call their kernel once per batch of 50 — on the fast
    path, on the event loop, and on the event loop with worker 0 offline.
    The counts are deterministic, so they pin the kernels' design with no
    timing noise.
    """

    # RR picks without looking at the loads, then commits the picks through
    # one ``place_picks`` call.
    WAVE_CALLS = {
        "EF": {"earliest_finish_wave": 1},
        "LL": {"lightest_loaded_wave": 1},
        "RR": {"round_robin_wave": 1, "place_picks": 1},
    }
    BATCH_KERNELS = {
        "MM": "greedy_finish_batch",
        "MX": "greedy_finish_batch",
    }
    MODES = ["fast", "event", "offline"]

    def run(self, scheduler_name, n_tasks, mode, monkeypatch):
        sim = burst_simulation(scheduler_name, n_tasks, mode)
        calls = count_kernel_calls(monkeypatch)
        result = sim.run()
        assert sorted(result.trace.task_ids().tolist()) == list(range(n_tasks))
        if mode == "offline":
            assert 0 not in result.trace.column("proc_id").tolist()
        return result, calls

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_tasks", [200, 2000])
    @pytest.mark.parametrize("scheduler_name", sorted(WAVE_CALLS))
    def test_one_burst_is_one_wave(self, scheduler_name, n_tasks, mode, monkeypatch):
        result, calls = self.run(scheduler_name, n_tasks, mode, monkeypatch)
        assert result.scheduler_invocations == n_tasks
        assert calls == self.WAVE_CALLS[scheduler_name]
        if mode == "offline" and scheduler_name == "RR":
            # The rotation's picks on the offline worker are diverted inside
            # the one wave.
            assert result.metrics.dynamics.tasks_redirected == n_tasks // 10

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_tasks", [200, 2000])
    @pytest.mark.parametrize("scheduler_name", sorted(BATCH_KERNELS))
    def test_batch_policy_calls_its_kernel_once_per_batch(
        self, scheduler_name, n_tasks, mode, monkeypatch
    ):
        result, calls = self.run(scheduler_name, n_tasks, mode, monkeypatch)
        assert calls == {self.BATCH_KERNELS[scheduler_name]: n_tasks // 50}
        assert result.scheduler_invocations == n_tasks // 50


class TestWaveMatchesPerTaskSelections:
    """An immediate-mode policy's wave is its ``select_processor``, task by task.

    Inside ``references`` the master places such a policy's tasks with one
    ``select_processor`` call each, diverts a pick that lands offline to
    ``diversion_target`` and adds the size to the target's load.  The wave
    must equal that loop over the policy's own method, not only the loop
    kernels.
    """

    @pytest.mark.parametrize("scheduler_name", ["EF", "LL", "RR"])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(state=dense_states, data=st.data())
    def test_wave_equals_per_task_selections(self, scheduler_name, state, data):
        sizes, loads, rates = unpack(state)
        m = loads.shape[0]
        online = data.draw(online_masks(m), label="online")
        start = data.draw(st.integers(0, 12), label="start")

        def context(pending_loads):
            return SchedulingContext.trusted(
                0.0, rates, pending_loads, np.zeros(m), np.random.default_rng(0), online
            )

        def policy():
            if scheduler_name == "RR":
                return RoundRobinScheduler(start_processor=start)
            return make_scheduler(scheduler_name, n_processors=m)

        wave_ctx = context(loads.copy())
        procs, diverted = policy().select_processors_wave(sizes, wave_ctx)

        scheduler, working = policy(), loads.copy()
        expected, expected_diverted = [], 0
        for k, size in enumerate(sizes.tolist()):
            proc = scheduler.select_processor(Task(k, size), context(working.copy()))
            if online is not None and not online[proc]:
                proc = diversion_target(working, rates, online)
                expected_diverted += 1
            expected.append(proc)
            working[proc] += size
        assert procs.tolist() == expected
        assert diverted == expected_diverted
        np.testing.assert_array_equal(wave_ctx.pending_loads, working)


class TestReferencesRunEveryPolicy:
    """A simulation inside ``references`` runs on the references alone.

    The whole-simulation parity tests hold the kernels to a run inside
    ``references(scheduler)``.  Were a policy to reach its kernel by a name
    the block does not swap, or to keep its wave, they would compare the
    kernels with themselves.  Inside the block an immediate-mode policy
    places each task with its own ``select_processor`` and calls no kernel,
    a batch policy calls the reference batch kernel once per batch, and the
    run is the one the kernels realise, bit for bit.
    """

    N_TASKS = 200

    @pytest.mark.parametrize("mode", TestKernelCallCounts.MODES)
    @pytest.mark.parametrize("scheduler_name", TestWaveVsPerTask.SCHEDULERS)
    def test_simulation_runs_on_the_references(self, scheduler_name, mode, monkeypatch):
        default = burst_simulation(scheduler_name, self.N_TASKS, mode).run()
        sim = burst_simulation(scheduler_name, self.N_TASKS, mode)
        scheduler = sim.scheduler
        calls = count_kernel_calls(monkeypatch, module=reference_kernels)
        immediate = isinstance(scheduler, ImmediateScheduler)
        if immediate:
            select = scheduler.select_processor

            def counted_select(task, ctx):
                calls["select_processor"] += 1
                return select(task, ctx)

            monkeypatch.setattr(scheduler, "select_processor", counted_select)
        with references(scheduler):
            result = sim.run()
        if immediate:
            assert calls == {"select_processor": self.N_TASKS}
        else:
            assert calls == {"greedy_finish_batch": self.N_TASKS // 50}
        assert result.makespan == default.makespan
        assert result.scheduler_invocations == default.scheduler_invocations
        assert result.batch_sizes == default.batch_sizes
        assert result.metrics.dynamics.tasks_redirected == (
            default.metrics.dynamics.tasks_redirected
        )
        for name in ("task_id", "proc_id", "exec_start", "exec_end"):
            np.testing.assert_array_equal(
                result.trace.column(name), default.trace.column(name), err_msg=name
            )

    @pytest.mark.parametrize("scheduler_name", TestWaveVsPerTask.SCHEDULERS)
    def test_block_restores_the_kernels_and_the_wave(self, scheduler_name):
        # The swap must not leak: a later test in the same process would
        # otherwise run on the references, or never wave, unawares.
        scheduler = make_scheduler(scheduler_name, n_processors=2, batch_size=4)
        immediate = isinstance(scheduler, ImmediateScheduler)
        state = dict(time=0.0, rates=np.ones(2), pending_loads=np.zeros(2), comm_costs=np.zeros(2))

        def names():
            return {name: getattr(kernels, name) for name in POLICY_KERNELS}

        def waves():
            return scheduler.select_processors_wave(np.ones(3), SchedulingContext(**state))

        before = names()
        with references(scheduler):
            assert names() == {name: getattr(reference_kernels, name) for name in POLICY_KERNELS}
            if immediate:
                assert waves() is None
        assert names() == before
        with pytest.raises(RuntimeError):
            with references(scheduler):
                raise RuntimeError("the block fails")
        assert names() == before
        if immediate:
            procs, diverted = waves()
            assert procs.shape == (3,) and diverted == 0


class TestBackendSelectionAndValidation:
    def test_simulation_config_validates_policy_backend(self):
        # Simulations always run on the one set of policy kernels.
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

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.schedulers", "MinimumExecutionTimeScheduler"),
            ("repro.schedulers", "OpportunisticLoadBalancingScheduler"),
            ("repro.schedulers", "SufferageScheduler"),
            ("repro.schedulers", "policy_backend_from_name"),
            ("repro.schedulers", "POLICY_BACKEND_NAMES"),
            ("repro.schedulers", "LoopPolicyBackend"),
            ("repro.schedulers", "VectorizedPolicyBackend"),
            ("repro.schedulers", "PolicyKernelBackend"),
            ("repro.schedulers", "default_policy_backend"),
            ("repro.schedulers", "EXTENDED_SCHEDULER_NAMES"),
            ("repro.schedulers.kernels", "PolicyKernelBackend"),
            ("repro.schedulers.kernels", "default_policy_backend"),
            ("repro.schedulers.kernels", "policy_backend_from_name"),
            ("repro.schedulers.kernels", "POLICY_BACKEND_NAMES"),
            ("repro.schedulers.kernels", "LoopPolicyBackend"),
            ("repro.schedulers.kernels", "VectorizedPolicyBackend"),
            ("repro.ga", "LoopBackend"),
            ("repro.ga.kernels", "LoopBackend"),
        ],
    )
    def test_retired_names_are_gone(self, module, name):
        # The paper's seven schedulers run on one set of kernels; the loop
        # references live with the tests.
        assert not hasattr(importlib.import_module(module), name)

    def test_extended_schedulers_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.schedulers.extended")

    def test_retired_options_are_not_fields(self):
        # Neither a scheduling context nor the master carries a kernel backend.
        assert "kernels" not in [f.name for f in dataclasses.fields(SchedulingContext)]
        state = dict(time=0.0, rates=np.ones(2), pending_loads=np.zeros(2), comm_costs=np.zeros(2))
        with pytest.raises(TypeError, match="kernels"):
            SchedulingContext(**state, kernels=None)
        with pytest.raises(TypeError, match="kernels"):
            SchedulingContext.trusted(**state, rng=np.random.default_rng(0), kernels=None)
        with pytest.raises(TypeError, match="kernels"):
            SchedulingContext(**state).copy(kernels=None)
        master = Master(make_scheduler("EF", n_processors=2), 2, np.ones(2))
        assert not hasattr(master, "policy_kernels")
