"""Tests of the batched static-replay fast path (`repro.sim.fastpath`).

The contract under test is strict: for every static configuration the fast
path must be *bit-identical* to the event-driven engine on every
trace-visible number — makespan, efficiency, response times, the full
execution trace (values and record order), scheduler invocation accounting,
queue-length trajectory, per-worker bookkeeping and the processed-event
count.  The event engine is forced, as the oracle, by patching
``uses_fast_path`` on the simulation instance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import (
    heterogeneous_cluster,
    homogeneous_cluster,
    varying_availability_cluster,
)
from repro.scenarios.dynamics import DynamicsTimeline, WorkerFailure
from repro.schedulers.registry import make_scheduler
from repro.sim import simulation as simulation_module
from repro.sim.simulation import DistributedSystemSimulation, SimulationConfig
from repro.util.errors import SimulationError
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

from reference_kernels import references

#: The two simulation engines every parity test compares.
ENGINES = ("event", "fast")

TRACE_COLUMNS = (
    "task_id",
    "proc_id",
    "size_mflops",
    "arrival_time",
    "assigned_time",
    "dispatch_time",
    "exec_start",
    "exec_end",
)


def build_cluster(kind, n_processors, mean_comm_cost, rng):
    if kind == "hetero":
        return heterogeneous_cluster(n_processors, mean_comm_cost=mean_comm_cost, rng=rng)
    if kind == "homog":
        return homogeneous_cluster(
            n_processors, 120.0, mean_comm_cost=mean_comm_cost, rng=rng
        )
    return varying_availability_cluster(
        n_processors, mean_comm_cost=mean_comm_cost, rng=rng
    )


def on_engine(sim, engine):
    """Force *sim* onto the event engine when *engine* is ``"event"``."""
    if engine == "event":
        sim.uses_fast_path = lambda: False
    return sim


def run_backend(
    backend,
    *,
    scheduler="MM",
    workload="normal",
    n_tasks=40,
    cluster_kind="hetero",
    n_processors=6,
    mean_comm_cost=8.0,
    seed=0,
    kernel_set="vectorized",
):
    tasks = generate_workload(
        workload_by_name(workload, n_tasks), np.random.default_rng(seed)
    )
    cluster = build_cluster(
        cluster_kind, n_processors, mean_comm_cost, np.random.default_rng(seed + 1)
    )
    sched = make_scheduler(
        scheduler,
        n_processors=n_processors,
        batch_size=12,
        max_generations=6,
        rng=seed + 2,
    )
    sim = DistributedSystemSimulation(
        sched,
        cluster,
        tasks,
        rng=seed + 3,
    )
    on_engine(sim, backend)
    if kernel_set == "loop":
        with references(sched):
            return sim, sim.run()
    return sim, sim.run()


def assert_identical(event, fast):
    sim_e, res_e = event
    sim_f, res_f = fast
    assert res_f.makespan == res_e.makespan
    assert res_f.efficiency == res_e.efficiency
    assert res_f.metrics.mean_response_time == res_e.metrics.mean_response_time
    assert res_f.metrics.mean_queue_wait == res_e.metrics.mean_queue_wait
    assert res_f.metrics.summary() == res_e.metrics.summary()
    assert res_f.scheduler_invocations == res_e.scheduler_invocations
    assert res_f.batch_sizes == res_e.batch_sizes
    assert res_f.events_processed == res_e.events_processed
    assert (
        res_f.metrics.dynamics.queue_length_trajectory
        == res_e.metrics.dynamics.queue_length_trajectory
    )
    assert len(res_f.trace) == len(res_e.trace)
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(
            res_f.trace.column(name), res_e.trace.column(name), err_msg=name
        )
    for worker_e, worker_f in zip(sim_e.workers, sim_f.workers):
        assert worker_f.tasks_completed == worker_e.tasks_completed
        assert worker_f.busy_seconds == worker_e.busy_seconds
        assert worker_f.comm_seconds == worker_e.comm_seconds
        assert worker_f.busy_until == worker_e.busy_until
    np.testing.assert_array_equal(
        sim_f.master.pending_loads, sim_e.master.pending_loads
    )


class TestBackendParity:
    @pytest.mark.parametrize("scheduler", ["EF", "LL", "RR", "MM", "MX"])
    @pytest.mark.parametrize("cluster_kind", ["hetero", "homog", "varying"])
    def test_bit_identical_across_schedulers_and_clusters(self, scheduler, cluster_kind):
        kwargs = dict(scheduler=scheduler, cluster_kind=cluster_kind, seed=11)
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    @pytest.mark.parametrize("scheduler", ["EF", "MM"])
    def test_bit_identical_with_poisson_arrivals(self, scheduler):
        # Arrivals spread over time interleave with completions in the live
        # merge phase; ties and re-invocations must still replay exactly.
        kwargs = dict(
            scheduler=scheduler, workload="poisson_small", n_tasks=30, seed=5
        )
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    def test_bit_identical_with_zero_comm_cost(self):
        # mean 0 links never consume the network stream in either backend.
        kwargs = dict(cluster_kind="homog", mean_comm_cost=0.0, seed=3)
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    def test_bit_identical_homogeneous_ties(self):
        # Homogeneous cluster + deterministic links: masses of simultaneous
        # completions exercise the (time, seq) tie-break replication.
        kwargs = dict(
            cluster_kind="homog", workload="uniform_narrow", n_tasks=36, seed=9
        )
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**20),
        scheduler=st.sampled_from(["EF", "LL", "RR", "MM", "MX"]),
        cluster_kind=st.sampled_from(["hetero", "homog", "varying"]),
        workload=st.sampled_from(["normal", "uniform_wide", "poisson_small"]),
        n_tasks=st.integers(5, 40),
        n_processors=st.integers(1, 8),
        mean_comm_cost=st.sampled_from([0.0, 2.0, 15.0]),
        kernel_set=st.sampled_from(["loop", "vectorized"]),
    )
    def test_property_event_and_fast_results_equal(
        self,
        seed,
        scheduler,
        cluster_kind,
        workload,
        n_tasks,
        n_processors,
        mean_comm_cost,
        kernel_set,
    ):
        # The kernel set is drawn too: event/fast equality must hold whether
        # decisions run on the per-task references (loop) or on the kernels,
        # in batched waves (vectorized) — and, transitively, the four
        # combinations agree.
        kwargs = dict(
            scheduler=scheduler,
            workload=workload,
            n_tasks=n_tasks,
            cluster_kind=cluster_kind,
            n_processors=n_processors,
            mean_comm_cost=mean_comm_cost,
            seed=seed,
            kernel_set=kernel_set,
        )
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))


class TestBackendSelection:
    def test_fast_is_the_default(self):
        # The input alone selects the engine: a static run on the default
        # config replays through the fast path.
        sim = self._sim()
        assert sim.config == SimulationConfig()
        assert sim.uses_fast_path()

    def test_unknown_backend_rejected(self):
        # The engine is no longer a config option at all.
        with pytest.raises(TypeError, match="sim_backend"):
            SimulationConfig(sim_backend="event")
        with pytest.raises(TypeError, match="policy_backend"):
            SimulationConfig(policy_backend="loop")

    def _sim(self, *, dynamics=None, engine="fast", n_tasks=10, n_processors=3, **config):
        tasks = generate_workload(
            workload_by_name("normal", n_tasks), np.random.default_rng(0)
        )
        cluster = homogeneous_cluster(n_processors, 100.0, mean_comm_cost=1.0)
        sched = make_scheduler(
            "EF", n_processors=n_processors, batch_size=5, max_generations=5, rng=1
        )
        sim = DistributedSystemSimulation(
            sched,
            cluster,
            tasks,
            config=SimulationConfig(**config),
            dynamics=dynamics,
            rng=2,
        )
        return on_engine(sim, engine)

    def test_static_run_uses_fast_path(self):
        assert self._sim().uses_fast_path()

    def test_event_backend_opts_out(self, monkeypatch):
        # Patching uses_fast_path on an instance is the seam the parity tests
        # and the golden digests use to force the event engine: the run must
        # then never enter the static replay.
        def no_replay(sim):
            raise AssertionError("static replay entered on a forced event run")

        monkeypatch.setattr(simulation_module, "run_static_replay", no_replay)
        sim = self._sim(engine="event")
        assert not sim.uses_fast_path()
        assert sim.run().metrics.tasks_completed == 10

    def test_empty_dynamics_timeline_is_static(self):
        assert self._sim(dynamics=DynamicsTimeline(())).uses_fast_path()

    def test_real_dynamics_fall_back_to_event_engine(self):
        sim = self._sim(
            dynamics=DynamicsTimeline([WorkerFailure(time=5.0, proc=0)])
        )
        assert not sim.uses_fast_path()
        result = sim.run()  # and the fallback still completes the workload
        assert result.metrics.tasks_completed == 10

    def test_fast_path_enforces_event_budget(self):
        sim = self._sim(n_tasks=20, n_processors=2, max_events=10)
        assert sim.uses_fast_path()
        with pytest.raises(SimulationError, match="event budget"):
            sim.run()

    @pytest.mark.parametrize("cluster_kind", ["hetero", "homog"])
    def test_budget_exceeded_inside_terminal_drain(self, cluster_kind):
        # Enough budget for the live merge phase but not the drain: the
        # replay must raise the engine's exact storm error on stochastic and
        # on deterministic links alike.
        tasks = generate_workload(
            workload_by_name("normal", 20), np.random.default_rng(0)
        )
        cluster = build_cluster(cluster_kind, 2, 1.0, np.random.default_rng(1))
        budget = 30  # > arrivals + invoke + initial fetches, < full drain
        for engine in ENGINES:
            sched = make_scheduler(
                "EF", n_processors=2, batch_size=5, max_generations=5, rng=1
            )
            sim = DistributedSystemSimulation(
                sched, cluster, tasks, config=SimulationConfig(max_events=budget), rng=2
            )
            with pytest.raises(SimulationError, match="event budget"):
                on_engine(sim, engine).run()

    def test_budget_error_preserves_partial_trace_like_event_backend(self):
        # When the storm guard fires, the records completed before the error
        # must already be in the trace — identically in both backends — so a
        # caller debugging the storm sees the same partial execution.
        sims = {}
        for backend in ENGINES:
            tasks = generate_workload(
                workload_by_name("normal", 40), np.random.default_rng(0)
            )
            cluster = build_cluster("hetero", 3, 2.0, np.random.default_rng(1))
            sched = make_scheduler(
                "EF", n_processors=3, batch_size=10, max_generations=5, rng=1
            )
            sim = DistributedSystemSimulation(
                sched,
                cluster,
                tasks,
                config=SimulationConfig(max_events=100),
                rng=2,
            )
            with pytest.raises(SimulationError, match="event budget"):
                on_engine(sim, backend).run()
            sims[backend] = sim
        event_sim, fast_sim = sims["event"], sims["fast"]
        assert len(fast_sim.trace) == len(event_sim.trace) > 0
        assert fast_sim._completed == event_sim._completed
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                fast_sim.trace.column(name), event_sim.trace.column(name), err_msg=name
            )

    def test_bit_identical_with_time_varying_link_condition(self):
        # No built-in topology varies link conditions over time, but the
        # model supports it; the replay must resolve the per-dispatch mean
        # exactly as CommLink.sample_cost does.
        from repro.cluster.cluster import Cluster
        from repro.cluster.network import CommLink, Network
        from repro.cluster.processor import Processor
        from repro.cluster.variation import SinusoidalAvailability

        def build():
            processors = [Processor(proc_id=i, peak_rate_mflops=100.0) for i in range(3)]
            links = [
                CommLink(
                    proc_id=i,
                    mean_cost=2.0 + i,
                    relative_std=0.2 * i,  # includes a zero-variance varying link
                    condition=SinusoidalAvailability(base=0.8, amplitude=0.15, period=40.0),
                )
                for i in range(3)
            ]
            return Cluster(processors, Network(links))

        tasks = generate_workload(
            workload_by_name("normal", 25), np.random.default_rng(4)
        )
        results = {}
        for backend in ENGINES:
            sched = make_scheduler("EF", n_processors=3, batch_size=10, max_generations=5, rng=5)
            sim = DistributedSystemSimulation(sched, build(), tasks, rng=6)
            results[backend] = on_engine(sim, backend).run()
        event, fast = results["event"], results["fast"]
        assert fast.makespan == event.makespan
        assert fast.events_processed == event.events_processed
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                fast.trace.column(name), event.trace.column(name), err_msg=name
            )


@pytest.fixture
def force_event_engine(monkeypatch):
    """Call to force every simulation in this process onto the event engine."""

    def force():
        monkeypatch.setattr(DistributedSystemSimulation, "uses_fast_path", lambda self: False)

    return force


class TestScaleAndRunnerThreading:
    def test_scale_validates_sim_backend(self):
        from repro.experiments.config import get_scale

        # No backend is selectable above the sim engine any more.
        with pytest.raises(TypeError, match="sim_backend"):
            get_scale("smoke").scaled(sim_backend="event")

    #: The scenario the input-selected engine runs: a dynamic timeline pumps
    #: the event engine, a static one replays through the fast path.
    ENGINE_SCENARIOS = {"event": "failure-storm", "fast": "steady-state"}

    @pytest.mark.parametrize("sim_backend", ["event", "fast"])
    def test_scenario_matrix_serial_vs_jobs_identical(self, sim_backend):
        from repro.experiments.config import get_scale
        from repro.parallel.executor import ParallelExecutor
        from repro.scenarios.runner import run_scenario_matrix

        scenario = self.ENGINE_SCENARIOS[sim_backend]
        scale = get_scale("smoke")
        serial = run_scenario_matrix(
            [scenario], scale=scale, schedulers=["EF", "MM"], repeats=2, seed=13
        )
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_scenario_matrix(
                [scenario],
                scale=scale,
                schedulers=["EF", "MM"],
                repeats=2,
                seed=13,
                executor=executor,
            )
        assert serial.signature() == parallel.signature()

    def test_scenario_backends_agree_on_static_scenarios(self, force_event_engine):
        from repro.experiments.config import get_scale
        from repro.scenarios.runner import run_scenario_matrix

        def signature():
            return run_scenario_matrix(
                ["steady-state"],
                scale=get_scale("smoke"),
                schedulers=["EF", "MM"],
                repeats=2,
                seed=13,
            ).signature()

        fast = signature()
        force_event_engine()
        assert signature() == fast

    def test_compare_schedulers_backends_agree(self, force_event_engine):
        from repro.experiments.config import get_scale
        from repro.experiments.runner import compare_schedulers

        def outcome():
            result = compare_schedulers(
                workload_by_name("normal", 30),
                get_scale("smoke").scaled(repeats=2),
                mean_comm_cost=5.0,
                scheduler_names=["EF", "MM"],
                seed=21,
            )
            return {
                name: (cmp.makespan.mean, cmp.efficiency.mean, cmp.invocations.mean)
                for name, cmp in result.schedulers.items()
            }

        fast = outcome()
        force_event_engine()
        assert outcome() == fast

    def test_cell_outcomes_report_wall_clock_and_events_per_second(self):
        from repro.experiments.config import get_scale
        from repro.scenarios.runner import run_scenario_matrix

        result = run_scenario_matrix(
            ["steady-state"],
            scale=get_scale("smoke"),
            schedulers=["EF"],
            repeats=2,
            seed=3,
        )
        for outcome in result.outcomes:
            assert outcome.wall_clock_seconds > 0
            assert outcome.events_per_second > 0
        agg = result.aggregate("steady-state", "EF")
        assert agg.wall_clock_seconds.mean > 0
        assert agg.events_per_second.mean > 0
        timing = result.timing()
        assert timing["steady-state"]["EF"]["events_per_second_mean"] > 0


class TestSharedSampler:
    """Both loops draw communication costs through ``fastpath._sample_comm``.

    Their parity tests cannot catch a bug in a sampler they share, so it is
    held here to :meth:`CommLink.sample_cost` draw for draw: the same value
    per dispatch, from one seeded stream, with the same draws consumed.
    """

    class CountingNormals:
        """A ``_NormalBlocks`` that counts the draws the sampler takes."""

        def __init__(self, rng):
            from repro.sim.fastpath import _NormalBlocks

            self.blocks = _NormalBlocks(rng)
            self.taken = 0

        def next(self):
            self.taken += 1
            return self.blocks.next()

    @staticmethod
    def links():
        from repro.cluster.network import CommLink
        from repro.cluster.variation import SinusoidalAvailability

        def varying():
            return SinusoidalAvailability(base=0.7, amplitude=0.25, period=30.0)

        return {
            "zero-mean": CommLink(proc_id=0, mean_cost=0.0, relative_std=0.3),
            "zero-variance": CommLink(proc_id=0, mean_cost=4.0, relative_std=0.0),
            "normal": CommLink(proc_id=0, mean_cost=4.0, relative_std=0.25),
            "time-varying": CommLink(
                proc_id=0, mean_cost=4.0, relative_std=0.25, condition=varying()
            ),
            "time-varying-zero-mean": CommLink(
                proc_id=0, mean_cost=0.0, relative_std=0.25, condition=varying()
            ),
            # Relative spread 2: about a third of the raw draws are negative.
            "clamped": CommLink(proc_id=0, mean_cost=4.0, relative_std=2.0),
        }

    def draw_both(self, links, picks, seed):
        """Costs for ``(proc, time)`` *picks* from the sampler and from the links.

        Returns both cost lists and the sampler's draw count, after checking
        that the reference stream moved by exactly that many draws.
        """
        from types import SimpleNamespace

        from repro.cluster.cluster import Cluster
        from repro.cluster.network import CommLink, Network
        from repro.cluster.processor import Processor
        from repro.sim.fastpath import _comm_plans, _sample_comm

        links = [
            CommLink(proc, link.mean_cost, link.relative_std, link.condition)
            for proc, link in enumerate(links)
        ]
        cluster = Cluster(
            [Processor(proc_id=proc, peak_rate_mflops=100.0) for proc in range(len(links))],
            Network(links),
        )
        plans = _comm_plans(SimpleNamespace(cluster=cluster))
        normals = self.CountingNormals(np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        shared = [_sample_comm(plans[proc], t, normals) for proc, t in picks]
        expected = [links[proc].sample_cost(reference, t) for proc, t in picks]
        replay = np.random.default_rng(seed)
        replay.standard_normal(normals.taken)
        assert reference.bit_generator.state == replay.bit_generator.state
        return shared, expected, normals.taken

    @pytest.mark.parametrize(
        "kind",
        [
            "zero-mean",
            "zero-variance",
            "normal",
            "time-varying",
            "time-varying-zero-mean",
            "clamped",
        ],
    )
    def test_equals_comm_link_sample_cost(self, kind):
        picks = [(0, 0.37 * i) for i in range(300)]
        shared, expected, taken = self.draw_both([self.links()[kind]], picks, seed=5)
        assert shared == expected
        if kind.endswith("zero-mean"):
            assert taken == 0  # a zero-mean link returns 0.0 without drawing
        else:
            assert taken == len(picks)  # one draw per dispatch, even at zero spread
        if kind == "zero-variance":
            assert set(shared) == {4.0}
        if kind == "clamped":
            assert min(shared) == 0.0 and max(shared) > 0.0

    def test_interleaved_links_share_one_stream(self):
        links = list(self.links().values())
        rng = np.random.default_rng(8)
        procs = rng.integers(0, len(links), 500).tolist()
        times = np.cumsum(rng.random(500)).tolist()
        shared, expected, _ = self.draw_both(links, list(zip(procs, times)), seed=9)
        assert shared == expected
