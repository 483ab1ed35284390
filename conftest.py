"""Suite-wide post-condition: every simulated schedule is physically valid.

An autouse fixture wraps :meth:`DistributedSystemSimulation.run`, so each
:class:`~repro.sim.simulation.SimulationResult` a test produces in process
goes through :func:`~repro.analysis.schedule_check.validate_simulation`
against the submitted tasks; the test fails at teardown if any was invalid.
A run that injected load-spike tasks is checked without the task set, since
its trace holds tasks that were never submitted.  A test that asks for the
fixture by name gets the list of ``(scheduler, issues)`` found so far.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.analysis.schedule_check import validate_simulation
from repro.sim.simulation import DistributedSystemSimulation
from repro.workloads.task import TaskSet


@pytest.fixture(autouse=True)
def every_simulation_is_valid():
    run = DistributedSystemSimulation.run
    invalid = []

    def validated_run(sim):
        result = run(sim)
        tasks = None
        if not result.tasks_injected:
            tasks = sim.tasks if isinstance(sim.tasks, TaskSet) else TaskSet(sim.tasks)
        report = validate_simulation(result, tasks)
        if not report.ok:
            invalid.append((result.scheduler_name, [str(issue) for issue in report.issues]))
        return result

    with mock.patch.object(DistributedSystemSimulation, "run", validated_run):
        yield invalid
    assert not invalid, f"invalid simulated schedules: {invalid}"
