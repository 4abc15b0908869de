"""An invariant violation inside a worker surfaces as InvariantError.

Before the executor fix, any exception raised by a worker's step hook
was reported as a generic ``WorkerError`` wrapping the original, so a
caller could not catch invariant violations distinctly or read the
thread/cube localization.  ``_primary_error`` now unwraps a worker's
``InvariantError`` and stamps the observing thread onto it.
"""

import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.errors import InvariantError, WorkerError
from repro.resilience import Fault, FaultInjector, FaultPlan
from repro.verify import InvariantSuite
from repro.verify.oracle import seeded_initial_fluid

pytestmark = pytest.mark.verify


def _config(solver):
    return SimulationConfig(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        solver=solver,
        num_threads=2,
        cube_size=2,
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
    )


def _corrupting_sim(solver, step=2, field="df"):
    config = _config(solver)
    plan = FaultPlan.of(
        [Fault(kind="corrupt_field", step=step, tid=0, fluid_field=field)], seed=3
    )
    sim = Simulation(
        config,
        fault_injector=FaultInjector(plan),
        initial_fluid=seeded_initial_fluid(config, 13),
        invariants=InvariantSuite.default(config),
    )
    return sim


class TestCubeWorkerSurfacing:
    def test_invariant_error_unwrapped_with_thread_and_cube(self):
        with _corrupting_sim("cube") as sim:
            with pytest.raises(InvariantError) as exc:
                sim.run(4)
        err = exc.value
        assert not isinstance(err, WorkerError)
        assert err.invariant == "finite_fields"
        assert err.tid is not None
        assert err.cube is not None and len(err.cube) == 3
        text = str(err)
        assert "thread" in text and "cube" in text

    def test_async_cube_surfaces_too(self):
        with _corrupting_sim("async_cube") as sim:
            with pytest.raises(InvariantError):
                sim.run(4)


class TestOpenmpWorkerSurfacing:
    def test_invariant_error_unwrapped_with_thread(self):
        """The slab solver has no cubes; the thread is still stamped."""
        with _corrupting_sim("openmp") as sim:
            with pytest.raises(InvariantError) as exc:
                sim.run(4)
        assert exc.value.tid is not None
        assert not isinstance(exc.value, WorkerError)


class TestContrast:
    def test_without_invariants_corruption_is_silent_at_first(self):
        """Control: the fault alone raises nothing at the faulted step —
        the sentinel is what converts corruption into a typed error."""
        config = _config("cube")
        plan = FaultPlan.of(
            [Fault(kind="corrupt_field", step=2, tid=0, fluid_field="force")], seed=3
        )
        with Simulation(
            config,
            fault_injector=FaultInjector(plan),
            initial_fluid=seeded_initial_fluid(config, 13),
        ) as sim:
            sim.run(2)  # corrupting step completes without an exception

    def test_non_invariant_worker_failure_still_wrapped(self):
        """A killed worker keeps its existing WorkerError reporting."""
        config = _config("cube")
        plan = FaultPlan.of([Fault(kind="kill_worker", step=2, tid=1)], seed=3)
        with Simulation(
            config,
            fault_injector=FaultInjector(plan),
            initial_fluid=seeded_initial_fluid(config, 13),
        ) as sim:
            with pytest.raises(WorkerError):
                sim.run(4)
