"""ResilientRunner + invariant suite: rollback preserves the physics.

The acceptance story for wiring verification into resilience: a fault
corrupts the state, the per-step invariant check converts it into a
typed ``InvariantError`` at the first bad step, the runner rolls back
to the last good checkpoint and retries with damped tau — and the
invariant suite, rebound to the restored state, passes on every step
of the retried run.
"""

import pytest

from repro.api import SimulationConfig
from repro.config import StructureConfig
from repro.errors import InvariantError
from repro.resilience import Fault, FaultInjector, FaultPlan, ResilientRunner, RetryPolicy
from repro.verify import InvariantSuite

pytestmark = [pytest.mark.faults, pytest.mark.verify]


def _config(**overrides):
    base = dict(
        fluid_shape=(8, 8, 8),
        structure=StructureConfig(num_fibers=4, nodes_per_fiber=4),
        solver="sequential",
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestRollbackPreservesInvariants:
    def test_corruption_rolls_back_and_retried_run_passes_checks(self, tmp_path):
        config = _config()
        suite = InvariantSuite.default(config)
        plan = FaultPlan.of(
            [Fault(kind="corrupt_field", step=7, tid=0, count=4)], seed=5
        )
        runner = ResilientRunner(
            config,
            tmp_path,
            policy=RetryPolicy(max_attempts=4),
            fault_injector=FaultInjector(plan),
            invariants=suite,
            checkpoint_every=5,
        )
        sim = runner.run(12)
        try:
            assert sim.time_step == 12
            sim.fluid.validate_stable()
            # the violation was caught as a typed invariant failure and
            # handled exactly like a stability blow-up
            log = runner.incidents
            assert log.count("job_retry") == 1
            assert log.count("job_completed") == 1
            (retry,) = log.events_of("job_retry")
            assert retry.detail["from_step"] == 5
            assert retry.detail["tau"] > config.effective_tau
            # the rebound suite checked every step of the retried run
            assert sim.invariants is suite
            assert suite.checks_passed > 0
            suite.check_simulation(sim)  # final state still clean
        finally:
            sim.close()

    def test_persistent_violation_exhausts_budget_and_raises(self, tmp_path):
        config = _config()
        plan = FaultPlan.of(
            [Fault(kind="corrupt_field", step=2, tid=0, once=False)], seed=6
        )
        runner = ResilientRunner(
            config,
            tmp_path,
            policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(plan),
            invariants=InvariantSuite.default(config),
            checkpoint_every=5,
        )
        with pytest.raises(InvariantError):
            runner.run(10)
        assert runner.incidents.count("job_failed") == 1

    def test_cube_solver_rollback_with_invariants(self, tmp_path):
        """Same story on the cube solver: the worker sentinel raises,
        the pool surfaces the typed error, the runner recovers."""
        config = _config(solver="cube", num_threads=2, cube_size=4)
        suite = InvariantSuite.default(config)
        plan = FaultPlan.of(
            [Fault(kind="corrupt_field", step=7, tid=0, count=4)], seed=7
        )
        runner = ResilientRunner(
            config,
            tmp_path,
            policy=RetryPolicy(max_attempts=4),
            fault_injector=FaultInjector(plan),
            invariants=suite,
            checkpoint_every=5,
        )
        sim = runner.run(10)
        try:
            assert sim.time_step == 10
            assert runner.incidents.count("job_retry") >= 1
            assert runner.incidents.count("job_completed") == 1
            suite.check_simulation(sim)
        finally:
            sim.close()
