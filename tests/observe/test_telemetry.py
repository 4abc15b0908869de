"""End-to-end telemetry wiring: Simulation, runner, and oracle metrics."""

import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.observe import Telemetry
from repro.resilience.runner import ResilientRunner
from repro.verify.invariants import InvariantSuite
from repro.verify.oracle import DifferentialOracle


def _config(**overrides):
    defaults = dict(fluid_shape=(16, 16, 16), tau=0.8)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSimulationWiring:
    def test_run_bumps_step_counter(self):
        telemetry = Telemetry()
        with Simulation(_config(), telemetry=telemetry) as sim:
            sim.run(4)
            sim.run(3)
        assert telemetry.metrics.counter("sim.steps").value == 7

    def test_attach_telemetry_after_construction(self):
        telemetry = Telemetry()
        with Simulation(_config()) as sim:
            sim.attach_telemetry(telemetry)
            assert sim.telemetry is telemetry
            sim.run(1)
        assert telemetry.metrics.counter("sim.steps").value == 1
        assert len(telemetry.tracer) > 0

    def test_lazy_distributed_solver_gets_tracer_on_first_run(self):
        telemetry = Telemetry()
        config = _config(
            solver="distributed",
            num_threads=2,
            structure=StructureConfig(kind="none"),
        )
        with Simulation(config, telemetry=telemetry) as sim:
            assert sim._solver is None  # still lazy after attach
            sim.run(2)
            assert sim._solver.tracer is telemetry.tracer
        assert {s.tid for s in telemetry.tracer.spans} == {0, 1}

    def test_distributed_layouts_emit_the_same_phases(self):
        """Slab and cube rank layouts trace one phase vocabulary per rank."""
        names = {}
        for solver in ("distributed", "hybrid"):
            telemetry = Telemetry()
            config = _config(
                fluid_shape=(16, 8, 8),
                solver=solver,
                cube_size=4,
                num_threads=2,
                structure=StructureConfig(
                    kind="flat_sheet", num_fibers=3, nodes_per_fiber=3
                ),
            )
            with Simulation(config, telemetry=telemetry) as sim:
                sim.run(1)
            per_rank = {0: set(), 1: set()}
            for span in telemetry.tracer.spans:
                per_rank[span.tid].add(span.name)
            names[solver] = per_rank
        assert names["distributed"] == names["hybrid"]
        assert names["distributed"][0] == names["distributed"][1] == {
            "fiber_forces_and_spread",
            "compute_fluid_collision",
            "stream_fluid_velocity_distribution",
            "halo_exchange",
            "update_fluid_velocity",
            "move_fibers",
            "copy_fluid_velocity_distribution",
        }

    def test_collect_harvests_cube_solver_statistics(self):
        telemetry = Telemetry()
        config = _config(solver="cube", num_threads=2)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(2)
            telemetry.collect(sim)
        snap = telemetry.metrics.snapshot()
        # 3 barriers x 2 steps
        assert snap["counters"]["parallel.barrier_crossings"] == 6
        assert snap["counters"]["parallel.lock_acquisitions"] > 0
        assert snap["histograms"]["parallel.barrier_wait_seconds"]["count"] > 0
        assert "parallel.load_imbalance" in snap["gauges"]

    def test_collect_counts_async_tasks(self):
        telemetry = Telemetry()
        config = _config(solver="async_cube", num_threads=2)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(1)
            telemetry.collect(sim)
        counters = telemetry.metrics.snapshot()["counters"]
        # one task per cube for stream/update/copy + fiber blocks x2
        assert counters["parallel.tasks_executed"] >= 3 * 64

    def test_invariant_checks_counted(self):
        telemetry = Telemetry()
        suite = InvariantSuite.default(_config())
        with Simulation(_config(), invariants=suite, telemetry=telemetry) as sim:
            sim.run(3)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["verify.invariant_checks"] == 3 * len(suite.invariants)


class TestRunnerWiring:
    def test_incidents_mirrored_as_counters(self, tmp_path):
        telemetry = Telemetry()
        runner = ResilientRunner(
            _config(),
            tmp_path,
            telemetry=telemetry,
            checkpoint_every=2,
        )
        sim = runner.run(4)
        sim.close()
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["resilience.job_dispatched"] == 1
        assert counters["resilience.checkpoint_saved"] == 2
        assert counters["resilience.job_completed"] == 1
        assert counters["sim.steps"] == 4


class TestOracleWiring:
    def test_steps_compared_and_divergences(self):
        telemetry = Telemetry()
        oracle = DifferentialOracle(
            _config(), variant_b="fused", telemetry=telemetry
        )
        assert oracle.run(2) is None
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["verify.steps_compared"] == 2
        assert "verify.divergences" not in counters

    def test_divergence_counter_on_perturbed_config(self):
        telemetry = Telemetry()
        base = _config(structure=StructureConfig(kind="none"))
        perturbed = _config(
            tau=0.9, structure=StructureConfig(kind="none")
        )
        oracle = DifferentialOracle(
            base,
            variant_b="sequential",
            config_b=perturbed,
            state_seed=1,
            telemetry=telemetry,
        )
        divergence = oracle.run(5)
        assert divergence is not None
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["verify.divergences"] == 1
        assert counters["verify.steps_compared"] == divergence.step
