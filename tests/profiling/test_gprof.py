"""Tests of the gprof-style flat profiler."""

import pytest

from repro.profiling.gprof import FlatProfile


class TestFlatProfile:
    def test_accumulates_seconds_and_calls(self):
        p = FlatProfile()
        p("compute_fluid_collision", 0.5)
        p("compute_fluid_collision", 0.25)
        p("move_fibers", 0.25)
        assert p.seconds["compute_fluid_collision"] == pytest.approx(0.75)
        assert p.calls["compute_fluid_collision"] == 2
        assert p.total_seconds == pytest.approx(1.0)

    def test_percentages_sorted_descending(self):
        p = FlatProfile()
        p("move_fibers", 1.0)
        p("compute_fluid_collision", 3.0)
        pct = p.percentages()
        assert list(pct) == ["compute_fluid_collision", "move_fibers"]
        assert pct["compute_fluid_collision"] == pytest.approx(75.0)

    def test_empty_profile(self):
        assert FlatProfile().percentages() == {}
        assert FlatProfile().total_seconds == 0

    def test_kernel_index_matches_algorithm1(self):
        p = FlatProfile()
        assert p.kernel_index("compute_bending_force_in_fibers") == 1
        assert p.kernel_index("compute_fluid_collision") == 5
        assert p.kernel_index("copy_fluid_velocity_distribution") == 9

    def test_table_rendering(self):
        p = FlatProfile()
        p("compute_fluid_collision", 0.9)
        p("move_fibers", 0.1)
        table = p.as_table()
        assert "compute_fluid_collision" in table
        assert "90.00%" in table
        assert "Total" in table

    def test_reset(self):
        p = FlatProfile()
        p("move_fibers", 1.0)
        p.reset()
        assert p.total_seconds == 0

    def test_integrates_with_solver(self):
        from repro.api import Simulation, SimulationConfig, StructureConfig
        from repro.observe import Telemetry

        sim = Simulation(
            SimulationConfig(
                fluid_shape=(8, 8, 8),
                tau=0.8,
                structure=StructureConfig(num_fibers=3, nodes_per_fiber=3),
            )
        )
        telemetry = Telemetry()
        sim.attach_telemetry(telemetry)
        sim.run(3)
        profile = telemetry.tracer.flat_profile()
        assert len(profile.seconds) == 9
        assert all(c == 3 for c in profile.calls.values())
        assert abs(sum(profile.percentages().values()) - 100.0) < 1e-9
