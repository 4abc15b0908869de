"""Tests of the hybrid distributed + cube solver."""

import numpy as np
import pytest

from repro.core.ib import geometry
from repro.core.lbm.boundaries import BounceBackWall, OutflowBoundary
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.distributed import DistributedLBMIBSolver
from repro.errors import PartitionError

SHAPE = (16, 8, 8)
STEPS = 5
RTOL, ATOL = 1e-10, 1e-12


def _make_state(with_structure=True):
    grid = FluidGrid(SHAPE, tau=0.8)
    structure = None
    if with_structure:
        structure = geometry.flat_sheet(
            SHAPE, num_fibers=4, nodes_per_fiber=4, stretch_coefficient=0.04
        )
        structure.sheets[0].positions[1, 1, 0] += 0.6
    return grid, structure


@pytest.fixture(scope="module")
def sequential_result():
    grid, structure = _make_state()
    SequentialLBMIBSolver(grid, structure).run(STEPS)
    return grid, structure


class TestEquivalence:
    @pytest.mark.parametrize("ranks,k", [(1, 4), (2, 4), (4, 4), (2, 2), (4, 2)])
    def test_matches_sequential(self, sequential_result, ranks, k):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        solver = DistributedLBMIBSolver(grid, structure, num_ranks=ranks, cube_size=k)
        solver.run(STEPS)
        assert ref_grid.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)
        assert ref_structure.state_allclose(solver.structure, rtol=RTOL, atol=ATOL)

    def test_with_boundaries(self):
        boundaries = [
            BounceBackWall(0, "low", wall_velocity=(0.02, 0, 0)),
            OutflowBoundary(0, "high"),
            BounceBackWall(1, "low"),
            BounceBackWall(1, "high"),
        ]
        ref_grid, ref_structure = _make_state()
        SequentialLBMIBSolver(ref_grid, ref_structure, boundaries=boundaries).run(STEPS)
        grid, structure = _make_state()
        solver = DistributedLBMIBSolver(
            grid, structure, num_ranks=2, cube_size=4, boundaries=boundaries
        )
        solver.run(STEPS)
        assert ref_grid.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)

    def test_fluid_only_with_trt(self):
        grid_a = FluidGrid(SHAPE, tau=0.8, collision_operator="trt")
        rng = np.random.default_rng(3)
        grid_a.initialize_equilibrium(velocity=0.01 * rng.standard_normal((3,) + SHAPE))
        grid_b = grid_a.copy()
        SequentialLBMIBSolver(grid_a, None).run(STEPS)
        solver = DistributedLBMIBSolver(grid_b, None, num_ranks=2, cube_size=2)
        solver.run(STEPS)
        assert grid_a.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)

    def test_external_force(self):
        force = (2e-5, 0.0, 0.0)
        grid_a, struct_a = _make_state()
        SequentialLBMIBSolver(grid_a, struct_a, external_force=force).run(STEPS)
        grid_b, struct_b = _make_state()
        solver = DistributedLBMIBSolver(
            grid_b, struct_b, num_ranks=2, cube_size=4, external_force=force
        )
        solver.run(STEPS)
        assert grid_a.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)

    def test_uneven_cube_rows(self):
        """4 cube-rows of x over 3 ranks: slabs of 2, 1, 1 cubes."""
        ref_grid, ref_structure = _make_state()
        SequentialLBMIBSolver(ref_grid, ref_structure).run(STEPS)
        grid, structure = _make_state()
        solver = DistributedLBMIBSolver(grid, structure, num_ranks=3, cube_size=4)
        assert [slab.size for slab in solver.slabs] == [8, 4, 4]
        solver.run(STEPS)
        assert ref_grid.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)


class TestValidation:
    def test_rejects_more_ranks_than_cube_rows(self):
        grid, structure = _make_state()
        with pytest.raises(PartitionError, match="rank slabs"):
            DistributedLBMIBSolver(grid, structure, num_ranks=5, cube_size=4)

    def test_rejects_indivisible_yz(self):
        grid = FluidGrid((16, 10, 8), tau=0.8)
        with pytest.raises(PartitionError, match="y/z"):
            DistributedLBMIBSolver(grid, None, num_ranks=2, cube_size=4)

    def test_rejects_indivisible_x(self):
        grid = FluidGrid((18, 8, 8), tau=0.8)
        with pytest.raises(PartitionError):
            DistributedLBMIBSolver(grid, None, num_ranks=2, cube_size=4)

    def test_halo_traffic_counted(self):
        grid, _ = _make_state(with_structure=False)
        solver = DistributedLBMIBSolver(grid, None, num_ranks=2, cube_size=4)
        solver.run(2)
        assert solver.comm.total_messages() == 2 * 2 * 2  # ranks x sides x steps
