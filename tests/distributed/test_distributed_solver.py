"""Tests of the distributed-memory LBM-IB solver."""

import numpy as np
import pytest

from repro.core.ib import geometry
from repro.core.lbm.boundaries import BounceBackWall, OutflowBoundary
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.distributed import DistributedLBMIBSolver
from repro.errors import ConfigurationError

SHAPE = (12, 8, 8)
STEPS = 6
RTOL, ATOL = 1e-10, 1e-12
#: Rank-local layouts: global-layout slabs, or rows of 4-cubes.
LAYOUTS, LAYOUT_IDS = [None, 4], ["slab", "cube"]


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
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 6])
    def test_matches_sequential(self, sequential_result, ranks):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        solver = DistributedLBMIBSolver(grid, structure, num_ranks=ranks)
        solver.run(STEPS)
        assert ref_grid.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)
        assert ref_structure.state_allclose(solver.structure, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("cube_size", LAYOUTS, ids=LAYOUT_IDS)
    def test_replicas_stay_bitwise_identical(self, cube_size):
        """Every rank must hold the same structure after any run."""
        grid, structure = _make_state()
        solver = DistributedLBMIBSolver(
            grid, structure, num_ranks=3, cube_size=cube_size
        )
        solver.run(STEPS)
        assert solver.structures_consistent(rtol=0.0, atol=0.0)

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
            grid, structure, num_ranks=3, boundaries=boundaries
        )
        solver.run(STEPS)
        assert ref_grid.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)

    def test_fluid_only(self):
        grid_a, _ = _make_state(with_structure=False)
        rng = np.random.default_rng(5)
        grid_a.initialize_equilibrium(
            velocity=0.01 * rng.standard_normal((3,) + SHAPE)
        )
        grid_b = grid_a.copy()
        SequentialLBMIBSolver(grid_a, None).run(STEPS)
        solver = DistributedLBMIBSolver(grid_b, None, num_ranks=4)
        solver.run(STEPS)
        assert grid_a.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)

    def test_external_force(self):
        force = (2e-5, 0.0, 0.0)
        grid_a, struct_a = _make_state()
        SequentialLBMIBSolver(grid_a, struct_a, external_force=force).run(STEPS)
        grid_b, struct_b = _make_state()
        solver = DistributedLBMIBSolver(
            grid_b, struct_b, num_ranks=2, external_force=force
        )
        solver.run(STEPS)
        assert grid_a.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)

    def test_trt_operator_distributed(self):
        grid_a = FluidGrid(SHAPE, tau=0.8, collision_operator="trt")
        rng = np.random.default_rng(9)
        grid_a.initialize_equilibrium(
            velocity=0.01 * rng.standard_normal((3,) + SHAPE)
        )
        grid_b = grid_a.copy()
        SequentialLBMIBSolver(grid_a, None).run(STEPS)
        solver = DistributedLBMIBSolver(grid_b, None, num_ranks=3)
        solver.run(STEPS)
        assert grid_a.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)

    def test_uneven_slabs(self, sequential_result):
        """Nx = 12 over 5 ranks: slabs of 3,3,2,2,2."""
        ref_grid, _ = sequential_result
        grid, structure = _make_state()
        solver = DistributedLBMIBSolver(grid, structure, num_ranks=5)
        solver.run(STEPS)
        assert ref_grid.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)


class TestCommunicationPattern:
    def test_two_messages_per_rank_per_step(self):
        grid, _ = _make_state(with_structure=False)
        solver = DistributedLBMIBSolver(grid, None, num_ranks=3)
        solver.run(4)
        # each rank sends one right-going and one left-going halo per step
        assert solver.comm.total_messages() == 3 * 2 * 4

    @pytest.mark.parametrize("cube_size", LAYOUTS, ids=LAYOUT_IDS)
    def test_halo_bytes(self, cube_size):
        grid, _ = _make_state(with_structure=False)
        solver = DistributedLBMIBSolver(grid, None, num_ranks=2, cube_size=cube_size)
        solver.run(1)
        ny, nz = SHAPE[1], SHAPE[2]
        per_message = 5 * ny * nz * 8  # five populations, doubles
        assert solver.comm.total_bytes_sent() == 2 * 2 * per_message

    def test_more_ranks_than_planes_rejected(self):
        grid, structure = _make_state()
        with pytest.raises(ConfigurationError, match="x-planes"):
            DistributedLBMIBSolver(grid, structure, num_ranks=13)

    def test_zero_ranks_rejected(self):
        grid, structure = _make_state()
        with pytest.raises(ConfigurationError):
            DistributedLBMIBSolver(grid, structure, num_ranks=0)

    def test_single_plane_slabs(self):
        """Every rank owning exactly one x-plane still streams correctly."""
        grid, _ = _make_state(with_structure=False)
        rng = np.random.default_rng(11)
        grid.initialize_equilibrium(velocity=0.01 * rng.standard_normal((3,) + SHAPE))
        ref = grid.copy()
        SequentialLBMIBSolver(ref, None).run(3)
        solver = DistributedLBMIBSolver(grid, None, num_ranks=12)
        solver.run(3)
        assert ref.state_allclose(solver.gather_fluid(), rtol=RTOL, atol=ATOL)
