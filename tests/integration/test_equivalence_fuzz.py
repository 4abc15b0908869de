"""Property-based integration fuzz: all solvers agree on random scenarios.

Hypothesis draws a whole scenario — grid shape, structure, perturbation,
solver configuration — and the invariant is the paper's verification
statement: every parallel program reproduces the sequential result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ib import geometry
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.distributed import DistributedLBMIBSolver
from repro.parallel import (
    AsyncCubeLBMIBSolver,
    CubeGrid,
    CubeLBMIBSolver,
    OpenMPLBMIBSolver,
)

# Hypothesis re-runs each scenario many times; keep out of the smoke tier.
pytestmark = pytest.mark.slow

scenario = st.fixed_dictionaries(
    {
        "dims": st.tuples(
            st.sampled_from([8, 12, 16]),
            st.sampled_from([8, 12]),
            st.sampled_from([8, 12]),
        ),
        "seed": st.integers(0, 2**31),
        "tau": st.sampled_from([0.6, 0.8, 1.1]),
        "operator": st.sampled_from(["bgk", "trt"]),
        "threads": st.integers(1, 5),
        "cube_size": st.sampled_from([2, 4]),
        "steps": st.integers(1, 4),
        "with_structure": st.booleans(),
    }
)


def _build(params):
    grid = FluidGrid(
        params["dims"], tau=params["tau"], collision_operator=params["operator"]
    )
    rng = np.random.default_rng(params["seed"])
    grid.initialize_equilibrium(
        density=1.0 + 0.01 * rng.standard_normal(grid.shape),
        velocity=0.01 * rng.standard_normal((3,) + grid.shape),
    )
    structure = None
    if params["with_structure"]:
        structure = geometry.flat_sheet(
            params["dims"], num_fibers=3, nodes_per_fiber=3,
            stretch_coefficient=0.02,
        )
        structure.sheets[0].positions[1, 1, 0] += 0.4
    return grid, structure


class TestSolverEquivalenceFuzz:
    @given(params=scenario)
    @settings(max_examples=8, deadline=None)
    def test_openmp_matches_sequential(self, params):
        grid_a, struct_a = _build(params)
        grid_b = grid_a.copy()
        struct_b = struct_a.copy() if struct_a else None
        SequentialLBMIBSolver(grid_a, struct_a).run(params["steps"])
        with OpenMPLBMIBSolver(
            grid_b, struct_b, num_threads=params["threads"]
        ) as solver:
            solver.run(params["steps"])
        assert grid_a.state_allclose(grid_b, rtol=1e-10, atol=1e-12)

    @given(params=scenario)
    @settings(max_examples=8, deadline=None)
    def test_cube_matches_sequential(self, params):
        grid_a, struct_a = _build(params)
        grid_b = grid_a.copy()
        struct_b = struct_a.copy() if struct_a else None
        SequentialLBMIBSolver(grid_a, struct_a).run(params["steps"])
        cg = CubeGrid.from_fluid_grid(grid_b, cube_size=params["cube_size"])
        threads = min(params["threads"], min(cg.cube_counts))
        CubeLBMIBSolver(cg, struct_b, num_threads=threads).run(params["steps"])
        assert grid_a.state_allclose(cg.to_fluid_grid(), rtol=1e-10, atol=1e-12)

    @given(params=scenario)
    @settings(max_examples=6, deadline=None)
    def test_async_cube_matches_sequential(self, params):
        grid_a, struct_a = _build(params)
        grid_b = grid_a.copy()
        struct_b = struct_a.copy() if struct_a else None
        SequentialLBMIBSolver(grid_a, struct_a).run(params["steps"])
        cg = CubeGrid.from_fluid_grid(grid_b, cube_size=params["cube_size"])
        threads = min(params["threads"], min(cg.cube_counts))
        AsyncCubeLBMIBSolver(cg, struct_b, num_threads=threads).run(params["steps"])
        assert grid_a.state_allclose(cg.to_fluid_grid(), rtol=1e-10, atol=1e-12)

    @given(params=scenario)
    @settings(max_examples=6, deadline=None)
    def test_hybrid_matches_sequential(self, params):
        grid_a, struct_a = _build(params)
        grid_b = grid_a.copy()
        struct_b = struct_a.copy() if struct_a else None
        SequentialLBMIBSolver(grid_a, struct_a).run(params["steps"])
        k = 2 if any(n % 4 for n in params["dims"]) else params["cube_size"]
        ranks = min(params["threads"], params["dims"][0] // k)
        solver = DistributedLBMIBSolver(
            grid_b, struct_b, num_ranks=ranks, cube_size=k
        )
        solver.run(params["steps"])
        assert grid_a.state_allclose(solver.gather_fluid(), rtol=1e-10, atol=1e-12)

    @given(params=scenario)
    @settings(max_examples=6, deadline=None)
    def test_distributed_matches_sequential(self, params):
        grid_a, struct_a = _build(params)
        grid_b = grid_a.copy()
        struct_b = struct_a.copy() if struct_a else None
        SequentialLBMIBSolver(grid_a, struct_a).run(params["steps"])
        ranks = min(params["threads"], params["dims"][0])
        solver = DistributedLBMIBSolver(grid_b, struct_b, num_ranks=ranks)
        solver.run(params["steps"])
        assert grid_a.state_allclose(solver.gather_fluid(), rtol=1e-10, atol=1e-12)
