"""The in-place AA-pattern solver is physics-equivalent to sequential
and carries half the lattice memory.

Gates the ``variant="inplace"`` solver four ways:

* the differential oracle locks it step-by-step against ``sequential``
  for both collision operators, including the hard configuration —
  moving bounce-back walls + outflow + external body force — where the
  even-phase boundary repair writes through the AA encoding;
* a seeded sweep of generated configs (the same generator the
  ``python -m repro.verify`` gate uses), so equivalence is not limited
  to hand-picked shapes;
* phase parity: the AA cycle alternates two different kernels, so the
  equivalence is checked after both an even and an odd number of steps
  — a bug confined to one phase cannot hide behind the other;
* memory regression: the grid holds exactly one lattice (half the
  fused footprint) and a steady-state fluid step allocates no numpy
  array, mirroring the fused zero-allocation gate.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import BoundaryConfig, SimulationConfig, StructureConfig
from repro.core.lbm.fields import FluidGrid
from repro.verify import compare_variants
from repro.verify.generate import generate_cases
from repro.verify.golden import GOLDEN_CASES, GOLDEN_VARIANTS, compute_baseline
from repro.verify.oracle import seeded_initial_fluid, variant_config

pytestmark = pytest.mark.verify

_FIELDS = ("df", "density", "velocity", "velocity_shifted", "force")


def _fsi_config(**overrides):
    defaults = dict(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestOracleEquivalence:
    @pytest.mark.parametrize("operator", ["bgk", "trt"])
    def test_fsi_matches_sequential(self, operator):
        config = _fsi_config(collision_operator=operator)
        divergence = compare_variants(
            config, "sequential", "inplace", num_steps=4, state_seed=7
        )
        assert divergence is None

    @pytest.mark.parametrize("operator", ["bgk", "trt"])
    def test_walls_outflow_and_body_force(self, operator):
        """The even-phase boundary repair: a moving bounce-back lid, a
        no-slip floor, an outflow face, and a constant body force, all
        applied through the AA-encoded lattice on even steps."""
        config = _fsi_config(
            collision_operator=operator,
            external_force=(1e-5, 0.0, 0.0),
            boundaries=(
                BoundaryConfig(
                    "bounce_back", "z", "high", wall_velocity=(0.02, 0.0, 0.0)
                ),
                BoundaryConfig("bounce_back", "z", "low"),
                BoundaryConfig("outflow", "x", "high"),
            ),
        )
        divergence = compare_variants(
            config, "sequential", "inplace", num_steps=4, state_seed=7
        )
        assert divergence is None

    def test_generated_case_sweep(self):
        for case in generate_cases(20150715, 6):
            config = replace(case.config(), num_threads=1)
            divergence = compare_variants(
                config,
                "sequential",
                "inplace",
                num_steps=case.steps,
                state_seed=case.state_seed,
            )
            assert divergence is None, f"{case.describe()}: {divergence}"


class TestPhaseParity:
    """Exact state equality after both halves of the AA cycle.

    Each in-place step advances physics by exactly one timestep; the
    grid merely alternates between the natural layout (after odd steps
    complete the cycle) and the AA-encoded layout (after even steps).
    Stopping after 3 steps (mid-cycle, ``aa_phase=1``) and after 4
    (cycle boundary, ``aa_phase=0``) must both reproduce the sequential
    state bit-for-bit — the decode path and the kernels are pinned
    independently.
    """

    @pytest.mark.parametrize("steps,expected_phase", [(3, 1), (4, 0)])
    def test_decoded_state_equals_sequential_exactly(self, steps, expected_phase):
        config = _fsi_config(
            external_force=(1e-5, 0.0, 0.0),
            boundaries=(
                BoundaryConfig("bounce_back", "z", "high"),
                BoundaryConfig("outflow", "x", "high"),
            ),
        )
        states = {}
        for variant in ("sequential", "inplace"):
            cfg = variant_config(config, variant)
            with Simulation(
                cfg, initial_fluid=seeded_initial_fluid(cfg, 31)
            ) as sim:
                sim.run(steps)
                if variant == "inplace":
                    assert sim._fluid.aa_phase == expected_phase
                states[variant] = {
                    name: np.array(getattr(sim.fluid, name)) for name in _FIELDS
                }
                states[variant]["positions"] = np.array(
                    sim.structure.sheets[0].positions
                )
        for name, expected in states["sequential"].items():
            np.testing.assert_array_equal(
                states["inplace"][name], expected, err_msg=name
            )


class TestGoldenBaselines:
    def test_inplace_variant_registered(self):
        assert GOLDEN_VARIANTS.get("_inplace") == "inplace"

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_inplace_digest_equals_sequential(self, name):
        """The AA step is not just tolerance-close — it reproduces the
        sequential golden digest exactly (bit-identical physics)."""
        case = GOLDEN_CASES[name]
        sequential = compute_baseline(name, case, "sequential")
        inplace = compute_baseline(name, case, "inplace")
        assert inplace["digest"] == sequential["digest"]
        assert inplace["stats"] == sequential["stats"]


class TestMemoryRegression:
    def test_grid_holds_a_single_lattice(self):
        """The in-place grid has no ``df_new``: its distribution buffers
        are exactly half the fused grid's."""
        two = FluidGrid((16, 16, 16), tau=0.8)
        one = FluidGrid((16, 16, 16), tau=0.8, single_lattice=True)
        assert one.df_new is None
        assert two.df_new is not None
        bytes_two = two.df.nbytes + two.df_new.nbytes
        assert two.df.nbytes == one.df.nbytes
        assert bytes_two / one.df.nbytes == 2.0

    def test_steady_state_fluid_step_allocates_no_second_lattice(self):
        """After warmup, five in-place fluid steps allocate no numpy
        array — in particular no transient lattice-sized buffer (16^3
        doubles = 32768 bytes; 19 of them per lattice).  The traced
        high-water mark stays below a fraction of one scalar field,
        mirroring the fused zero-allocation gate."""
        config = SimulationConfig(
            fluid_shape=(16, 16, 16),
            tau=0.8,
            solver="inplace",
            structure=StructureConfig(kind="none"),
        )
        with Simulation(config) as sim:
            sim.run(4)  # warmup covering both phases: arena, shift table
            tracemalloc.start()
            tracemalloc.reset_peak()
            sim.run(5)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 8192, f"inplace step allocated {peak} bytes at peak"

    def test_swap_is_rejected_on_single_lattice(self):
        from repro.errors import ConfigurationError

        fluid = FluidGrid((4, 4, 4), tau=0.8, single_lattice=True)
        with pytest.raises(ConfigurationError):
            fluid.swap_distributions()
