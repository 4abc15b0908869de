"""Cross-variant checkpoint portability matrix.

A checkpoint is written in the gathered global layout, so a file saved
by any solver variant must restore bit-identically into every other
variant — the property the resilient runner's worker-death fallback
(cube -> sequential) and the operator's "resume on a different machine
shape" workflow both depend on.  The matrix runs each writer once,
then fans the file out to all readers and compares every state array
exactly (no tolerance: restore is I/O, not physics).
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.variants import VARIANTS as SPECS
from repro.verify.oracle import seeded_initial_fluid, variant_config

pytestmark = [pytest.mark.verify, pytest.mark.slow]

VARIANTS = [spec.name for spec in SPECS]

_FIELDS = ("df", "density", "velocity", "velocity_shifted", "force")


def _config(variant):
    base = SimulationConfig(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        cube_size=4,
        num_threads=2,
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
    )
    return variant_config(base, variant)


@pytest.fixture(scope="module")
def written_checkpoints(tmp_path_factory):
    """One checkpoint per writer variant, after 2 steps from shared state."""
    root = tmp_path_factory.mktemp("ckpt_matrix")
    paths = {}
    for writer in VARIANTS:
        config = _config(writer)
        with Simulation(
            config, initial_fluid=seeded_initial_fluid(config, 31)
        ) as sim:
            sim.run(2)
            path = root / f"{writer}.npz"
            sim.checkpoint(path)
            paths[writer] = (path, _snapshot(sim))
    return paths


def _snapshot(sim):
    state = {name: np.array(getattr(sim.fluid, name)) for name in _FIELDS}
    for si, sheet in enumerate(sim.structure.sheets):
        state[f"sheet{si}.positions"] = np.array(sheet.positions)
        state[f"sheet{si}.velocity"] = np.array(sheet.velocity)
    state["time_step"] = sim.time_step
    return state


@pytest.mark.parametrize("reader", VARIANTS)
@pytest.mark.parametrize("writer", VARIANTS)
def test_restore_is_bit_identical(written_checkpoints, writer, reader):
    path, expected = written_checkpoints[writer]
    with Simulation.from_checkpoint(path, _config(reader)) as restored:
        assert restored.time_step == expected["time_step"]
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(restored.fluid, name), expected[name], err_msg=name
            )
        for si, sheet in enumerate(restored.structure.sheets):
            np.testing.assert_array_equal(
                sheet.positions, expected[f"sheet{si}.positions"]
            )
            np.testing.assert_array_equal(
                sheet.velocity, expected[f"sheet{si}.velocity"]
            )


@pytest.mark.parametrize("writer", ["sequential", "cube", "inplace"])
def test_restored_run_continues_identically(written_checkpoints, writer, tmp_path):
    """Stepping after restore matches an uninterrupted run bit-for-bit
    in the restored variant itself (checkpoint is transparent)."""
    config = _config(writer)
    with Simulation(
        config, initial_fluid=seeded_initial_fluid(config, 31)
    ) as straight:
        straight.run(4)
        reference = _snapshot(straight)

    path, _ = written_checkpoints[writer]
    with Simulation.from_checkpoint(path, config) as resumed:
        resumed.run(2)  # 2 steps at checkpoint + 2 more = 4
        assert resumed.time_step == reference["time_step"]
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(resumed.fluid, name), reference[name], err_msg=name
            )


class TestOddPhaseCheckpoint:
    """Checkpoints taken mid-AA-cycle (odd step count, ``aa_phase=1``).

    After an odd number of in-place steps, the single lattice is stored
    in the AA-encoded layout — direction ``i`` lives in slot ``opp(i)``.
    The checkpoint stores the raw encoded lattice plus the phase flag;
    the restore path decodes for two-lattice readers and adopts the raw
    state for in-place readers, so both directions of the matrix keep
    their bit-exactness through the middle of an AA cycle.
    """

    @pytest.fixture(scope="class")
    def odd_checkpoint(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt_odd")
        config = _config("inplace")
        with Simulation(
            config, initial_fluid=seeded_initial_fluid(config, 31)
        ) as sim:
            sim.run(3)  # odd: the lattice is mid-cycle, aa_phase == 1
            assert sim._fluid.aa_phase == 1
            path = root / "inplace_odd.npz"
            sim.checkpoint(path)
            return path, _snapshot(sim)

    @pytest.mark.parametrize("reader", VARIANTS)
    def test_odd_checkpoint_restores_into_every_variant(
        self, odd_checkpoint, reader
    ):
        path, expected = odd_checkpoint
        with Simulation.from_checkpoint(path, _config(reader)) as restored:
            assert restored.time_step == expected["time_step"]
            for name in _FIELDS:
                np.testing.assert_array_equal(
                    getattr(restored.fluid, name), expected[name], err_msg=name
                )

    def test_phase_flag_survives_round_trip(self, odd_checkpoint, tmp_path):
        """An inplace reader adopts the encoded lattice and phase flag,
        and re-saving reproduces both."""
        path, _ = odd_checkpoint
        config = _config("inplace")
        with Simulation.from_checkpoint(path, config) as restored:
            assert restored._fluid.aa_phase == 1
            resaved = tmp_path / "resaved.npz"
            restored.checkpoint(resaved)
        with Simulation.from_checkpoint(resaved, config) as again:
            assert again._fluid.aa_phase == 1

    def test_two_lattice_reader_restores_to_natural_phase(self, odd_checkpoint):
        """Non-inplace readers decode on restore: their grid is in the
        natural layout with the phase flag cleared."""
        path, _ = odd_checkpoint
        with Simulation.from_checkpoint(path, _config("sequential")) as restored:
            assert restored._fluid.aa_phase == 0
            assert restored._fluid.df_new is not None

    def test_resume_from_mid_cycle_continues_identically(self, odd_checkpoint):
        """3 checkpointed steps + 2 resumed == 5 straight steps, exactly."""
        config = _config("inplace")
        with Simulation(
            config, initial_fluid=seeded_initial_fluid(config, 31)
        ) as straight:
            straight.run(5)
            reference = _snapshot(straight)

        path, _ = odd_checkpoint
        with Simulation.from_checkpoint(path, config) as resumed:
            resumed.run(2)
            assert resumed.time_step == reference["time_step"]
            for name in _FIELDS:
                np.testing.assert_array_equal(
                    getattr(resumed.fluid, name), reference[name], err_msg=name
                )
