"""SlotGuard: per-slot health sentinels, ejection containment, strikes."""

import numpy as np
import pytest

from repro.batch import BatchedFluidGrid, BatchedLBMIBSolver, SlotGuard
from repro.core.lbm.fields import FluidGrid
from repro.errors import ConfigurationError, InvariantError
from repro.observe import Telemetry
from repro.resilience.incident import IncidentLog
from repro.verify.oracle import seeded_initial_fluid
from repro.config import SimulationConfig

SHAPE = (8, 6, 4)
TAU = 0.8


def _seeded_fluid(seed: int) -> FluidGrid:
    config = SimulationConfig(fluid_shape=SHAPE, tau=TAU)
    return seeded_initial_fluid(config, seed)


def _guarded_solver(batch: int, guard: SlotGuard) -> BatchedLBMIBSolver:
    grid = BatchedFluidGrid(SHAPE, batch, tau=TAU)
    solver = BatchedLBMIBSolver(grid, guard=guard)
    for slot in range(batch):
        solver.load_slot(slot, _seeded_fluid(100 + slot), job_id=f"job{slot}")
    return solver


class TestValidation:
    def test_invalid_cadence_rejected(self):
        with pytest.raises(ConfigurationError):
            SlotGuard(every=0)

    def test_invalid_quarantine_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SlotGuard(quarantine_after=0)


class TestEjection:
    def test_healthy_slots_never_ejected(self):
        guard = SlotGuard()
        solver = _guarded_solver(3, guard)
        solver.run(4)
        assert guard.take_ejections() == []
        assert solver.occupancy == 3

    def test_nan_slot_is_ejected_with_evacuated_state(self):
        guard = SlotGuard()
        solver = _guarded_solver(3, guard)
        solver.run(2)
        solver.grid.df[1].flat[::101] = np.nan
        solver.step()
        (ejection,) = guard.take_ejections()
        assert ejection.slot == 1
        assert ejection.job_step == 3
        assert ejection.invariant == "finite_fields"
        assert isinstance(ejection.error, InvariantError)
        # The evacuated post-mortem state carries the corruption...
        assert not np.isfinite(ejection.fluid.df).all()
        # ...while the parked slot is numerically benign again.
        assert not solver.active[1]
        assert np.isfinite(solver.grid.df[1]).all()

    def test_ejection_never_perturbs_sibling_slots(self):
        # Golden: the same three simulations with no corruption, solo.
        finals = []
        for slot in range(3):
            grid = BatchedFluidGrid(SHAPE, 1, tau=TAU)
            solo = BatchedLBMIBSolver(grid)
            solo.load_slot(0, _seeded_fluid(100 + slot))
            solo.run(5)
            finals.append(solo.grid.gather_slot(0))

        guard = SlotGuard()
        solver = _guarded_solver(3, guard)
        solver.run(2)
        solver.grid.df[1].flat[::97] = np.nan  # slot 1 blows up mid-run
        solver.run(3)
        assert len(guard.take_ejections()) == 1
        for slot in (0, 2):  # healthy siblings: bit-identical, delta 0.0
            survivor = solver.grid.gather_slot(slot)
            for name in ("df", "density", "velocity"):
                delta = np.max(
                    np.abs(
                        getattr(survivor, name) - getattr(finals[slot], name)
                    )
                )
                assert delta == 0.0

    def test_check_cadence_delays_detection(self):
        guard = SlotGuard(every=4)
        solver = _guarded_solver(1, guard)
        solver.grid.df[0].flat[:8] = np.nan
        solver.run(3)  # steps 1-3: off cadence, no check
        assert guard.take_ejections() == []
        solver.step()  # step 4: cadence hit
        assert len(guard.take_ejections()) == 1


class TestStrikes:
    def test_strikes_accumulate_per_job_across_rebinds(self):
        guard = SlotGuard(quarantine_after=2)
        solver = _guarded_solver(1, guard)
        solver.grid.df[0].flat[:4] = np.nan
        solver.step()
        (first,) = guard.take_ejections()
        assert (first.strikes, first.quarantined) == (1, False)
        # Same job id retried into the slot; fails again -> quarantined.
        solver.load_slot(0, _seeded_fluid(100), job_id="job0")
        solver.grid.df[0].flat[:4] = np.nan
        solver.step()
        (second,) = guard.take_ejections()
        assert (second.strikes, second.quarantined) == (2, True)
        assert guard.strikes_for("job0") == 2

    def test_forgive_clears_the_strike_record(self):
        guard = SlotGuard()
        guard._strikes["job0"] = 2
        guard.forgive("job0")
        assert guard.strikes_for("job0") == 0


class TestObservability:
    def test_ejection_is_journaled_and_counted(self):
        incidents = IncidentLog()
        telemetry = Telemetry()
        guard = SlotGuard(
            quarantine_after=1,
            incident_log=incidents,
            metrics=telemetry.metrics,
        )
        solver = _guarded_solver(2, guard)
        solver.grid.df[0].flat[:4] = np.nan
        solver.step()
        (event,) = incidents.events_of("slot_ejected")
        assert event.detail["job"] == "job0"
        assert event.detail["invariant"] == "finite_fields"
        assert event.detail["quarantined"] is True
        assert telemetry.metrics.counter("batch.ejections").value == 1
        assert telemetry.metrics.counter("batch.quarantined").value == 1
