"""Service kill/restart chaos: a dead process loses nothing.

Unlike the in-process ``resume_on_kill=True`` path (exercised by the
soak tests), this scenario models a real process death: the first
service instance runs with ``resume_on_kill=False``, so the injected
``kill_worker`` stops it mid-batch with jobs in every lifecycle stage —
some completed, some mid-flight in batch slots, some accepted but never
dispatched.  A *second* instance is then rebuilt from the same workdir
via :meth:`SimulationService.resume` and must finish every job with
results bit-identical to solo runs.

Set ``LBMIB_SERVICE_DIR`` to keep the job journal (``service.jsonl``)
and checkpoints for inspection (CI archives the journal on failure).
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.api import Simulation
from repro.batch.scheduler import TERMINAL_STATUSES
from repro.config import SimulationConfig
from repro.errors import WorkerKilledError
from repro.observe import Telemetry
from repro.resilience import FaultInjector, service_plan
from repro.service import ServiceJournal, SimulationService, TenantSpec
from repro.verify.golden import fields_digest
from repro.verify.oracle import seeded_initial_fluid

pytestmark = [pytest.mark.service, pytest.mark.chaos]

CFG = SimulationConfig(fluid_shape=(8, 8, 8), solver="batched")
NUM_JOBS = 8
NUM_STEPS = 8


@pytest.fixture
def service_dir(tmp_path):
    """Honor LBMIB_SERVICE_DIR so CI can archive the journal on failure."""
    keep = os.environ.get("LBMIB_SERVICE_DIR")
    if keep:
        os.makedirs(keep, exist_ok=True)
        return keep
    return tmp_path


def _solo_digest(seed: int) -> str:
    sim = Simulation(CFG, initial_fluid=seeded_initial_fluid(CFG, seed))
    sim.run(NUM_STEPS)
    return fields_digest(sim.fluid, sim.structure)


def test_service_survives_hard_kill_and_restart(service_dir):
    injector = FaultInjector(service_plan(num_steps=NUM_STEPS, seed=99))

    async def first_instance():
        service = SimulationService(
            service_dir,
            tenants=[TenantSpec("t", max_depth=100)],
            max_batch=2,  # keep several jobs queued when the kill lands
            fault_injector=injector,
            checkpoint_every=2,
            resume_on_kill=False,
        )
        await service.start()
        ids = [
            service.submit(CFG, NUM_STEPS, tenant="t", state_seed=seed)
            for seed in range(NUM_JOBS)
        ]
        # Wait for the injected kill to take the service down.
        while service._fatal is None:
            await asyncio.sleep(0.01)
        await service.stop(drain=False)
        assert isinstance(service._fatal, WorkerKilledError)
        # The kill must strand work: not every job reached terminal.
        stranded = [
            s for s in service.jobs() if s.status not in TERMINAL_STATUSES
        ]
        assert stranded, "kill landed too late to exercise recovery"
        return ids

    ids = asyncio.run(first_instance())

    # The journal alone knows every accepted job.
    replay = ServiceJournal.replay(service_dir)
    assert sorted(replay) == sorted(ids)

    async def second_instance():
        telemetry = Telemetry()
        revived = SimulationService.resume(
            service_dir,
            tenants=[TenantSpec("t", max_depth=100)],
            max_batch=2,
            fault_injector=injector,  # fired set rides along: no re-kill
            checkpoint_every=2,
            telemetry=telemetry,
        )
        assert sorted(s.job_id for s in revived.jobs()) == sorted(ids)
        async with revived:
            results = {job_id: await revived.result(job_id) for job_id in ids}
        return results, telemetry

    results, telemetry = asyncio.run(second_instance())

    # Every accepted job is terminal and bit-identical to its solo run.
    assert len(results) == NUM_JOBS
    for seed, job_id in enumerate(ids):
        result = results[job_id]
        assert result.status == "completed", f"{job_id}: {result.status}"
        assert result.steps_completed == NUM_STEPS
        assert fields_digest(result.fluid, result.structure) == _solo_digest(seed)

    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["service.resumes"] == 1
