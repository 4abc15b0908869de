"""Predict stage: model-guided ranking of tuning candidates.

Combines the two analytic layers the repo already calibrates —
:class:`repro.machine.perf_model.PerformanceModel` step times (the
absolute Table-I scale) and :mod:`repro.machine.cache_sim` working-set
capacity arguments — into one per-candidate step-time estimate:

``t = base * memory_factor * compute_factor + dispatch + scatter``

* ``base`` — the calibrated sequential step time for this problem size.
* ``memory_factor`` — the fitted memory-stall share scaled by the
  candidate's byte traffic relative to the float64 global layout
  (:func:`repro.machine.workload.step_bytes`), further discounted by
  cache residency: :func:`repro.machine.cache_sim.working_set_nodes`
  says how much of the grid the last-level cache keeps resident, and
  resident traffic stalls at a fraction of the DRAM cost.
* ``compute_factor`` — per-variant pass-structure constant (fused and
  in-place variants run fewer sweeps over the lattice).
* ``dispatch`` — interpreter-level overheads the C-oriented model does
  not see: the per-cube Python loop of the cube solver and the
  per-sweep dispatch of the batched solver (amortised across its
  width).
* ``scatter`` — the kernel-4 implementation delta, using the crossover
  constants measured on the Table-I grid when the fused hot path was
  introduced (``add.at`` pays per contribution, ``bincount`` pays a
  dense per-grid-node sweep on top).

Absolute accuracy is *not* the goal — the probe stage measures the
top-ranked candidates and records prediction-vs-measured error, and
the resulting ``model_scale`` recalibrates future predictions (see
:mod:`repro.tuning.autotuner`).  What the predict stage must get right
is the *ordering*, so only strong, structurally-motivated effects are
modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machine import workload as wl
from repro.machine.cache_sim import record_bytes, working_set_nodes
from repro.machine.perf_model import PerformanceModel
from repro.machine.spec import MachineSpec, abu_dhabi
from repro.tuning.space import TuningCandidate, TuningWorkload

__all__ = [
    "Prediction",
    "predict_ranking",
    "predict_step_seconds",
]

#: Byte-traffic layout of each variant (see repro.machine.workload):
#: the fused/batched/cube steps keep post-collision populations cache
#: resident across streaming ("cube" accounting); the in-place variant
#: additionally elides the copy kernel and the second lattice.
_VARIANT_LAYOUT = {
    "sequential": "global",
    "fused": "cube",
    "batched": "cube",
    "cube": "cube",
    "inplace": "inplace",
}

#: Pass-structure factors relative to the sequential step: the fused
#: variants run collision+streaming as one lattice sweep instead of
#: two-plus-copy, the in-place variant drops the copy entirely.  These
#: are deliberately mild — the byte model carries most of the signal,
#: and the probe stage corrects the residue.
_VARIANT_COMPUTE_FACTOR = {
    "sequential": 1.0,
    "fused": 0.92,
    "batched": 0.92,
    "cube": 1.0,
    "inplace": 0.88,
}

#: Stored values per fluid node per layout family (cache_sim traces):
#: 48 for two-lattice records, 29 single-lattice.
_RECORD_VALUES = {"global": 48, "cube": 48, "inplace": 29}

#: Interpreter dispatch of the cube solver's per-cube Python loop,
#: seconds per cube per step.
PER_CUBE_DISPATCH_SECONDS = 5e-5

#: Fixed interpreter dispatch of one batched sweep, amortised across
#: the batch width.
BATCH_DISPATCH_SECONDS = 1.5e-4

#: Kernel-4 scatter cost constants, from the crossover measured on the
#: Table-I grid when the fused hot path was introduced (43k
#: contributions on a 63k-node grid: add.at 0.31 ms, bincount 0.52 ms).
ADD_AT_SECONDS_PER_CONTRIB = 7.2e-9
BINCOUNT_SECONDS_PER_VALUE = 2.3e-9

#: Contributions per fiber node: the 4x4x4 influential domain.
_STENCIL_VOLUME = 64

#: Fraction of the DRAM stall cost that cache-resident traffic still
#: pays (L2/L3 latency is hidden but not free).
_RESIDENT_STALL_FRACTION = 0.25


@dataclass(frozen=True)
class Prediction:
    """One candidate's modelled cost.

    ``seconds`` is the predicted wall time to advance **one simulation
    by one step** — for batched candidates the sweep time divided by
    the width, so solo and batched candidates compare on the same
    axis.  ``breakdown`` names the model terms for reporting.
    """

    candidate: TuningCandidate
    seconds: float
    breakdown: dict[str, float]

    def to_dict(self) -> dict:
        """JSON-safe form for benchmark records."""
        return {
            "candidate": self.candidate.to_dict(),
            "label": self.candidate.label(),
            "seconds": self.seconds,
            "breakdown": dict(self.breakdown),
        }


def _scatter_seconds(workload: TuningWorkload, scatter: str) -> float:
    """Modelled per-step cost of the forced kernel-4 scatter method."""
    contribs = workload.fiber_nodes * _STENCIL_VOLUME
    if contribs == 0:
        return 0.0
    add_at = contribs * ADD_AT_SECONDS_PER_CONTRIB
    bincount = (3 * workload.fluid_nodes + contribs) * BINCOUNT_SECONDS_PER_VALUE
    if scatter == "add_at":
        return add_at
    if scatter == "bincount":
        return bincount
    return min(add_at, bincount)  # "auto" picks the winner at runtime


def predict_step_seconds(
    workload: TuningWorkload,
    candidate: TuningCandidate,
    machine: MachineSpec | None = None,
    model_scale: float = 1.0,
) -> Prediction:
    """Modelled per-simulation-step seconds of one candidate.

    ``model_scale`` is the measured/predicted recalibration factor a
    previous probe round stored in the decision cache (1.0 when no
    probes have run on this host yet).
    """
    if model_scale <= 0:
        raise ConfigurationError(
            f"model_scale must be positive, got {model_scale}"
        )
    machine = machine if machine is not None else abu_dhabi()
    model = PerformanceModel(machine)
    fiber_shape = workload.fiber_shape if workload.fiber_nodes else (1, 0)
    base = model.sequential_step(workload.fluid_shape, fiber_shape).total_seconds

    layout = _VARIANT_LAYOUT[candidate.variant]
    from repro.core.backend import dtype_bytes

    itemsize = dtype_bytes(candidate.precision)
    ratio = wl.step_bytes(
        workload.fluid_nodes, workload.fiber_nodes, layout, dtype_bytes=itemsize
    ) / wl.step_bytes(workload.fluid_nodes, workload.fiber_nodes, "global")

    # Cache residency: the fraction of the grid the last-level cache
    # keeps resident pays only a fraction of the DRAM stall cost.  The
    # in-place single-lattice record (29 values) and 4-byte storage
    # both raise residency — the working-set argument of cache_sim.
    llc = machine.cache(3)
    resident_nodes = working_set_nodes(
        llc.size_bytes, record_bytes(_RECORD_VALUES[layout], candidate.precision)
    )
    residency = min(1.0, resident_nodes / workload.fluid_nodes)
    stall_scale = _RESIDENT_STALL_FRACTION + (1.0 - _RESIDENT_STALL_FRACTION) * (
        1.0 - residency
    )

    share = model.memory_share(solver="openmp", weak=False)
    memory_factor = (1.0 - share) + share * ratio * stall_scale
    compute_factor = _VARIANT_COMPUTE_FACTOR[candidate.variant]
    kernel_seconds = base * memory_factor * compute_factor

    dispatch = 0.0
    if candidate.variant == "cube":
        num_cubes = workload.fluid_nodes // candidate.cube_size**3
        dispatch = num_cubes * PER_CUBE_DISPATCH_SECONDS
    elif candidate.variant == "batched":
        dispatch = BATCH_DISPATCH_SECONDS / candidate.batch_width

    scatter = _scatter_seconds(workload, candidate.scatter)
    seconds = (kernel_seconds + dispatch + scatter) * model_scale
    return Prediction(
        candidate=candidate,
        seconds=seconds,
        breakdown={
            "base": base,
            "memory_factor": memory_factor,
            "compute_factor": compute_factor,
            "byte_ratio": ratio,
            "cache_residency": residency,
            "dispatch": dispatch,
            "scatter": scatter,
            "model_scale": model_scale,
        },
    )


def predict_ranking(
    workload: TuningWorkload,
    candidates: list[TuningCandidate],
    machine: MachineSpec | None = None,
    model_scale: float = 1.0,
) -> list[Prediction]:
    """All candidates' predictions, fastest first (ties break on label
    so the ranking is deterministic across runs)."""
    if not candidates:
        raise ConfigurationError("no candidates to rank")
    predictions = [
        predict_step_seconds(workload, c, machine=machine, model_scale=model_scale)
        for c in candidates
    ]
    predictions.sort(key=lambda p: (p.seconds, p.candidate.label()))
    return predictions
