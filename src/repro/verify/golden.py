"""Golden regression baselines: checksummed state digests on disk.

The differential oracle proves *variants agree with each other*; the
golden baselines prove *the physics itself did not move*.  A small set
of named scenarios is run for a few steps and reduced to (a) scalar
physics statistics (mass, momentum, kinetic energy, extrema, fiber
geometry) compared within a tight tolerance, and (b) a SHA-256 digest
over the rounded state arrays for bit-level drift detection.  The
results live as JSON under ``tests/golden/`` and are committed; a
refactor that changes the computed physics fails the comparison loudly,
and an *intentional* physics change regenerates them with::

    python -m repro.verify --regen-golden

Digests are taken over values rounded to :data:`DIGEST_DECIMALS`
decimal places so that they are stable against floating-point noise at
the 1e-12 level while still pinning every array to ~1e-9 physics.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np

from repro.api import Simulation
from repro.verify.generate import VerifyCase

__all__ = [
    "GOLDEN_CASES",
    "GOLDEN_VARIANTS",
    "GOLDEN_PRECISIONS",
    "DIGEST_DECIMALS",
    "default_golden_dir",
    "state_stats",
    "state_arrays",
    "fields_digest",
    "state_digest",
    "compute_baseline",
    "write_baselines",
    "check_baselines",
]

#: Decimal places arrays are rounded to before hashing.
DIGEST_DECIMALS = 9

#: Relative tolerance for scalar statistics comparisons.
STATS_RTOL = 1e-9
STATS_ATOL = 1e-12

#: The committed scenarios: small, fast, and covering the main physics
#: regimes (fluid-only decay, sheet FSI, TRT + driven channel flow).
GOLDEN_CASES: dict[str, VerifyCase] = {
    "fluid_decay_bgk": VerifyCase(
        dims=(8, 8, 8),
        cube_size=2,
        tau=0.8,
        operator="bgk",
        structure_kind="none",
        steps=5,
        state_seed=20150715,
    ),
    "flat_sheet_fsi": VerifyCase(
        dims=(12, 8, 8),
        cube_size=4,
        tau=0.7,
        operator="bgk",
        structure_kind="flat_sheet",
        num_fibers=4,
        nodes_per_fiber=5,
        steps=5,
        state_seed=42,
    ),
    "trt_driven_channel": VerifyCase(
        dims=(8, 8, 4),
        cube_size=2,
        tau=0.9,
        operator="trt",
        structure_kind="none",
        external_force=(1e-5, 0.0, 0.0),
        steps=5,
        state_seed=7,
    ),
}


#: Solver variants pinned by committed baselines, as a file-name suffix
#: -> solver mapping: every case in :data:`GOLDEN_CASES` is stored once
#: per variant (``fluid_decay_bgk.json`` for the sequential reference,
#: ``fluid_decay_bgk_fused.json`` for the fused fast path, ...).
GOLDEN_VARIANTS: dict[str, str] = {
    "": "sequential",
    "_fused": "fused",
    "_inplace": "inplace",
    "_batched": "batched",
}

#: Reduced-precision policies pinned per variant suffix: each listed
#: policy adds a ``{case}{suffix}_{precision}.json`` baseline next to the
#: float64 one, so the float32 and mixed hot paths are held bit-stable
#: too.  Variants absent here are pinned at float64 only.
GOLDEN_PRECISIONS: dict[str, tuple[str, ...]] = {
    "_fused": ("float32", "mixed"),
    "_inplace": ("float32", "mixed"),
    "_batched": ("float32", "mixed"),
}


def default_golden_dir() -> str:
    """``tests/golden`` relative to the repository root."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "golden")


def _run_case(
    case: VerifyCase, solver: str = "sequential", precision: str = "float64"
) -> Simulation:
    from repro.verify.oracle import _seeded_initial_fluid

    config = replace(case.config(solver), precision=precision)
    sim = Simulation(
        config,
        initial_fluid=_seeded_initial_fluid(config, case.state_seed),
    )
    sim.run(case.steps)
    return sim


def state_stats(sim: Simulation) -> dict[str, float]:
    """Scalar physics statistics of a simulation's gathered state."""
    fluid = sim.fluid
    momentum = fluid.total_momentum()
    stats: dict[str, float] = {
        "total_mass": float(fluid.total_mass()),
        "momentum_x": float(momentum[0]),
        "momentum_y": float(momentum[1]),
        "momentum_z": float(momentum[2]),
        "kinetic_energy": float(sim.kinetic_energy()),
        "max_velocity": float(sim.max_velocity()),
        "min_density": float(fluid.density.min()),
        "max_density": float(fluid.density.max()),
        "min_df": float(fluid.df.min()),
    }
    structure = sim.structure
    if structure is not None:
        for si, sheet in enumerate(structure.sheets):
            centroid = sheet.centroid()
            stats[f"sheet{si}_centroid_x"] = float(centroid[0])
            stats[f"sheet{si}_centroid_y"] = float(centroid[1])
            stats[f"sheet{si}_centroid_z"] = float(centroid[2])
            stats[f"sheet{si}_max_stretch"] = float(sheet.max_stretch_ratio())
            stats[f"sheet{si}_elastic_energy"] = float(sheet.elastic_energy())
    return stats


def state_arrays(fluid, structure=None) -> dict[str, np.ndarray]:
    """The named state arrays a digest covers, for any gathered state."""
    arrays: dict[str, np.ndarray] = {
        name: getattr(fluid, name)
        for name in ("df", "density", "velocity", "velocity_shifted", "force")
    }
    if structure is not None:
        for si, sheet in enumerate(structure.sheets):
            arrays[f"sheet{si}_positions"] = sheet.positions
            arrays[f"sheet{si}_velocity"] = sheet.velocity
    return arrays


def fields_digest(fluid, structure=None, decimals: int = DIGEST_DECIMALS) -> str:
    """SHA-256 over a gathered ``(fluid, structure)`` state's rounded arrays.

    Works on any :class:`~repro.core.lbm.fields.FluidGrid`-shaped state
    — in particular the final states carried by the batch scheduler's
    :class:`~repro.batch.scheduler.BatchResult`, which is how the chaos
    harness pins a faulted run's survivors to the fault-free golden
    digests.
    """
    arrays = state_arrays(fluid, structure)
    digest = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.round(np.ascontiguousarray(arrays[key], dtype=np.float64), decimals)
        # Normalize -0.0 so the digest only sees one zero.
        arr = arr + 0.0
        digest.update(key.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def state_digest(sim: Simulation, decimals: int = DIGEST_DECIMALS) -> str:
    """SHA-256 over every rounded state array (order-independent keys)."""
    return fields_digest(sim.fluid, sim.structure, decimals=decimals)


def compute_baseline(
    name: str,
    case: VerifyCase,
    solver: str = "sequential",
    precision: str = "float64",
) -> dict:
    """Run one golden case under ``solver`` and reduce it to its record."""
    sim = _run_case(case, solver, precision)
    try:
        record = {
            "name": name,
            "case": case.describe(),
            "solver": solver,
            "steps": case.steps,
            "digest_decimals": DIGEST_DECIMALS,
            "stats": state_stats(sim),
            "digest": state_digest(sim),
        }
        if precision != "float64":
            record["precision"] = precision
        return record
    finally:
        sim.close()


def _baseline_files() -> list[tuple[str, VerifyCase, str, str, str]]:
    """Every ``(case name, case, solver, precision, file name)`` baseline."""
    files = []
    for name, case in GOLDEN_CASES.items():
        for suffix, solver in GOLDEN_VARIANTS.items():
            files.append((name, case, solver, "float64", f"{name}{suffix}.json"))
            for precision in GOLDEN_PRECISIONS.get(suffix, ()):
                files.append(
                    (name, case, solver, precision, f"{name}{suffix}_{precision}.json")
                )
    return files


def write_baselines(golden_dir: str | os.PathLike | None = None) -> list[str]:
    """(Re)generate every golden baseline file; returns written paths."""
    directory = os.fspath(golden_dir or default_golden_dir())
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, case, solver, precision, filename in _baseline_files():
        record = compute_baseline(name, case, solver, precision)
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def check_baselines(golden_dir: str | os.PathLike | None = None) -> list[str]:
    """Compare current physics against the committed baselines.

    Returns a list of human-readable failure strings (empty = pass).  A
    missing baseline file is a failure: the suite must never silently
    skip a regression gate.
    """
    directory = os.fspath(golden_dir or default_golden_dir())
    failures: list[str] = []
    for name, case, solver, precision, filename in _baseline_files():
        label = name if solver == "sequential" else f"{name}[{solver}]"
        if precision != "float64":
            label = f"{name}[{solver}, {precision}]"
        path = os.path.join(directory, filename)
        if not os.path.exists(path):
            failures.append(
                f"{label}: baseline file {path} is missing "
                "(run `python -m repro.verify --regen-golden`)"
            )
            continue
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        current = compute_baseline(name, case, solver, precision)
        for key, expected in stored["stats"].items():
            got = current["stats"].get(key)
            if got is None:
                failures.append(f"{label}: statistic {key!r} no longer computed")
                continue
            if abs(got - expected) > STATS_ATOL + STATS_RTOL * abs(expected):
                failures.append(
                    f"{label}: statistic {key!r} moved from {expected:.12g} "
                    f"to {got:.12g}"
                )
        if current["digest"] != stored["digest"]:
            failures.append(
                f"{label}: state digest changed "
                f"({stored['digest'][:12]}... -> {current['digest'][:12]}...); "
                "the computed physics is no longer bit-compatible with the "
                "baseline — if intentional, regenerate with "
                "`python -m repro.verify --regen-golden`"
            )
    return failures
