"""Differential oracle: run two solver variants step-locked and diff them.

The paper's verification statement (Section VI) is that the sequential,
OpenMP, and cube-based programs compute identical physics — the
parallel schedules are pure performance transformations.  The oracle
makes that statement mechanically checkable for *any* pair of variants:
both simulations start from byte-identical state and advance in
lock-step, with every gathered field compared after each step.  The
first step where any field diverges beyond tolerance is reported with
the offending field, the worst element's global index, and — when a
cube-blocked variant is involved — the cube containing it, so a
scheduling bug is localized to the cube whose update went wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api import Simulation
from repro.config import SimulationConfig
from repro.core.backend import oracle_tolerance
from repro.core.lbm.fields import FluidGrid
from repro.variants import variant as variant_spec

__all__ = [
    "Divergence",
    "DifferentialOracle",
    "variant_config",
    "compare_variants",
    "seeded_initial_fluid",
]

#: Gathered fluid fields diffed after every step, in check order.
_FLUID_FIELDS = ("df", "density", "velocity", "velocity_shifted", "force")


@dataclass(frozen=True)
class Divergence:
    """First point where two variants disagree.

    Attributes
    ----------
    step:
        Time step after which the divergence was detected (1-based).
    field:
        Field name (``"df"``, ``"velocity"``, ``"sheet0.positions"``...).
    max_abs_error:
        Largest absolute element difference in that field.
    tolerance:
        The allowed difference at that element.
    index:
        Index of the worst element in the global field layout.
    cube:
        Cube coordinates containing the worst element, when a
        cube-blocked variant is part of the comparison (else ``None``).
    variant_a / variant_b:
        The two solver variants compared.
    """

    step: int
    field: str
    max_abs_error: float
    tolerance: float
    index: tuple
    cube: tuple | None
    variant_a: str
    variant_b: str

    def __str__(self) -> str:
        where = f"index {self.index}"
        if self.cube is not None:
            where += f" (cube {self.cube})"
        return (
            f"variants {self.variant_a!r} and {self.variant_b!r} diverged at "
            f"step {self.step} in field {self.field!r}: |delta| = "
            f"{self.max_abs_error:.3e} > tol {self.tolerance:.3e} at {where}"
        )


def variant_config(config: SimulationConfig, variant: str) -> SimulationConfig:
    """``config`` retargeted at ``variant``, thread count made feasible.

    ``num_threads`` is clamped to the variant's ``threads`` rule in
    :data:`repro.variants.VARIANTS` (the cube mesh must fit the cube
    counts, each rank needs an x-plane or cube slab), exactly as a user
    following the paper's sizing rules would.
    """
    threads = variant_spec(variant).threads(config)
    return replace(config, solver=variant, num_threads=max(1, threads))


def seeded_initial_fluid(config: SimulationConfig, seed: int | None) -> FluidGrid:
    """A deterministic, physically sane initial fluid for ``config``."""
    fluid = FluidGrid(
        config.fluid_shape,
        tau=config.effective_tau,
        collision_operator=config.collision_operator,
        precision=config.precision,
    )
    if seed is not None:
        rng = np.random.default_rng(seed)
        fluid.initialize_equilibrium(
            density=1.0 + 0.01 * rng.standard_normal(fluid.shape),
            velocity=0.01 * rng.standard_normal((3,) + fluid.shape),
        )
    return fluid


def _first_field_divergence(
    sim_a: Simulation,
    sim_b: Simulation,
    step: int,
    rtol: float,
    atol: float,
    cube_size: int | None,
) -> Divergence | None:
    """Diff every gathered field of the two simulations once."""
    fluid_a, fluid_b = sim_a.fluid, sim_b.fluid
    named: list[tuple[str, np.ndarray, np.ndarray, bool]] = [
        (f, getattr(fluid_a, f), getattr(fluid_b, f), True) for f in _FLUID_FIELDS
    ]
    struct_a, struct_b = sim_a.structure, sim_b.structure
    if struct_a is not None and struct_b is not None:
        for si, (sa, sb) in enumerate(zip(struct_a.sheets, struct_b.sheets)):
            named.append((f"sheet{si}.positions", sa.positions, sb.positions, False))
            named.append((f"sheet{si}.velocity", sa.velocity, sb.velocity, False))
    for name, a, b, is_fluid in named:
        delta = np.abs(a - b)
        allowed = atol + rtol * np.abs(b)
        excess = delta - allowed
        worst = float(excess.max())
        if worst <= 0.0:
            continue
        flat = int(np.argmax(excess))
        index = tuple(int(i) for i in np.unravel_index(flat, a.shape))
        cube = None
        if is_fluid and cube_size is not None:
            # Spatial axes are the trailing three for every fluid field.
            spatial = index[-3:]
            cube = tuple(i // cube_size for i in spatial)
        return Divergence(
            step=step,
            field=name,
            max_abs_error=float(delta.flat[flat]),
            tolerance=float(allowed.flat[flat]),
            index=index,
            cube=cube,
            variant_a=sim_a.config.solver,
            variant_b=sim_b.config.solver,
        )
    return None


class DifferentialOracle:
    """Step-locked comparison of two solver variants of one config.

    Parameters
    ----------
    config:
        The base run description (its ``solver`` field is overridden).
    variant_a / variant_b:
        Solver variants to compare (``variant_a`` defaults to the
        sequential reference).
    rtol / atol:
        Element tolerance: ``|a - b| <= atol + rtol * |b|``.  ``None``
        (the default) resolves per the config's precision policy via
        :func:`repro.core.backend.oracle_tolerance` — for float64 that
        is far tighter than any physical signal and far looser than
        benign summation-order noise; the float32/mixed bounds widen to
        accommodate single-precision rounding across reordered sums.
    state_seed:
        Seed for the shared perturbed initial condition (``None`` keeps
        the quiescent equilibrium start).
    config_b:
        Optional override for the second run's config — used by the
        self-test to deliberately perturb a parameter (e.g. tau) and
        prove the oracle catches it.
    telemetry:
        Optional :class:`~repro.observe.Telemetry`; each compared step
        bumps ``verify.steps_compared`` and each detected divergence
        bumps ``verify.divergences`` in its metrics registry.
    """

    def __init__(
        self,
        config: SimulationConfig,
        variant_a: str = "sequential",
        variant_b: str = "cube",
        rtol: float | None = None,
        atol: float | None = None,
        state_seed: int | None = 0,
        config_b: SimulationConfig | None = None,
        telemetry=None,
    ) -> None:
        self.config_a = variant_config(config, variant_a)
        self.config_b = (
            variant_config(config, variant_b)
            if config_b is None
            else variant_config(config_b, variant_b)
        )
        default_rtol, default_atol = oracle_tolerance(config.precision)
        self.rtol = default_rtol if rtol is None else rtol
        self.atol = default_atol if atol is None else atol
        self.state_seed = state_seed
        self.telemetry = telemetry
        self._cube_size: int | None = None
        for cfg in (self.config_a, self.config_b):
            if variant_spec(cfg.solver).cube_blocked:
                self._cube_size = cfg.cube_size
                break

    def _build_pair(self) -> tuple[Simulation, Simulation]:
        fluid = seeded_initial_fluid(self.config_a, self.state_seed)
        structure = self.config_a.build_structure()
        sims = []
        for cfg in (self.config_a, self.config_b):
            sims.append(
                Simulation(
                    cfg,
                    initial_fluid=fluid.copy(),
                    initial_structure=structure.copy() if structure else None,
                )
            )
        return sims[0], sims[1]

    def run(self, num_steps: int) -> Divergence | None:
        """Advance both variants in lock-step, diffing after every step.

        Returns the first :class:`Divergence`, or ``None`` when the two
        variants agree for all ``num_steps`` steps.
        """
        sim_a, sim_b = self._build_pair()
        metrics = self.telemetry.metrics if self.telemetry is not None else None
        try:
            for _ in range(num_steps):
                sim_a.run(1)
                sim_b.run(1)
                divergence = _first_field_divergence(
                    sim_a,
                    sim_b,
                    step=sim_a.time_step,
                    rtol=self.rtol,
                    atol=self.atol,
                    cube_size=self._cube_size,
                )
                if metrics is not None:
                    metrics.counter("verify.steps_compared").inc()
                if divergence is not None:
                    if metrics is not None:
                        metrics.counter("verify.divergences").inc()
                    return divergence
            return None
        finally:
            sim_a.close()
            sim_b.close()


def compare_variants(
    config: SimulationConfig,
    variant_a: str,
    variant_b: str,
    num_steps: int,
    rtol: float | None = None,
    atol: float | None = None,
    state_seed: int | None = 0,
) -> Divergence | None:
    """One-shot form of :class:`DifferentialOracle`."""
    oracle = DifferentialOracle(
        config,
        variant_a=variant_a,
        variant_b=variant_b,
        rtol=rtol,
        atol=atol,
        state_seed=state_seed,
    )
    return oracle.run(num_steps)
