"""High-level API: the :class:`Simulation` facade.

The paper advertises "an easy-to-use application programming
interface"; this module is it.  A single
:class:`~repro.config.SimulationConfig` describes the problem and the
solver variant; :class:`Simulation` wires up the grid, structure, delta
kernel, boundaries and solver, and exposes a uniform ``run``/``step``
interface plus convenient diagnostics regardless of which of the three
solver programs is running underneath.

>>> from repro.api import Simulation, SimulationConfig
>>> sim = Simulation(SimulationConfig(fluid_shape=(16, 16, 16)))
>>> sim.run(5)
>>> sim.time_step
5
"""

from __future__ import annotations

import os

import numpy as np

from repro.config import BoundaryConfig, SimulationConfig, StructureConfig
from repro.core.lbm import analysis
from repro.core.lbm.fields import FluidGrid
from repro.constants import viscosity_from_tau
from repro.errors import ConfigurationError
from repro.variants import SINGLE_LATTICE, variant

__all__ = [
    "Simulation",
    "SimulationConfig",
    "StructureConfig",
    "BoundaryConfig",
    "SimulationService",
]


def __getattr__(name):
    # Lazy: the asyncio service layer is only imported when asked for.
    if name == "SimulationService":
        from repro.service import SimulationService

        return SimulationService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Sentinel: "no initial structure was supplied" (``None`` is a valid
#: structure meaning a fluid-only run, so it cannot be the default).
_UNSET = object()

_FLUID_STATE_FIELDS = (
    "df",
    "df_new",
    "density",
    "velocity",
    "velocity_shifted",
    "force",
)


class Simulation:
    """A configured LBM-IB simulation with a uniform driving interface.

    Parameters
    ----------
    config:
        The complete run description.  The solver variant is selected by
        ``config.solver``; all variants produce identical physics (this
        is enforced by the test suite).
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`; its
        hooks are wired into the selected solver (per-step kill/corrupt
        faults) and, for the distributed variants, into the simulated
        communicator (drop/delay faults).
    invariants:
        Optional :class:`~repro.verify.invariants.InvariantSuite`
        checked after every completed time step (see
        :meth:`attach_invariants`).
    initial_fluid / initial_structure / initial_step:
        Restore state: copy this fluid state (and adopt this structure)
        instead of the config-built initial condition, and start the
        step counter at ``initial_step``.  Used by
        :meth:`from_checkpoint`; the fluid's ``tau`` still comes from
        ``config`` so a restore may retry with damped parameters.
    telemetry:
        Optional :class:`~repro.observe.Telemetry` bundle; its tracer
        is wired into the selected solver (per-kernel spans) and its
        metrics registry receives the ``sim.steps`` counter (see
        :meth:`attach_telemetry`).  ``None`` (the default) keeps every
        solver on its zero-overhead untraced path.
    """

    def __init__(
        self,
        config: SimulationConfig,
        fault_injector=None,
        initial_fluid: FluidGrid | None = None,
        initial_structure=_UNSET,
        initial_step: int = 0,
        invariants=None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.fault_injector = fault_injector
        self._invariants = None
        self._telemetry = None
        if initial_structure is _UNSET:
            self._built_structure = config.build_structure()
        else:
            self._built_structure = initial_structure
        self._common = dict(  # constructor arguments every variant shares
            delta=config.build_delta(),
            boundaries=config.build_boundaries(),
            dt=config.dt,
            external_force=config.external_force,
        )
        self._spec = variant(config.solver)
        self._fluid = FluidGrid(
            config.fluid_shape,
            tau=config.effective_tau,
            collision_operator=config.collision_operator,
            single_lattice=self._spec.layout is SINGLE_LATTICE,
            precision=config.precision,
        )
        if initial_fluid is not None:
            if tuple(initial_fluid.shape) != tuple(config.fluid_shape):
                raise ConfigurationError(
                    f"restored fluid shape {initial_fluid.shape} does not match "
                    f"configured shape {config.fluid_shape}"
                )
            # An inplace-variant checkpoint may carry the raw AA-encoded
            # lattice (aa_phase 1, streaming deferred mid-cycle).  An
            # inplace reader adopts it verbatim plus the phase flag; any
            # other variant decodes to the natural layout first, which
            # is exactly the sequential post-step state.
            restored_phase = int(getattr(initial_fluid, "aa_phase", 0))
            src_df = initial_fluid.df
            if restored_phase and not self._fluid.single_lattice:
                from repro.core.lbm.sweep import aa_decode

                src_df = aa_decode(initial_fluid.df)
                restored_phase = 0
            for name in _FLUID_STATE_FIELDS:
                if name == "df":
                    self._fluid.df[...] = src_df
                    continue
                if name == "df_new":
                    if self._fluid.df_new is None:
                        continue
                    src_new = getattr(initial_fluid, "df_new", None)
                    if src_new is None or src_df is not initial_fluid.df:
                        # Single-lattice writer (or decoded state): seed
                        # the second buffer with the natural lattice, as
                        # after a sequential step.
                        self._fluid.df_new[...] = src_df
                    else:
                        self._fluid.df_new[...] = src_new
                    continue
                getattr(self._fluid, name)[...] = getattr(initial_fluid, name)
            if self._fluid.single_lattice:
                self._fluid.aa_phase = restored_phase
        self._initial_step = int(initial_step)
        # The solver and its state handle; None until built.
        self._solver = self._state = None
        if not self._spec.layout.lazy:
            self._ensure_solver()
        if invariants is not None:
            self.attach_invariants(invariants)
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def _hook_for(self, state):
        if self.fault_injector is None:
            return None
        return self.fault_injector.hook_for(state)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    @staticmethod
    def _chain_hooks(*hooks):
        hooks = [h for h in hooks if h is not None]
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]

        def chained(tid: int, step: int) -> None:
            for hook in hooks:
                hook(tid, step)

        return chained

    def attach_invariants(self, suite) -> None:
        """Check ``suite`` after every completed time step.

        Two hooks are installed: the suite's global checkers run on the
        gathered state after each step of :meth:`run` (any variant),
        and its cheap per-thread NaN/Inf sentinel is chained onto the
        thread-parallel solvers' step hooks, where a violation inside a
        worker surfaces as a typed
        :class:`~repro.errors.InvariantError` localized to the
        offending thread and cube.  Conserved-quantity baselines are
        (re)bound to the *current* state, so attaching after a
        checkpoint restore or resilience rollback measures drift from
        the restored state, not the original run's.
        """
        self._invariants = suite
        suite.bind(self.fluid, self.structure)
        if self._telemetry is not None:
            suite.metrics = self._telemetry.metrics
        if self._solver is not None and hasattr(self._solver, "fault_hook"):
            self._solver.fault_hook = self._chain_hooks(
                self._solver.fault_hook, suite.sentinel_hook(self._state)
            )

    @property
    def invariants(self):
        """The attached invariant suite (or ``None``)."""
        return self._invariants

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Route this simulation's spans and metrics into ``telemetry``.

        The bundle's :class:`~repro.observe.tracer.Tracer` is installed
        on the underlying solver (for the lazily built distributed
        variants, installation is deferred to the first :meth:`run`),
        and every :meth:`run` bumps the registry's ``sim.steps``
        counter.  Call :func:`repro.observe.Telemetry.collect` after a
        run to harvest barrier/lock/trace statistics into metrics.
        """
        self._telemetry = telemetry
        if self._solver is not None:
            self._solver.tracer = telemetry.tracer
        if self._invariants is not None:
            self._invariants.metrics = telemetry.metrics

    @property
    def telemetry(self):
        """The attached telemetry bundle (or ``None``)."""
        return self._telemetry

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def _ensure_solver(self):
        if self._solver is None:
            self._solver, self._state = self._spec.build(self)
            self._solver.time_step = self._initial_step
            if self._telemetry is not None:
                self._solver.tracer = self._telemetry.tracer
        return self._solver

    def run(self, num_steps: int) -> None:
        """Advance the simulation by ``num_steps`` time steps.

        With an invariant suite attached the solver is driven one step
        at a time so every step's gathered state is checked; violations
        raise :class:`~repro.errors.InvariantError` at the first bad
        step instead of surfacing as garbage numbers later.
        """
        solver = self._ensure_solver()
        if self._invariants is None:
            solver.run(num_steps)
        else:
            for _ in range(num_steps):
                solver.run(1)
                self._invariants.check_simulation(self)
        if self._telemetry is not None and num_steps:
            self._telemetry.metrics.counter("sim.steps").inc(num_steps)

    def step(self) -> None:
        """Advance one time step (parallel solvers accept run(1) only)."""
        self.run(1)

    @property
    def time_step(self) -> int:
        """Number of completed time steps."""
        return self._solver.time_step if self._solver is not None else self._initial_step

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str | os.PathLike) -> None:
        """Atomically save the complete state (any solver variant).

        The state is gathered into the global layout first, so a
        checkpoint written by one solver variant restores into any
        other — the fallback path the resilient runner relies on.  The
        in-place variant saves its raw single lattice plus the
        ``aa_phase`` flag instead (no ``df_new`` entry); readers decode
        mid-cycle checkpoints to the natural layout on restore.
        """
        from repro.io.checkpoint import save_checkpoint

        fluid = self._fluid if self._fluid.single_lattice else self.fluid
        save_checkpoint(path, fluid, self.structure, time_step=self.time_step)

    @classmethod
    def from_checkpoint(
        cls,
        path: str | os.PathLike,
        config: SimulationConfig,
        fault_injector=None,
    ) -> "Simulation":
        """Rebuild a simulation from a checkpoint under ``config``.

        ``config`` may differ from the writing run's configuration — a
        different solver variant (worker-death fallback) or damped
        ``tau``/``dt`` (stability retry); only the fluid shape must
        match.  Raises :class:`~repro.errors.CheckpointError` for a
        missing, truncated, or corrupted file.
        """
        from repro.io.checkpoint import load_checkpoint

        fluid, structure, step = load_checkpoint(path)
        return cls(
            config,
            fault_injector=fault_injector,
            initial_fluid=fluid,
            initial_structure=structure,
            initial_step=step,
        )

    def close(self) -> None:
        """Release solver resources (worker pools); idempotent."""
        close = getattr(self._solver, "close", None) if self._solver else None
        if close is not None:
            close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # state access (uniform across solver variants)
    # ------------------------------------------------------------------
    @property
    def fluid(self) -> FluidGrid:
        """The fluid state in the global layout: the live grid (a live
        slot view for the batched solver), or a gathered copy for the
        cube, rank-slab and mid-AA-cycle in-place layouts.
        """
        if self._solver is None:
            return self._fluid
        return self._spec.layout.gather(self._state)

    @property
    def structure(self):
        """The immersed structure (rank 0's replica for distributed runs)."""
        return self._built_structure

    @property
    def solver(self):
        """The underlying solver object (variant-specific features)."""
        return self._ensure_solver()

    @property
    def viscosity(self) -> float:
        """Kinematic viscosity implied by the configured tau."""
        return viscosity_from_tau(self.config.effective_tau)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def kinetic_energy(self) -> float:
        """Total fluid kinetic energy."""
        fluid = self.fluid
        return analysis.kinetic_energy(fluid.velocity, fluid.density)

    def max_velocity(self) -> float:
        """Maximum velocity magnitude (Mach-number stability check)."""
        return analysis.max_velocity_magnitude(self.fluid.velocity)

    def vorticity(self) -> np.ndarray:
        """Vorticity field ``(3, Nx, Ny, Nz)``."""
        return analysis.vorticity(self.fluid.velocity)

    def fiber_positions(self) -> list[np.ndarray]:
        """Current fiber-node positions, one array per sheet."""
        if self.structure is None:
            return []
        return [s.positions.copy() for s in self.structure.sheets]

    def structure_centroid(self) -> np.ndarray | None:
        """Centroid of the first sheet's active nodes (or ``None``)."""
        if self.structure is None:
            return None
        return self.structure.sheets[0].centroid()
