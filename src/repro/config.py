"""Validated configuration objects for the high-level API.

:class:`SimulationConfig` describes an entire LBM-IB run — fluid grid,
immersed structure, boundary conditions, solver variant — as plain
data.  :func:`build_simulation_parts` turns a config into the concrete
state and solver objects; most users go through
:class:`repro.api.Simulation` instead of calling it directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Literal

from repro.constants import DT, tau_from_viscosity
from repro.errors import ConfigurationError
from repro.variants import variant

__all__ = [
    "StructureConfig",
    "BoundaryConfig",
    "SimulationConfig",
]

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class StructureConfig:
    """Immersed-structure description.

    Parameters
    ----------
    kind:
        ``"none"`` (fluid only), ``"flat_sheet"`` (paper Figures 4/7),
        or ``"circular_plate"`` (paper Figure 1).
    num_fibers / nodes_per_fiber:
        Node-array dimensions (paper notation: a 52x52-node sheet).
    stretch_coefficient / bend_coefficient:
        Elasticity parameters ``k_s`` and ``k_b``.
    tether_coefficient:
        Stiffness of the fastening springs (circular plate only).
    normal_axis:
        Axis the sheet is perpendicular to (0 = across the flow).
    """

    kind: Literal["none", "flat_sheet", "circular_plate", "parallel_sheets"] = "flat_sheet"
    num_fibers: int = 16
    nodes_per_fiber: int = 16
    num_sheets: int = 3
    stretch_coefficient: float = 1.0e-2
    bend_coefficient: float = 1.0e-4
    tether_coefficient: float = 1.0e-1
    normal_axis: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "flat_sheet", "circular_plate", "parallel_sheets"):
            raise ConfigurationError(f"unknown structure kind {self.kind!r}")
        if self.kind == "parallel_sheets" and self.num_sheets < 1:
            raise ConfigurationError("num_sheets must be positive")
        if self.kind != "none" and (self.num_fibers < 1 or self.nodes_per_fiber < 1):
            raise ConfigurationError("structure needs positive node counts")
        if self.normal_axis not in (0, 1, 2):
            raise ConfigurationError(f"normal_axis must be 0/1/2, got {self.normal_axis}")

    def to_dict(self) -> dict:
        """JSON-safe plain-dict form (see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StructureConfig":
        """Rebuild from :meth:`to_dict` output (validation re-runs)."""
        return cls(**data)


@dataclass(frozen=True)
class BoundaryConfig:
    """One face boundary condition.

    ``kind`` is ``"periodic"``, ``"bounce_back"`` (optionally moving via
    ``wall_velocity``), or ``"outflow"``; ``axis`` may be given as
    ``0``/``1``/``2`` or ``"x"``/``"y"``/``"z"``.
    """

    kind: Literal["periodic", "bounce_back", "outflow"]
    axis: int | str
    side: Literal["low", "high"]
    wall_velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def resolved_axis(self) -> int:
        """Axis as an integer."""
        if isinstance(self.axis, str):
            try:
                return _AXES[self.axis]
            except KeyError:
                raise ConfigurationError(f"unknown axis name {self.axis!r}") from None
        if self.axis not in (0, 1, 2):
            raise ConfigurationError(f"axis must be 0/1/2 or x/y/z, got {self.axis}")
        return self.axis

    def to_dict(self) -> dict:
        """JSON-safe plain-dict form (see :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "axis": self.axis,
            "side": self.side,
            "wall_velocity": list(self.wall_velocity),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundaryConfig":
        """Rebuild from :meth:`to_dict` output (validation re-runs)."""
        data = dict(data)
        data["wall_velocity"] = tuple(data.get("wall_velocity", (0.0, 0.0, 0.0)))
        return cls(**data)

    def build(self):
        """Instantiate the matching :class:`~repro.core.lbm.boundaries.Boundary`."""
        from repro.core.lbm import boundaries as b

        axis = self.resolved_axis()
        if self.kind == "periodic":
            return b.PeriodicBoundary(axis, self.side)
        if self.kind == "bounce_back":
            return b.BounceBackWall(axis, self.side, wall_velocity=self.wall_velocity)
        if self.kind == "outflow":
            return b.OutflowBoundary(axis, self.side)
        raise ConfigurationError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of an LBM-IB simulation.

    Parameters
    ----------
    fluid_shape:
        Fluid grid dimensions ``(Nx, Ny, Nz)``.
    tau:
        BGK relaxation time; alternatively give ``viscosity``.
    viscosity:
        Kinematic viscosity in lattice units (overrides ``tau``).
    structure:
        Immersed-structure description.
    boundaries:
        Face boundary conditions (unlisted faces stay periodic).
    solver:
        A name in :data:`repro.variants.VARIANTS`, which lists each
        variant's layout, thread clamp and supported precisions;
        ``"sequential"``, ``"openmp"`` and ``"cube"`` are the paper's
        three programs.
    num_threads:
        Team size for the parallel solvers (rank count for the
        distributed variants).
    cube_size:
        Cube edge ``k`` for the cube solver (grid must divide evenly).
    cube_method / fiber_method:
        Distribution functions for cubes and fibers.
    delta_kind:
        ``"cosine"`` (paper default, 4-point), ``"3point"``, ``"linear"``.
    collision_operator:
        ``"bgk"`` (the paper's single-relaxation-time operator) or
        ``"trt"`` (two-relaxation-time with magic number 3/16; same
        viscosity, exact halfway bounce-back walls).
    external_force:
        Optional constant body-force density driving the flow.
    precision:
        Array precision policy: ``"float64"`` (default, bit-exact
        against the golden baselines), ``"float32"`` (single-precision
        storage and arithmetic, roughly half the memory traffic), or
        ``"mixed"`` (float32 field storage with float64 accumulation in
        the collision moments and IB transfer reductions).  See
        :mod:`repro.core.backend`.  A variant that does not list the
        policy in :data:`repro.variants.VARIANTS` refuses it.
    dt:
        Time step (1 in lattice units).
    barrier_timeout:
        Watchdog deadline (seconds) for every barrier crossing, worker
        fork-join, and communicator wait in the parallel solvers.
        ``None`` (the default) waits forever, the classic HPC
        behaviour; a finite value turns a stalled or dead peer into a
        typed :class:`~repro.errors.BarrierTimeoutError` /
        :class:`~repro.errors.CommTimeoutError` naming the missing
        threads or ranks.
    """

    fluid_shape: tuple[int, int, int] = (32, 32, 32)
    tau: float = 0.8
    viscosity: float | None = None
    structure: StructureConfig = field(default_factory=StructureConfig)
    boundaries: tuple[BoundaryConfig, ...] = ()
    solver: str = "sequential"
    num_threads: int = 1
    cube_size: int = 4
    cube_method: str = "block"
    fiber_method: str = "block"
    delta_kind: Literal["cosine", "3point", "linear"] = "cosine"
    collision_operator: Literal["bgk", "trt"] = "bgk"
    external_force: tuple[float, float, float] | None = None
    precision: Literal["float64", "float32", "mixed"] = "float64"
    dt: float = DT
    barrier_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.barrier_timeout is not None and self.barrier_timeout <= 0:
            raise ConfigurationError(
                f"barrier_timeout must be positive or None, got {self.barrier_timeout}"
            )
        if len(self.fluid_shape) != 3 or any(n < 1 for n in self.fluid_shape):
            raise ConfigurationError(
                f"fluid_shape must be three positive ints, got {self.fluid_shape}"
            )
        spec = variant(self.solver)
        if self.num_threads < 1:
            raise ConfigurationError(
                f"num_threads must be positive, got {self.num_threads}"
            )
        if spec.cube_blocked:
            for n in self.fluid_shape:
                if n % self.cube_size:
                    raise ConfigurationError(
                        f"fluid_shape {self.fluid_shape} not divisible by "
                        f"cube_size {self.cube_size}"
                    )
        if self.delta_kind not in ("cosine", "3point", "linear"):
            raise ConfigurationError(f"unknown delta kind {self.delta_kind!r}")
        if self.collision_operator not in ("bgk", "trt"):
            raise ConfigurationError(
                f"unknown collision operator {self.collision_operator!r}"
            )
        if self.precision not in ("float64", "float32", "mixed"):
            raise ConfigurationError(f"unknown precision {self.precision!r}")
        variant(self.solver, self.precision)
        seen = set()
        for bc in self.boundaries:
            key = (bc.resolved_axis(), bc.side)
            if key in seen:
                raise ConfigurationError(f"duplicate boundary on face {key}")
            seen.add(key)

    @property
    def effective_tau(self) -> float:
        """The relaxation time actually used (viscosity wins if given)."""
        if self.viscosity is not None:
            return tau_from_viscosity(self.viscosity)
        return self.tau

    def estimated_state_bytes(self) -> int:
        """First-order resident-state estimate for admission control.

        Uses the :mod:`repro.machine` bytes-per-node model: 48 stored
        values per two-lattice fluid node (29 for the single-lattice
        in-place variant) at the configured precision, plus the
        structure's node arrays (position, force, velocity — 12 doubles
        per IB node; structure state stays float64 under every policy).
        A deliberate lower bound on a real process footprint — used to
        *compare* jobs against a budget, not to size hardware.
        """
        from repro.machine.cache_sim import record_bytes

        nx, ny, nz = self.fluid_shape
        values = variant(self.solver).layout.values_per_node
        fluid = nx * ny * nz * record_bytes(values, self.precision)
        sc = self.structure
        if sc.kind == "none":
            return fluid
        fibers = sc.num_fibers * (sc.num_sheets if sc.kind == "parallel_sheets" else 1)
        return fluid + fibers * sc.nodes_per_fiber * 12 * 8

    def build_delta(self):
        """Instantiate the configured delta kernel."""
        from repro.core.ib import delta as d

        return {
            "cosine": d.CosineDelta,
            "3point": d.ThreePointDelta,
            "linear": d.LinearDelta,
        }[self.delta_kind]()

    def build_structure(self):
        """Instantiate the configured immersed structure (or ``None``)."""
        from repro.core.ib import geometry

        sc = self.structure
        if sc.kind == "none":
            return None
        if sc.kind == "parallel_sheets":
            return geometry.parallel_sheets(
                self.fluid_shape,
                num_sheets=sc.num_sheets,
                num_fibers=sc.num_fibers,
                nodes_per_fiber=sc.nodes_per_fiber,
                stretch_coefficient=sc.stretch_coefficient,
                bend_coefficient=sc.bend_coefficient,
                normal_axis=sc.normal_axis,
            )
        if sc.kind == "flat_sheet":
            return geometry.flat_sheet(
                self.fluid_shape,
                num_fibers=sc.num_fibers,
                nodes_per_fiber=sc.nodes_per_fiber,
                stretch_coefficient=sc.stretch_coefficient,
                bend_coefficient=sc.bend_coefficient,
                normal_axis=sc.normal_axis,
            )
        return geometry.circular_plate(
            self.fluid_shape,
            num_fibers=sc.num_fibers,
            nodes_per_fiber=sc.nodes_per_fiber,
            stretch_coefficient=sc.stretch_coefficient,
            bend_coefficient=sc.bend_coefficient,
            tether_coefficient=sc.tether_coefficient,
            normal_axis=sc.normal_axis,
        )

    def build_boundaries(self) -> list:
        """Instantiate the configured boundary conditions."""
        return [bc.build() for bc in self.boundaries]

    # ------------------------------------------------------------------
    # serialisation (job journal records, saved experiments)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe plain-dict form of the complete configuration.

        Round-trips exactly through :meth:`from_dict`; the batch
        scheduler journals it in each job's submit record so a killed
        scheduler process can resubmit every job on resume.
        """
        return {
            "fluid_shape": list(self.fluid_shape),
            "tau": self.tau,
            "viscosity": self.viscosity,
            "structure": self.structure.to_dict(),
            "boundaries": [bc.to_dict() for bc in self.boundaries],
            "solver": self.solver,
            "num_threads": self.num_threads,
            "cube_size": self.cube_size,
            "cube_method": self.cube_method,
            "fiber_method": self.fiber_method,
            "delta_kind": self.delta_kind,
            "collision_operator": self.collision_operator,
            "external_force": (
                None if self.external_force is None else list(self.external_force)
            ),
            "precision": self.precision,
            "dt": self.dt,
            "barrier_timeout": self.barrier_timeout,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output (validation re-runs)."""
        data = dict(data)
        data["fluid_shape"] = tuple(data["fluid_shape"])
        data["structure"] = StructureConfig.from_dict(data["structure"])
        data["boundaries"] = tuple(
            BoundaryConfig.from_dict(bc) for bc in data.get("boundaries", ())
        )
        if data.get("external_force") is not None:
            data["external_force"] = tuple(data["external_force"])
        # Manifests written before the precision policy existed are
        # float64 by construction.
        data.setdefault("precision", "float64")
        return cls(**data)
