"""The solver-variant table: every per-variant rule, written once.

Config validation, :class:`repro.api.Simulation`, :mod:`repro.verify`
and :mod:`repro.tuning` read :data:`VARIANTS` instead of listing
variant names.  Solvers are imported only when built, so
``import repro.config`` stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable

from repro.errors import ConfigurationError

_ANY = ("float64", "float32", "mixed")
_F64 = ("float64",)
_TEAM = ("num_threads", "fiber_method", "barrier_timeout")


# Layout builders: (solver class, Simulation, options) -> (solver, handle).
def _on_grid(cls, sim, options, state=None):
    state = sim._fluid if state is None else state
    structure, hook = sim._built_structure, sim._hook_for(state)
    solver = cls(state, structure, fault_hook=hook, **options, **sim._common)
    return solver, state


def _on_cubes(cls, sim, options):
    from repro.parallel.cubes import CubeGrid

    cubes = CubeGrid.from_fluid_grid(sim._fluid, sim.config.cube_size)
    return _on_grid(cls, sim, options, cubes)


def _in_slot(cls, sim, options):
    from repro.batch import BatchedFluidGrid

    # A single Simulation runs as a batch of one, reached through a live
    # slot view (df/df_new track the batched buffer swap).
    config = sim.config
    batch = BatchedFluidGrid(
        config.fluid_shape,
        1,
        tau=config.effective_tau,
        collision_operator=config.collision_operator,
        precision=config.precision,
    )
    solver = cls(batch, **sim._common)
    solver.load_slot(0, sim._fluid, sim._built_structure)
    slot = batch.view(0)
    solver.fault_hook = sim._hook_for(slot)
    return solver, slot


def _on_ranks(cls, sim, options):
    ranks = dict(num_ranks=sim.config.num_threads, **options, **sim._common)
    solver = cls(sim._fluid, sim._built_structure, **ranks)
    solver.comm.fault_injector = sim.fault_injector
    if sim.config.barrier_timeout is not None:
        solver.comm.timeout = sim.config.barrier_timeout
    sim._built_structure = solver.structure  # rank 0's replica from now on
    return solver, solver


@dataclass(frozen=True)
class StateLayout:
    """Where a variant keeps its fluid state: ``build`` returns the
    solver and the state handle fault hooks and the invariant sentinel
    bind to, which ``gather`` maps to :attr:`repro.api.Simulation.fluid`.
    A ``lazy`` layout's solver replicates the structure, so the first
    ``run`` builds it: callers may still adjust ``sim.structure``.
    """

    build: Callable
    gather: Callable
    values_per_node: int = 48  # stored values per node, for admission
    lazy: bool = False


def _decoded(fluid):
    return import_module("repro.core.lbm.sweep").decoded_fluid(fluid)


GLOBAL_GRID = StateLayout(_on_grid, lambda fluid: fluid)
SINGLE_LATTICE = StateLayout(_on_grid, _decoded, values_per_node=29)
CUBE_GRID = StateLayout(_on_cubes, lambda cubes: cubes.to_fluid_grid())
BATCH_SLOT = StateLayout(_in_slot, lambda slot: slot)
RANK_SLABS = StateLayout(_on_ranks, lambda s: s.gather_fluid(), lazy=True)


@dataclass(frozen=True)
class VariantSpec:
    """One solver variant: the ``module:Class`` ``solver`` built on
    ``layout``, passed the config fields named in ``options``, and
    ``threads(config)``, the thread (rank) count the oracle clamps to.
    A ``cube_blocked`` grid must divide by ``cube_size`` (the oracle
    localises divergences to a cube).  ``precisions`` are the policies
    it honours, ``oracle_safe`` lets the tuner pick it, and its goldens
    pin ``golden_precisions``.
    """

    name: str
    solver: str
    layout: StateLayout
    threads: Callable = lambda c: 1
    options: tuple[str, ...] = ()
    cube_blocked: bool = False
    precisions: tuple[str, ...] = _ANY
    oracle_safe: bool = False
    golden_precisions: tuple[str, ...] = ()

    def build(self, sim):
        """``(solver, state handle)`` for a prepared ``Simulation``."""
        module, name = self.solver.split(":")
        cls = getattr(import_module(module), name)
        options = {key: getattr(sim.config, key) for key in self.options}
        return self.layout.build(cls, sim, options)


def _cube_mesh(c) -> int:
    return min(c.num_threads, *(n // c.cube_size for n in c.fluid_shape))


_CUBE_TEAM = _TEAM + ("cube_method",)
_PIPELINE = "repro.core.pipeline:PipelineLBMIBSolver"
_RANKS = "repro.distributed.solver:DistributedLBMIBSolver"

#: Every variant; the first is the reference the others are verified
#: against.  The cube and rank layouts keep float64 working state (they
#: model the paper's double-precision kernels) and refuse other policies.
VARIANTS: tuple[VariantSpec, ...] = (
    VariantSpec("sequential", "repro.core.solver:SequentialLBMIBSolver",
                GLOBAL_GRID, oracle_safe=True, golden_precisions=_F64),
    VariantSpec("fused", _PIPELINE, GLOBAL_GRID,
                oracle_safe=True, golden_precisions=_ANY),
    VariantSpec("inplace", _PIPELINE, SINGLE_LATTICE,
                oracle_safe=True, golden_precisions=_ANY),
    VariantSpec("batched", "repro.batch:BatchedLBMIBSolver", BATCH_SLOT,
                oracle_safe=True, golden_precisions=_ANY),
    VariantSpec("openmp", "repro.parallel.openmp_solver:OpenMPLBMIBSolver",
                GLOBAL_GRID, threads=lambda c: c.num_threads, options=_TEAM),
    VariantSpec("cube", "repro.parallel.cube_solver:CubeLBMIBSolver", CUBE_GRID,
                threads=_cube_mesh, options=_CUBE_TEAM, cube_blocked=True,
                precisions=_F64, oracle_safe=True),
    VariantSpec("async_cube",
                "repro.parallel.async_cube_solver:AsyncCubeLBMIBSolver", CUBE_GRID,
                threads=_cube_mesh, options=_CUBE_TEAM, cube_blocked=True,
                precisions=_F64),
    VariantSpec("distributed", _RANKS, RANK_SLABS, precisions=_F64,
                threads=lambda c: min(c.num_threads, c.fluid_shape[0])),
    VariantSpec("hybrid", _RANKS, RANK_SLABS, precisions=_F64, cube_blocked=True,
                threads=lambda c: min(c.num_threads, c.fluid_shape[0] // c.cube_size),
                options=("cube_size",)),
)

REFERENCE = VARIANTS[0].name

_BY_NAME = {spec.name: spec for spec in VARIANTS}


def supporting(precision: str) -> tuple[str, ...]:
    """Names of the variants that honour ``precision``, in table order."""
    return tuple(spec.name for spec in VARIANTS if precision in spec.precisions)


def variant(name: str, precision: str = "float64") -> VariantSpec:
    """The variant named ``name``; refuses a ``precision`` it does not honour."""
    spec = _BY_NAME.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ConfigurationError(f"unknown solver {name!r}")
    if precision not in spec.precisions:
        raise ConfigurationError(
            f"solver {name!r} does not support precision {precision!r}; "
            f"variants that do: {', '.join(supporting(precision))}"
        )
    return spec
