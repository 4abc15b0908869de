"""Distributed-memory extension (the paper's first future-work item).

``comm``    — simulated MPI-like communicator (thread ranks, copied
              message payloads, barriers, allreduce, traffic counters)
``solver``  — x-slab rank decomposition with halo exchange of the
              rank-crossing populations and a replicated structure;
              each rank stores its slab in the global layout or, with
              ``cube_size``, in the *cube-centric* layout (the paper's
              exact future-work sentence: distributed memory for the
              cube implementation)
"""

from repro.distributed.comm import CommStats, RankComm, SimulatedComm
from repro.distributed.solver import DistributedLBMIBSolver

__all__ = [
    "CommStats",
    "RankComm",
    "SimulatedComm",
    "DistributedLBMIBSolver",
]
