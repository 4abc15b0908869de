"""One retry policy and one failure report for solo and batched runs:
:class:`~repro.resilience.runner.ResilientRunner` and
:class:`~repro.batch.scheduler.BatchScheduler` both retry under a
:class:`RetryPolicy` and journal a :class:`FailureInfo` in ``job_failed``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from repro.config import SimulationConfig
from repro.errors import ConfigurationError

__all__ = ["FailureInfo", "RetryPolicy", "error_chain"]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job retry budget.

    Parameters
    ----------
    max_attempts:
        Total attempts a job may consume (1 = no retries).  A solo
        run's fallback to the sequential solver after a worker death is
        not charged against it.
    tau_damping:
        Multiplier applied to the effective relaxation time on every
        retry (higher tau = higher viscosity, the standard LBM
        stabilisation).  ``1.0`` retries with unchanged physics, so a
        retried job stays bit-identical to its fault-free run.
    """

    max_attempts: int = 4
    tau_damping: float = 1.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not math.isfinite(self.tau_damping) or self.tau_damping < 1.0:
            raise ConfigurationError(
                "tau_damping must be finite and >= 1 (damping raises "
                f"viscosity), got {self.tau_damping}"
            )

    def damped(self, config: SimulationConfig) -> SimulationConfig:
        """``config`` with the retry damping applied."""
        if self.tau_damping == 1.0:
            return config
        return replace(
            config, tau=config.effective_tau * self.tau_damping, viscosity=None
        )


def error_chain(error: BaseException | None) -> tuple[str, ...]:
    """The ``__cause__``/``__context__`` chain as human-readable strings."""
    chain: list[str] = []
    seen: set[int] = set()
    while error is not None and id(error) not in seen:
        seen.add(id(error))
        chain.append(f"{type(error).__name__}: {error}")
        error = error.__cause__ or error.__context__
    return tuple(chain)


@dataclass(frozen=True)
class FailureInfo:
    """Structured root-cause report attached to a terminal failure.

    Everything an operator needs to triage a dead job without re-running
    it: what blew up (``error_type`` / ``message`` / ``invariant``),
    where (``failing_step`` / ``slot``, ``-1`` outside a batch), how
    hard recovery tried (``attempt`` / ``quarantined``), the full
    exception ``chain`` and a pointer to the crash-safe
    ``incident_log`` journal that holds the step-by-step forensics.
    """

    job_id: str
    error_type: str
    message: str
    invariant: str
    failing_step: int
    slot: int
    attempt: int
    quarantined: bool = False
    chain: tuple[str, ...] = ()
    incident_log: str | None = None

    @property
    def root_cause(self) -> str:
        """The innermost link of the exception chain."""
        return self.chain[-1] if self.chain else f"{self.error_type}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-safe form (journal records, operator tooling)."""
        return {**asdict(self), "chain": list(self.chain)}

    @classmethod
    def from_dict(cls, data: dict) -> "FailureInfo":
        """Inverse of :meth:`to_dict` (used by :meth:`BatchScheduler.resume`)."""
        return cls(**{**data, "chain": tuple(data.get("chain", ()))})
